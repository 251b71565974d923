"""Exact polynomial families, certified largest-root brackets, and the
comparison identities behind the extremal spectral bounds.

beta(m) and gamma(m) are the largest roots of

    Z(x) = x^3 - x^2 - (m-2) x + (m-3)
    L(x) = x^7 - m x^5 + (4m-14) x^3 - (3m-14) x - m + 5

and are the maximum spectral radii over m-edge triangle-free non-bipartite
graphs and {C3,C5}-free non-bipartite graphs respectively.  Both come with
analytic sign-change brackets, which bisection turns into certified
enclosures; endpoint signs can be re-verified in exact integer arithmetic,
and so can the place of the root between two square roots
(`RootBracket.root_between_sqrts`).

Every sign the bisection acts on is proven, by the first of three steps
that decides it (Higham, Accuracy and Stability of Numerical Algorithms,
2nd ed., section 5.1, with u = 2^-53):

1. static guard: the float Horner value p^(x) gives the sign when |p^(x)|
   exceeds a bound on Horner's rounding error over the whole bracket,
   gamma_2d * sum |c_i| r^i with gamma_2d = 2du / (1 - 2du) and r the
   largest |x| on it (eq. (5.3)).  The guard is computed once per bracket;
2. running bound: otherwise Horner's rule is run again, summing the
   rounding bound of each of its operations at this x (Algorithm 5.1,
   see `_close_sign`).  Near a root that bound is far below the guard;
3. exact: otherwise the sign is computed over the integers.

The kernel runs the first step in its own frame for the ends and for
every midpoint that needs a value; `_signed_value` does the same for one
point.  Both hand a value inside the guard to `_close_sign`, which runs the
other two.

Most midpoints need no evaluation at all.  Before the loop the kernel
proves a root window (a, b) with a < r < b around the root r:

* monotonicity: on a bracket with lo > 0 every term i c_i x^(i-1) of p'
  is monotone, so sum i c_i e_i^(i-1), with e_i = lo for c_i > 0 and hi
  otherwise, bounds p' from below on the whole bracket.  Less a rounding
  slack that covers its float evaluation, this is p'_min; when p'_min > 0,
  p is strictly increasing there and r is its only root;
* estimate: float Newton steps from the regula-falsi point of the two end
  values give x;
* radius: by the mean-value theorem |x - r| = |p(x)| / p'(xi) <=
  (|p^(x)| + guard) / p'_min.  The radius is widened by a relative 2^-50
  and each end moved one float outward, so both ends are strictly clear of
  r after rounding; ends beyond the bracket are clipped to it.

A midpoint at or below a then has p < 0, and one at or above b has p > 0,
with no evaluation; one inside the window takes its sign from the three
steps.  The signs are the exact ones either way, so the bracket is the
exact bisection's to the bit.  Without a proof of monotonicity (lo <= 0,
p'_min <= 0, or every sign exact) the window is the whole bracket.

For beta and gamma at m <= 10^4 (19,990 brackets) the static guard leaves
10,461 signs open, and the running bound all but 589 of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import graphs as G
from . import spectra
from .spectra import IntPoly

BISECT_WIDTH = 1e-12
_EXACT_INT = 2 ** 53  # integers of smaller magnitude are exact doubles
_UNIT_ROUNDOFF = 2.0 ** -53
# from the regula-falsi point Newton reaches the guard in one step for 95%
# of the beta/gamma brackets at m <= 10^4 and in three at most; the cap only
# bounds the work on a bracket where it does not converge
_NEWTON_STEPS = 8
_RADIUS_SLACK = 1.0 + 2.0 ** -50  # covers the two roundings of the radius


class BoundsError(ValueError):
    pass


# ---------------------------------------------------------------------------
# exact polynomial families (spectra.IntPoly, little-endian coefficients)
# ---------------------------------------------------------------------------


def z_poly(m: int) -> IntPoly:
    """Z(x) = x^3 - x^2 - (m-2) x + (m-3), m >= 3."""
    if m < 3:
        raise BoundsError("z_poly needs m >= 3")
    return IntPoly((m - 3, -(m - 2), -1, 1))


def h_poly(m: int) -> IntPoly:
    """H(x) = (x^2 + x - 1) Z(x) = x^5 - m x^3 + (2m-5) x - m + 3."""
    if m < 3:
        raise BoundsError("h_poly needs m >= 3")
    return IntPoly((-m + 3, 2 * m - 5, 0, -m, 0, 1))


def l_poly(m: int) -> IntPoly:
    """L(x) = x^7 - m x^5 + (4m-14) x^3 - (3m-14) x - m + 5, m >= 7."""
    if m < 7:
        raise BoundsError("l_poly needs m >= 7")
    return IntPoly((-m + 5, -(3 * m - 14), 0, 4 * m - 14, 0, -m, 0, 1))


def f_poly(a: int, m: int) -> IntPoly:
    """Characteristic factor of SK_{a,(m-1)/a} written in terms of a and m:

        F(x) = x^5 - m x^3 + (3m - 2 - 2a - 2(m-1)/a) x - 2m + 2a + 2(m-1)/a

    Exact rational coefficients (a need not divide m-1)."""
    if a < 2:
        raise BoundsError("f_poly needs a >= 2")
    r = Fraction(2 * (m - 1), a)
    return IntPoly((-2 * m + 2 * a + r, 3 * m - 2 - 2 * a - r, 0,
                    Fraction(-m), 0, Fraction(1)))


def sk_quintic(a: int, b: int) -> IntPoly:
    """Nonzero characteristic factor of SK_{a,b}:
    x^5 - (ab+1) x^3 + (3ab-2a-2b+1) x - 2ab + 2a + 2b - 2."""
    ab = a * b
    return IntPoly((-2 * ab + 2 * a + 2 * b - 2, 3 * ab - 2 * a - 2 * b + 1,
                    0, -(ab + 1), 0, 1))


def q_poly(a: int, b: int) -> IntPoly:
    """Nonzero characteristic factor of S_3(K_{a,b}) (so m = ab + 3):
    x^7 - (ab+3) x^5 + (5ab-2a-2b+2) x^3 + (-5ab+4a+4b-3) x - 2ab+2a+2b-2."""
    if a < 2 or b < 2:
        raise BoundsError("q_poly needs a, b >= 2")
    ab = a * b
    return IntPoly((-2 * ab + 2 * a + 2 * b - 2, -5 * ab + 4 * a + 4 * b - 3,
                    0, 5 * ab - 2 * a - 2 * b + 2, 0, -(ab + 3), 0, 1))


# Pendant attachment sites of S_3(K_{a,b}) as built by graphs.s_odd(a, b, 2):
# part A is 0..a-1, part B is a..a+b-1, and the subdivision path replacing the
# edge (0, a) runs 0, x1, x2, x3, a with x1 = a+b, x2 = a+b+1, x3 = a+b+2.
PENDANT_SITES: dict[int, str] = {
    1: "path end, side A",
    2: "path end, side B",
    3: "non-path vertex, side A",
    4: "non-path vertex, side B",
    5: "path inner, nearest A",
    6: "path middle",
    7: "path inner, nearest B",
}
E_DISPLAYED_CASE = 1  # the case whose factor matches e_poly_closed


def _pendant_site_vertex(a: int, b: int, case: int) -> int:
    table = {1: 0, 2: a, 3: 1, 4: a + 1, 5: a + b, 6: a + b + 1, 7: a + b + 2}
    if case not in table:
        raise BoundsError(f"case must be 1..7, got {case}")
    return table[case]


def pendant_case_graph(a: int, b: int, case: int) -> G.Graph:
    """S_3(K_{a,b}) plus a pendant edge at the given attachment site."""
    base = G.s_odd(a, b, 2)
    v = _pendant_site_vertex(a, b, case)
    return G.Graph(base.n + 1, base.edges + ((v, base.n),))


def e_poly(a: int, b: int, case: int) -> IntPoly:
    """Nonzero characteristic factor of S_3(K_{a,b}) plus a pendant edge at
    the given site, computed exactly from the graph.  Case E_DISPLAYED_CASE
    reproduces e_poly_closed."""
    if a < 2 or b < 2:
        raise BoundsError("e_poly needs a, b >= 2")
    factor, _ = spectra.char_poly(pendant_case_graph(a, b, case)).strip_x()
    return factor


def e_poly_closed(a: int, b: int) -> IntPoly:
    """E(x) = x^8 - (ab+4) x^6 + (6ab-2a-3b+5) x^4 - (8ab-5a-7b+5) x^2
             - (2ab-2a-2b+2) x + ab - a - b + 1."""
    ab = a * b
    return IntPoly((
        ab - a - b + 1,
        -(2 * ab - 2 * a - 2 * b + 2),
        -(8 * ab - 5 * a - 7 * b + 5),
        0,
        6 * ab - 2 * a - 3 * b + 5,
        0,
        -(ab + 4),
        0,
        1,
    ))


def star_plus_poly(m: int) -> IntPoly:
    """Cubic whose largest root is the spectral radius of the star plus one
    edge (K_{1,m-1} with an edge in the independent set):
    x^3 - x^2 - (m-1) x + (m-3)."""
    if m < 3:
        raise BoundsError("star_plus_poly needs m >= 3")
    return IntPoly((m - 3, -(m - 1), -1, 1))


# ---------------------------------------------------------------------------
# certified largest-root extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RootBracket:
    """Interval certified (by a sign change) to contain the largest real root
    of `poly`.  lo == hi means the root was hit exactly."""

    lo: float
    hi: float
    poly: IntPoly

    @property
    def value(self) -> float:
        return self.hi if self.lo == self.hi else 0.5 * (self.lo + self.hi)

    def verify_signs_exact(self) -> bool:
        """Re-check the bracket in exact arithmetic: poly(lo) < 0 and
        poly(hi) >= 0 (hi may be the root itself)."""
        ic = self.poly.as_integer()
        if self.lo == self.hi:
            return _dyadic_sign(ic, self.lo) == 0
        return _dyadic_sign(ic, self.lo) < 0 <= _dyadic_sign(ic, self.hi)

    def root_between_sqrts(self, s: int, t: int) -> bool:
        """sqrt(s) < r <= sqrt(t), decided exactly, for the root r of the
        monic poly that the bracket certifies in (lo, hi] (lo = hi = r when
        it was hit).

        r > sqrt(s) when lo >= sqrt(s) lies below r, or when p(sqrt(s)) < 0:
        a monic p then has a root above sqrt(s), and r is the largest.
        r <= sqrt(t) when hi <= sqrt(t); it fails when lo >= sqrt(t) lies
        below r; otherwise sqrt(t) is inside the bracket, and p(sqrt(t)) >= 0
        puts the bracket's sign change at or below it.  x against sqrt(k) is
        the sign of x^2 - k at x."""
        ic = self.poly.as_integer()
        lo, hi = self.lo, self.hi
        lo_vs_s = _dyadic_sign((-s, 0, 1), lo) if lo > 0 else -1
        above = (lo_vs_s > 0 or (lo_vs_s == 0 and lo < hi)
                 or _sqrt_sign(ic, s) < 0)
        if hi >= 0 and _dyadic_sign((-t, 0, 1), hi) <= 0:
            below = True
        elif lo > 0 and _dyadic_sign((-t, 0, 1), lo) >= 0:
            below = False
        else:
            below = _sqrt_sign(ic, t) >= 0
        return above and below


def _dyadic_sign(coeffs: tuple[int, ...], x: float) -> int:
    """Exact sign of an integer polynomial at a float (a dyadic rational)."""
    num, den = float(x).as_integer_ratio()
    acc = coeffs[-1]
    dp = 1
    for c in reversed(coeffs[:-1]):
        dp *= den
        acc = acc * num + c * dp
    return (acc > 0) - (acc < 0)


def _sqrt_sign(coeffs: tuple[int, ...], s: int) -> int:
    """Exact sign of an integer polynomial at sqrt(s), s >= 0: the value is
    E + sqrt(s) O with integers E = sum c_2k s^k and O = sum c_2k+1 s^k."""
    even = sum(c * s ** k for k, c in enumerate(coeffs[0::2]))
    odd = sum(c * s ** k for k, c in enumerate(coeffs[1::2]))
    e, o = (even > 0) - (even < 0), (odd > 0) - (odd < 0)
    if e == o or o == 0 or s == 0:
        return e
    if e == 0:
        return o
    gap = even * even - s * odd * odd  # sign of |E| - sqrt(s) |O|
    return e if gap > 0 else (o if gap < 0 else 0)


def _bracket_form(coeffs: tuple[int, ...], lo: float, hi: float
                  ) -> tuple[tuple[float, ...], float, float]:
    """Float coefficients, highest degree first, the guard of Horner's rule
    for an integer polynomial at any float x in [lo, hi], and, from the same
    pass over the coefficients, p'_min: a lower bound on p' over [lo, hi],
    or -inf when lo <= 0 or the form is empty.

    With r = max(1, |lo|, |hi|) and scale = sum |c_i| r^i, the float Horner
    value at such an x is within gamma_2d * scale of the exact value
    (Higham, eq. (5.3)), and guard = 4 (d+1) u * scale exceeds that even
    after the rounding of scale itself.  A float value beyond the guard
    decides the sign; anything else is computed exactly.  When a coefficient
    is not an exact double, or scale might overflow, the form is empty and
    the guard infinite, so every sign is exact.

    For lo > 0, p'(x) >= P+'(lo) + P-'(hi) on [lo, hi], where P+ and P- hold
    the positive and the negative terms of p.  Their float Horner
    derivatives sum terms of one sign, so each is within gamma_2d of its
    exact value, and |P+'| + |P-'| <= sum i |c_i| r^(i-1) <= d * scale / r.
    Subtracting 2d * guard / r = 8 d (d+1) u * scale / r covers that error
    and the rounding of the subtraction, so p'_min never exceeds the exact
    bound.  It may be NaN or infinite after an overflow; the caller then
    proves no window."""
    if max(map(abs, coeffs)) < _EXACT_INT:
        fc = tuple(map(float, reversed(coeffs)))  # exact: |c_i| < 2^53
        r = max(1.0, abs(lo), abs(hi))
        scale = pos = dpos = neg = dneg = 0.0
        for c in fc:
            scale = scale * r + abs(c)
            dpos = dpos * lo + pos
            dneg = dneg * hi + neg
            if c > 0.0:
                pos = pos * lo + c
                neg *= hi
            else:
                pos *= lo
                neg = neg * hi + c
        # Horner intermediates stay below about scale, so a finite 2*scale
        # also rules out overflow in the evaluation.
        if math.isfinite(2.0 * scale):
            d = len(fc) - 1
            guard = 4 * (d + 1) * _UNIT_ROUNDOFF * scale
            slope = dpos + dneg - 2 * d * guard / r if lo > 0 else -math.inf
            return fc, guard, slope
    return (), math.inf, -math.inf  # |0.0| > inf never holds: all exact


def _close_sign(coeffs: tuple[int, ...], fc: tuple[float, ...],
                x: float) -> int:
    """Proven sign of an integer polynomial at x, for its float coefficients
    fc from `_bracket_form`, where the float Horner value lies within the
    static guard: from a running error bound when that decides it, else
    exactly.

    Horner's rule computes t_k = fl(y_(k+1) x) and y_k = fl(t_k + c_k), and
    each rounding obeys |fl(z) - z| <= u |fl(z)| while no result is
    subnormal, so |y_0 - p(x)| <= u sum_(k<d) |x|^k (|t_k| + |y_k|) to all
    orders (Higham, section 5.1, Algorithm 5.1).  That sum has nonnegative
    terms, so its float value mu falls short by at most (1+u)^(2d), and the
    product u mu (1 + 2(2d+1)u) rounds to at least the exact bound.  The
    bound is used only at |x| >= 1: with integer c_k no nonzero y_k is below
    2^-53 (a cancelling sum t + c is exact, a multiple of ulp(c) or ulp(t)
    with |t| >= |c|/2 >= 1/2), and no product with |x| >= 1 shrinks, so no
    intermediate is subnormal.  A smaller |x|, an empty form, or a bound
    that is not finite leaves the sign to `_dyadic_sign`."""
    ax = abs(x)
    if fc and ax >= 1.0:
        y = fc[0]
        mu = 0.0
        for c in fc[1:]:
            t = y * x
            y = t + c
            mu = mu * ax + (abs(t) + abs(y))
        d = len(fc) - 1
        slack = _UNIT_ROUNDOFF * (1.0 + (4 * d + 2) * _UNIT_ROUNDOFF)  # exact
        if abs(y) > mu * slack:  # never when mu is nan or inf
            return 1 if y > 0.0 else -1
    return _dyadic_sign(coeffs, x)


def _signed_value(coeffs: tuple[int, ...], fc: tuple[float, ...],
                  guard: float, x: float) -> tuple[float, int]:
    """Float Horner value of an integer polynomial at x and its proven sign,
    for (fc, guard) given by `_bracket_form` on an interval holding x."""
    val = 0.0
    for c in fc:
        val = val * x + c
    if abs(val) > guard:
        return val, (1 if val > 0 else -1)
    return val, _close_sign(coeffs, fc, x)


def _root_window(fc: tuple[float, ...], guard: float, slope: float,
                 lo: float, hi: float, v_lo: float, v_hi: float
                 ) -> tuple[float, float]:
    """(a, b) with lo <= a < r < b <= hi for the root r of p on a bracket
    with p(lo) < 0 < p(hi), given (fc, guard, slope) from `_bracket_form`
    on an interval holding [lo, hi] and the float values v_lo, v_hi of p at
    the ends.  With no proof of monotonicity it is (lo, hi).

    Newton steps from the regula-falsi point stop once |p^(x)| is within
    the guard; x only ever picks the window's centre, and the radius
    (|p^(x)| + guard) / slope holds for any x in [lo, hi]."""
    if not 0.0 < slope < math.inf:
        return lo, hi
    # the end values may sit inside the guard band with either float sign
    x = lo - v_lo * (hi - lo) / (v_hi - v_lo) if v_lo < 0.0 < v_hi else hi
    for step in range(_NEWTON_STEPS + 1):
        x = lo if x < lo else (hi if x > hi else x)
        val = dval = 0.0
        for c in fc:
            dval = dval * x + val
            val = val * x + c
        if abs(val) <= guard or step == _NEWTON_STEPS or not dval > 0.0:
            break
        x -= val / dval
    rad = (abs(val) + guard) / slope * _RADIUS_SLACK
    return (max(lo, math.nextafter(x - rad, -math.inf)),
            min(hi, math.nextafter(x + rad, math.inf)))


def bisect_largest_root(poly: IntPoly, lo: float, hi: float) -> RootBracket:
    """Bisection on a bracket with poly(lo) < 0 <= poly(hi), down to a
    width of BISECT_WIDTH, to adjacent floats, or through 200 halvings.

    The right end may itself be the root (closed bracket).  Every sign is
    proven by the module's three steps: the static guard of Higham's
    rounding bound, computed once for the whole bracket (see
    `_bracket_form`), then the running bound of `_close_sign`, then exact
    arithmetic; so an endpoint root is detected, never straddled.  The two
    ends and every midpoint that needs a value get their float Horner value
    and guard test in this frame, with no call per point.  Ends that are
    not finite, or with lo > hi, are rejected before any sign.

    The root window (a, b) of `_root_window` is where monotonicity leaves
    the sign open: p'_min > 0 on the bracket makes p increasing, and the
    mean-value radius (|p^(x)| + guard) / p'_min, widened for rounding,
    puts the root strictly inside (a, b).  A midpoint at or below a has
    sign -1 and one at or above b +1.  As lo < b and a < hi hold
    throughout, such a midpoint can only meet the end on its own side, so
    it costs one comparison with a or b and one adjacent-floats check.
    The midpoints, the stopping rule, the exact-root return and so the
    bracket are those of the bisection that evaluates every sign exactly.

    An analytic end such as a rounded square root can land on the wrong
    side of the largest root at large m, so a left end whose sign is not
    negative steps down one float, and a right end whose sign is negative
    steps up one.  One step suffices for a correctly rounded square root,
    which is within half a float of the exact one.  The guard covers both
    steps, and a stepped end takes `_signed_value`'s sign: steps occur only
    from about m = 10^8 on.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise BoundsError(f"bracket [{lo}, {hi}] has an end that is not finite")
    if lo > hi:
        raise BoundsError(f"bracket [{lo}, {hi}] is reversed")
    ic = poly.as_integer()
    fc, guard, slope = _bracket_form(ic, math.nextafter(lo, -math.inf),
                                     math.nextafter(hi, math.inf))
    v_lo = v_hi = 0.0
    for c in fc:
        v_lo = v_lo * lo + c
        v_hi = v_hi * hi + c
    s_lo = (-1 if v_lo < -guard else 1 if v_lo > guard
            else _close_sign(ic, fc, lo))
    if s_lo >= 0:
        lo = math.nextafter(lo, -math.inf)
        v_lo, s_lo = _signed_value(ic, fc, guard, lo)
    s_hi = (-1 if v_hi < -guard else 1 if v_hi > guard
            else _close_sign(ic, fc, hi))
    if s_hi < 0:
        hi = math.nextafter(hi, math.inf)
        v_hi, s_hi = _signed_value(ic, fc, guard, hi)
    if s_hi == 0:
        return RootBracket(hi, hi, poly)
    if not (s_lo < 0 < s_hi):
        raise BoundsError(
            f"bracket [{lo}, {hi}] has signs ({s_lo}, {s_hi}); expected (-, +)"
        )
    a, b = _root_window(fc, guard, slope, lo, hi, v_lo, v_hi)
    width = BISECT_WIDTH
    for _ in range(200):
        if hi - lo <= width:
            break
        mid = 0.5 * (lo + hi)
        # lo < b and a < hi hold throughout, so a midpoint at or below a can
        # meet only lo, and one at or above b only hi
        if mid <= a:
            if mid == lo:  # adjacent floats
                break
            lo = mid
        elif mid >= b:
            if mid == hi:
                break
            hi = mid
        elif not lo < mid < hi:
            break
        else:
            v = 0.0
            for c in fc:
                v = v * mid + c
            s = (-1 if v < -guard else 1 if v > guard
                 else _close_sign(ic, fc, mid))
            if s < 0:
                lo = mid
            elif s > 0:
                hi = mid
            else:
                return RootBracket(mid, mid, poly)
    return RootBracket(lo, hi, poly)


def _sqrt_end(k: int) -> float:
    """sqrt(k) as a start end of a bracket, rejected past the float range."""
    try:
        return math.sqrt(k)
    except OverflowError:
        raise BoundsError("a start end of the bracket is past the float "
                          "range") from None


@lru_cache
def beta_bracket(m: int) -> RootBracket:
    """Certified enclosure of beta(m) inside (sqrt(m-2), sqrt(m-1)];
    the right end is a root exactly at m = 5 (SK_{2,2} = C_5)."""
    if m < 5:
        raise BoundsError("beta needs m >= 5")
    return bisect_largest_root(z_poly(m), _sqrt_end(m - 2), _sqrt_end(m - 1))


def beta(m: int) -> float:
    """Largest root of Z(x); the triangle-free non-bipartite spectral bound."""
    return beta_bracket(m).value


@lru_cache
def gamma_bracket(m: int) -> RootBracket:
    """Certified enclosure of gamma(m) inside (sqrt(m-4), sqrt(m-3)];
    the right end is a root exactly at m = 7 (S_3(K_{2,2}) = C_7)."""
    if m < 7:
        raise BoundsError("gamma needs m >= 7")
    return bisect_largest_root(l_poly(m), _sqrt_end(m - 4), _sqrt_end(m - 3))


def gamma(m: int) -> float:
    """Largest root of L(x); the {C3,C5}-free non-bipartite spectral bound."""
    return gamma_bracket(m).value


def star_plus_lambda(m: int) -> float:
    """Largest root of the star-plus-edge cubic, bracketed by
    (sqrt(m-1), Cauchy bound]; always exceeds sqrt(m-1)."""
    p = star_plus_poly(m)
    lo = _sqrt_end(m - 1)
    # max |c_i| = m - 1, which forming lo already showed to be a float
    hi = 1.0 + max(abs(c) for c in p.coeffs[:-1])
    return bisect_largest_root(p, lo, hi).value


# ---------------------------------------------------------------------------
# comparison functions and identities
# ---------------------------------------------------------------------------


def f_val(m: int, x: float) -> float:
    """f(x) = (sqrt(m-2) + x) x^2, m >= 3."""
    if m < 3:
        raise BoundsError("f needs m >= 3")
    return (math.sqrt(m - 2) + x) * x * x


def g_val(m: int, x: float) -> float:
    """g(x) = (sqrt(m-4) + x) x^2, m >= 5."""
    if m < 5:
        raise BoundsError("g needs m >= 5")
    return (math.sqrt(m - 4) + x) * x * x


def f_min_on_interval(m: int, a: float, b: float) -> float:
    """min of f over [a, b] for a <= b <= 0.

    f increases on (-inf, -(2/3) sqrt(m-2)) and decreases on the rest of the
    negative axis, so the minimum over a negative interval sits at an
    endpoint."""
    if not a <= b <= 0:
        raise BoundsError("need a <= b <= 0")
    return min(f_val(m, a), f_val(m, b))


def identity_h_minus_f(a: int, m: int) -> IntPoly:
    """H - F, which collapses to (2a + 2(m-1)/a - m - 3)(x - 1) exactly.

    The linear coefficient equals -(a-2)(b-2) when m = ab + 1, so H <= F on
    x >= 1 with equality iff a = 2 or b = 2."""
    diff = h_poly(m) - f_poly(a, m)
    coef = 2 * Fraction(a) + Fraction(2 * (m - 1), a) - m - 3
    expected = IntPoly((-coef, coef))
    if diff.coeffs != expected.coeffs:
        raise AssertionError("H - F did not collapse to the linear form")
    return diff


def charpoly_identity_sk(a: int, b: int) -> bool:
    """char_poly(SK_{a,b}) == x^(a+b-4) * sk_quintic(a, b), exactly."""
    if a < 2 or b < 2:
        raise BoundsError("needs a, b >= 2")
    cp = spectra.char_poly(G.sk(a, b))
    return cp.coeffs == sk_quintic(a, b).shift_x(a + b - 4).coeffs


def charpoly_identity_sk2(m: int) -> bool:
    """char_poly(SK_{2,(m-1)/2}) == x^((m-5)/2) (x^2+x-1) Z(x) for odd m >= 5."""
    if m < 5 or m % 2 == 0:
        raise BoundsError("needs odd m >= 5")
    cp = spectra.char_poly(G.sk(2, (m - 1) // 2))
    rhs = (IntPoly((-1, 1, 1)) * z_poly(m)).shift_x((m - 5) // 2)
    return cp.coeffs == rhs.coeffs


def charpoly_identity_s3(m: int) -> bool:
    """char_poly(S_3(K_{2,(m-3)/2})) == x^((m-7)/2) L(x) for odd m >= 7."""
    if m < 7 or m % 2 == 0:
        raise BoundsError("needs odd m >= 7")
    cp = spectra.char_poly(G.s_odd(2, (m - 3) // 2, 2))
    return cp.coeffs == l_poly(m).shift_x((m - 7) // 2).coeffs


def charpoly_identity_q(a: int, b: int) -> bool:
    """char_poly(S_3(K_{a,b})) == x^(a+b-4) * q_poly(a, b), exactly."""
    cp = spectra.char_poly(G.s_odd(a, b, 2))
    return cp.coeffs == q_poly(a, b).shift_x(a + b - 4).coeffs


# ---------------------------------------------------------------------------
# pendant-attachment lemma
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PendantCase:
    case: int
    site: str
    graph6: str
    spectral_radius: float
    margin: float  # gamma(ab+4) - lambda, must be positive


@dataclass(frozen=True)
class PendantReport:
    a: int
    b: int
    m: int
    bound: float
    cases: tuple[PendantCase, ...]

    @property
    def all_below(self) -> bool:
        return all(c.margin > 0 for c in self.cases)


def lemma42_check(a: int, b: int) -> PendantReport:
    """For each of the 7 pendant attachments to S_3(K_{a,b}) (m = ab + 4),
    compare the spectral radius against gamma(m)."""
    if a < 2 or b < 2:
        raise BoundsError("needs a, b >= 2")
    m = a * b + 4
    bound = gamma(m)
    rows = []
    for case in sorted(PENDANT_SITES):
        g = pendant_case_graph(a, b, case)
        lam = spectra.spectral_radius(g)
        rows.append(PendantCase(
            case=case,
            site=PENDANT_SITES[case],
            graph6=G.canonical_form(g).decode(),
            spectral_radius=lam,
            margin=bound - lam,
        ))
    return PendantReport(a=a, b=b, m=m, bound=bound, cases=tuple(rows))
