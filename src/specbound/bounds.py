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
   see `_close_signs`).  Near a root that bound is far below the guard;
3. exact: otherwise the sign is computed over the integers.

The bisection is one row kernel, `_bisect_rows`, that runs on NumPy
float64 arrays with one row per bracket, each row with its own stops.  All
its signs, at the ends, at the one-float end steps and at the midpoints,
come from `_signs`: it takes the first step for every point at once, the
vectorized running bound of `_close_signs` takes the second for the points
still open, and `_dyadic_sign` the third for each point still undecided.
NumPy's float64 operations round as Python's floats do, and the kernel
performs on each row the operations of a scalar bisection, in the same
order, so a row's bracket does not depend on the rows beside it.
`bisect_largest_root` is the kernel's one-row call.  beta and gamma read
their ends through `_family_ends`: a row of the cached block of 1,024
aligned m that holds m (`_block`), whose coefficient rows come from the
families' formulas, affine in m.  `beta` and `gamma` return the midpoint
of those ends and build no `RootBracket`; `beta_bracket` and
`gamma_bracket` wrap the same ends in one.

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

For beta and gamma at m <= 10^4 (19,990 brackets, read from 20 blocks) the
static guard leaves 10,461 signs open, and the running bound all but 589
of them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from . import graphs as G
from . import spectra
from .spectra import IntPoly

import numpy as np  # after spectra, which loads it with one BLAS thread

BISECT_WIDTH = 1e-12
_EXACT_INT = 2 ** 53  # integers of smaller magnitude are exact doubles
_UNIT_ROUNDOFF = 2.0 ** -53
# from the regula-falsi point Newton reaches the guard in one step for 95%
# of the beta/gamma brackets at m <= 10^4 and in three at most; the cap only
# bounds the work on a bracket where it does not converge
_NEWTON_STEPS = 8
_RADIUS_SLACK = 1.0 + 2.0 ** -50  # covers the two roundings of the radius
# rows of a cached block of beta or gamma brackets (see `_block`)
_BLOCK_ROWS = 1024


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
        return _midpoint(self.lo, self.hi)

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


def _midpoint(lo: float, hi: float) -> float:
    """The value of a bracket [lo, hi]: its midpoint, or the root itself
    when it was hit (lo == hi)."""
    return hi if lo == hi else 0.5 * (lo + hi)


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


# The row kernel.  Its functions take one row per bracket: fc holds a
# row's float coefficients, highest degree first, exact doubles or all NaN
# (no float form, so every sign is exact), and `exact(i)` gives row i's
# integer coefficients, little-endian, for `_dyadic_sign`.
_Exact = Callable[[int], tuple[int, ...]]


def _float_row(ic: tuple[int, ...]) -> np.ndarray:
    """One row of float coefficients for the integer polynomial ic: exact
    when every |c_i| < 2^53, else NaN."""
    if max(map(abs, ic)) < _EXACT_INT:
        return np.array([ic[::-1]], dtype=float)
    return np.full((1, len(ic)), np.nan)


def _bracket_form(fc: np.ndarray, lo: np.ndarray, hi: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each row, with [lo, hi] its interval: the row of fc, or NaN when
    it has no float form, the guard of Horner's rule at any float x in
    [lo, hi], and, from the same pass over the coefficients, p'_min: a lower
    bound on p' over [lo, hi], or -inf when lo <= 0 or the form is NaN.

    With r = max(1, |lo|, |hi|) and scale = sum |c_i| r^i, the float Horner
    value at such an x is within gamma_2d * scale of the exact value
    (Higham, eq. (5.3)), and guard = 4 (d+1) u * scale exceeds that even
    after the rounding of scale itself.  A float value beyond the guard
    decides the sign; anything else goes on to `_close_signs`.  When a
    coefficient is not an exact double (a NaN row), or scale might
    overflow, the form is NaN and the guard infinite, so every sign is
    exact.

    For lo > 0, p'(x) >= P+'(lo) + P-'(hi) on [lo, hi], where P+ and P- hold
    the positive and the negative terms of p.  Their float Horner
    derivatives sum terms of one sign, so each is within gamma_2d of its
    exact value, and |P+'| + |P-'| <= sum i |c_i| r^(i-1) <= d * scale / r.
    Subtracting 2d * guard / r = 8 d (d+1) u * scale / r covers that error
    and the rounding of the subtraction, so p'_min never exceeds the exact
    bound.  It may be NaN or infinite after an overflow; `_root_windows`
    then proves no window."""
    r = np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    scale = pos = dpos = neg = dneg = np.zeros(len(fc))
    for c in fc.T:
        scale = scale * r + np.abs(c)
        dpos = dpos * lo + pos
        dneg = dneg * hi + neg
        # a term of the other sign adds 0.0, which changes no nonzero value
        up = c > 0.0
        pos = pos * lo + np.where(up, c, 0.0)
        neg = neg * hi + np.where(up, 0.0, c)
    d = fc.shape[1] - 1
    # Horner intermediates stay below about scale, so a finite 2*scale also
    # rules out overflow in the evaluation.
    form = np.isfinite(2.0 * scale)
    guard = np.where(form, 4 * (d + 1) * _UNIT_ROUNDOFF * scale, np.inf)
    slope = np.where(form & (lo > 0.0), dpos + dneg - 2 * d * guard / r,
                     -np.inf)
    return np.where(form[:, None], fc, np.nan), guard, slope


def _signs(fc: np.ndarray, guard: np.ndarray, exact: _Exact,
           rows: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float Horner values of the given rows at their x and the proven
    signs: from the value where it lies beyond the row's static guard
    (fc, guard from `_bracket_form` on an interval holding x), else from
    `_close_signs`.  The one place a sign is decided."""
    f = fc[rows]
    v = f[:, 0]
    for c in f.T[1:]:
        v = v * x + c
    s = np.where(v > 0.0, 1, -1)
    near = ~(np.abs(v) > guard[rows])  # never beyond an infinite guard
    if near.any():
        s[near] = _close_signs(f[near], exact, rows[near], x[near])
    return v, s


def _close_signs(f: np.ndarray, exact: _Exact, rows: np.ndarray,
                 x: np.ndarray) -> np.ndarray:
    """Proven signs of the polynomials with float coefficients f at x,
    where the float Horner value lies within the static guard: from a
    running error bound when that decides it, else exactly by
    `_dyadic_sign` on exact(row).

    Horner's rule computes t_k = fl(y_(k+1) x) and y_k = fl(t_k + c_k), and
    each rounding obeys |fl(z) - z| <= u |fl(z)| while no result is
    subnormal, so |y_0 - p(x)| <= u sum_(k<d) |x|^k (|t_k| + |y_k|) to all
    orders (Higham, section 5.1, Algorithm 5.1).  That sum has nonnegative
    terms, so its float value mu falls short by at most (1+u)^(2d), and the
    product u mu (1 + 2(2d+1)u) rounds to at least the exact bound.  The
    bound is used only at |x| >= 1: with integer c_k no nonzero y_k is below
    2^-53 (a cancelling sum t + c is exact, a multiple of ulp(c) or ulp(t)
    with |t| >= |c|/2 >= 1/2), and no product with |x| >= 1 shrinks, so no
    intermediate is subnormal.  A smaller |x|, a NaN row, or a bound that
    is not finite leaves the sign to `_dyadic_sign`."""
    ax = np.abs(x)
    y = f[:, 0]
    mu = np.zeros(len(x))
    for c in f.T[1:]:
        t = y * x
        y = t + c
        mu = mu * ax + (np.abs(t) + np.abs(y))
    d = f.shape[1] - 1
    slack = _UNIT_ROUNDOFF * (1.0 + (4 * d + 2) * _UNIT_ROUNDOFF)  # exact
    s = np.where(y > 0.0, 1, -1)
    # never decided when mu is nan or inf
    for j in np.nonzero(~((ax >= 1.0) & (np.abs(y) > mu * slack)))[0]:
        s[j] = _dyadic_sign(exact(rows[j]), float(x[j]))
    return s


def _root_windows(fc: np.ndarray, guard: np.ndarray, slope: np.ndarray,
                  lo: np.ndarray, hi: np.ndarray, v_lo: np.ndarray,
                  v_hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) with lo <= a < r < b <= hi for the root r of each row's p on
    a bracket with p(lo) < 0 < p(hi), given (fc, guard, slope) from
    `_bracket_form` on an interval holding [lo, hi] and the float values
    v_lo, v_hi of p at the ends.  A row with no proof of monotonicity gets
    (lo, hi).

    Newton steps from the regula-falsi point stop, row by row, once
    |p^(x)| is within the guard; x only ever picks the window's centre, and
    the radius (|p^(x)| + guard) / slope holds for any x in [lo, hi]."""
    a, b = lo.copy(), hi.copy()
    mono = np.nonzero((0.0 < slope) & (slope < np.inf))[0]
    if not mono.size:
        return a, b
    fc, guard, slope, lo, hi, v_lo, v_hi = (
        arr[mono] for arr in (fc, guard, slope, lo, hi, v_lo, v_hi))
    # the end values may sit inside the guard band with either float sign
    x = np.where((v_lo < 0.0) & (0.0 < v_hi),
                 lo - v_lo * (hi - lo) / (v_hi - v_lo), hi)
    val = np.empty(len(x))
    live = np.arange(len(x))  # the rows still taking Newton steps
    for step in range(_NEWTON_STEPS + 1):
        xl, l, h = x[live], lo[live], hi[live]
        xl = np.where(xl < l, l, np.where(xl > h, h, xl))
        v = dv = np.zeros(len(live))
        for c in fc[live].T:
            dv = dv * xl + v
            v = v * xl + c
        x[live], val[live] = xl, v
        if step == _NEWTON_STEPS:
            break
        go = (np.abs(v) > guard[live]) & (dv > 0.0)
        live = live[go]
        if not live.size:
            break
        x[live] -= v[go] / dv[go]
    rad = (np.abs(val) + guard) / slope * _RADIUS_SLACK
    left = np.nextafter(x - rad, -np.inf)
    right = np.nextafter(x + rad, np.inf)
    a[mono] = np.where(left > lo, left, lo)
    b[mono] = np.where(right < hi, right, hi)
    return a, b


def _bisect_rows(fc: np.ndarray, exact: _Exact, lo: np.ndarray,
                 hi: np.ndarray) -> tuple[list[float], list[float]]:
    """The row kernel: for each row a bisection of its bracket, with
    p(lo) < 0 <= p(hi), down to a width of BISECT_WIDTH, to adjacent
    floats, or through 200 halvings; lo == hi where the root was hit.

    The right end may itself be the root (closed bracket).  Every sign is
    proven by the module's three steps, through `_signs`: the static guard
    of Higham's rounding bound, computed once for each row's whole bracket
    (see `_bracket_form`), then the running bound of `_close_signs`, then
    exact arithmetic; so an endpoint root is detected, never straddled.
    Ends that are not finite, or with lo > hi, are rejected before any
    sign.

    The root window (a, b) of `_root_windows` is where monotonicity leaves
    the sign open: p'_min > 0 on the bracket makes p increasing, and the
    mean-value radius (|p^(x)| + guard) / p'_min, widened for rounding,
    puts the root strictly inside (a, b).  A midpoint at or below a has
    sign -1 and one at or above b +1, with no evaluation.  Each row stops
    by the rules of the bisection that evaluates every sign exactly: its
    width, adjacent floats (a midpoint not strictly inside), the cap, or a
    sign 0.  So its midpoints, its exact-root return and its bracket are
    that bisection's.

    An analytic end such as a rounded square root can land on the wrong
    side of the largest root at large m, so a left end whose sign is not
    negative steps down one float, and a right end whose sign is negative
    steps up one.  One step suffices for a correctly rounded square root,
    which is within half a float of the exact one.  The guard covers both
    steps: steps occur only from about m = 10^8 on.
    """
    bad = np.nonzero(~(np.isfinite(lo) & np.isfinite(hi)))[0]
    if bad.size:
        i = bad[0]
        raise BoundsError(f"bracket [{float(lo[i])}, {float(hi[i])}] has an "
                          "end that is not finite")
    bad = np.nonzero(lo > hi)[0]
    if bad.size:
        i = bad[0]
        raise BoundsError(f"bracket [{float(lo[i])}, {float(hi[i])}] is "
                          "reversed")
    with np.errstate(all="ignore"):  # overflow and NaN rows go exact
        fc, guard, slope = _bracket_form(fc, np.nextafter(lo, -np.inf),
                                         np.nextafter(hi, np.inf))
        rows = np.arange(len(lo))
        v_lo, s_lo = _signs(fc, guard, exact, rows, lo)
        step = np.nonzero(s_lo >= 0)[0]
        if step.size:
            lo = lo.copy()
            lo[step] = np.nextafter(lo[step], -np.inf)
            v_lo[step], s_lo[step] = _signs(fc, guard, exact, step, lo[step])
        v_hi, s_hi = _signs(fc, guard, exact, rows, hi)
        step = np.nonzero(s_hi < 0)[0]
        if step.size:
            hi = hi.copy()
            hi[step] = np.nextafter(hi[step], np.inf)
            v_hi[step], s_hi[step] = _signs(fc, guard, exact, step, hi[step])
        hit = s_hi == 0
        bad = np.nonzero(~hit & ~((s_lo < 0) & (s_hi > 0)))[0]
        if bad.size:
            i = bad[0]
            raise BoundsError(
                f"bracket [{float(lo[i])}, {float(hi[i])}] has signs "
                f"({s_lo[i]}, {s_hi[i]}); expected (-, +)")
        out_lo, out_hi = np.where(hit, hi, lo), hi.copy()
        live = np.nonzero(~hit)[0]  # the rows still bisecting
        a, b = _root_windows(*(arr[live] for arr in (fc, guard, slope, lo, hi,
                                                     v_lo, v_hi)))
        lo, hi = lo[live], hi[live]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            stop = (hi - lo <= BISECT_WIDTH) | (mid <= lo) | (mid >= hi)
            if stop.any():
                out_lo[live[stop]], out_hi[live[stop]] = lo[stop], hi[stop]
                go = ~stop
                live, lo, hi, a, b, mid = (
                    arr[go] for arr in (live, lo, hi, a, b, mid))
                if not live.size:
                    break
            # lo < b and a < hi hold throughout, so lo < mid <= a and
            # b <= mid < hi have the signs -1 and +1
            up = mid > a
            need = np.nonzero(up & (mid < b))[0]
            if need.size:
                s = _signs(fc, guard, exact, live[need], mid[need])[1]
                up[need] = s > 0
            lo = np.where(up, lo, mid)
            hi = np.where(up, mid, hi)
            if need.size:
                # sign 0 is an exact hit: both ends move to the root, and
                # the width 0 stops the row
                hit = need[s == 0]
                hi[hit] = mid[hit]
        out_lo[live], out_hi[live] = lo, hi
    return out_lo.tolist(), out_hi.tolist()


def bisect_largest_root(poly: IntPoly, lo: float, hi: float) -> RootBracket:
    """Bisection on a bracket with poly(lo) < 0 <= poly(hi): the one-row
    call of the row kernel `_bisect_rows`, which gives its stopping rules,
    sign proofs and end steps."""
    ic = poly.as_integer()
    (lo,), (hi,) = _bisect_rows(_float_row(ic), lambda i: ic,
                                np.array([lo], dtype=float),
                                np.array([hi], dtype=float))
    return RootBracket(lo, hi, poly)


def _sqrt_end(k: int) -> float:
    """sqrt(k) as a start end of a bracket, rejected past the float range."""
    try:
        return math.sqrt(k)
    except OverflowError:
        raise BoundsError("a start end of the bracket is past the float "
                          "range") from None


@dataclass(frozen=True, eq=False)
class _Family:
    """A bracketed family: the name of its root, its polynomial, for
    m >= least, with the largest root in (sqrt(m-k), sqrt(m-k+1)], and its
    float coefficients, highest degree first, as base + m * step, each
    affine in m."""

    name: str
    least: int
    k: int
    poly: Callable[[int], IntPoly]
    base: tuple[int, ...]
    step: tuple[int, ...]


_BETA = _Family("beta", 5, 2, z_poly, (1, -1, 2, -3), (0, 0, -1, 1))
_GAMMA = _Family("gamma", 7, 4, l_poly, (1, 0, 0, 0, -14, 0, 14, 5),
                 (0, 0, -1, 0, 4, 0, -3, -1))


def _family_brackets(fam: _Family, ms: np.ndarray
                     ) -> tuple[list[float], list[float]]:
    """The family's bracket ends for each m of the float array ms, with
    every 4m < 2^53, so that each coefficient is an exact double: the rows
    are built from the affine formulas and bisected in one kernel call."""
    fc = np.add(fam.base, np.multiply.outer(ms, fam.step))
    return _bisect_rows(fc, lambda i: fam.poly(int(ms[i])).coeffs,
                        np.sqrt(ms - fam.k), np.sqrt(ms - (fam.k - 1)))


@lru_cache(maxsize=4)
def _block(fam: _Family, start: int) -> tuple[list[float], list[float]]:
    """The family's bracket ends for m in [max(start, fam.least), start +
    _BLOCK_ROWS); start is a multiple of _BLOCK_ROWS, so a scan over m
    bisects each aligned block once."""
    return _family_brackets(
        fam, np.arange(max(start, fam.least), start + _BLOCK_ROWS,
                       dtype=float))


def _family_m(fam: _Family, m: int) -> int:
    """m as an int (any integer type, never a float), checked against the
    family's least m."""
    m = operator.index(m)
    if m < fam.least:
        raise BoundsError(f"{fam.name} needs m >= {fam.least}")
    return m


def _family_ends(fam: _Family, m: int) -> tuple[float, float]:
    """The ends of the family's certified bracket at an int m >= fam.least:
    a row of the aligned block holding m, or, for an m whose coefficients
    are not all exact doubles (4m >= 2^53), a bisection of its own."""
    if 4 * m >= _EXACT_INT:
        rb = bisect_largest_root(fam.poly(m), _sqrt_end(m - fam.k),
                                 _sqrt_end(m - fam.k + 1))
        return rb.lo, rb.hi
    start = m - m % _BLOCK_ROWS
    lo, hi = _block(fam, start)
    i = m - max(start, fam.least)
    return lo[i], hi[i]


@lru_cache(typed=True)  # so that a float m misses, and is rejected
def beta_bracket(m: int) -> RootBracket:
    """Certified enclosure of beta(m) inside (sqrt(m-2), sqrt(m-1)];
    the right end is a root exactly at m = 5 (SK_{2,2} = C_5)."""
    m = _family_m(_BETA, m)
    return RootBracket(*_family_ends(_BETA, m), z_poly(m))


def beta(m: int) -> float:
    """Largest root of Z(x); the triangle-free non-bipartite spectral bound,
    read from the bracket's ends without building a `RootBracket`."""
    return _midpoint(*_family_ends(_BETA, _family_m(_BETA, m)))


@lru_cache(typed=True)  # so that a float m misses, and is rejected
def gamma_bracket(m: int) -> RootBracket:
    """Certified enclosure of gamma(m) inside (sqrt(m-4), sqrt(m-3)];
    the right end is a root exactly at m = 7 (S_3(K_{2,2}) = C_7)."""
    m = _family_m(_GAMMA, m)
    return RootBracket(*_family_ends(_GAMMA, m), l_poly(m))


def gamma(m: int) -> float:
    """Largest root of L(x); the {C3,C5}-free non-bipartite spectral bound,
    read from the bracket's ends without building a `RootBracket`."""
    return _midpoint(*_family_ends(_GAMMA, _family_m(_GAMMA, m)))


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
