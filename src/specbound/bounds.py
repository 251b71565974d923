"""Exact polynomial families, certified largest-root brackets, and the
comparison identities behind the extremal spectral bounds.

beta(m) and gamma(m) are the largest roots of

    Z(x) = x^3 - x^2 - (m-2) x + (m-3)
    L(x) = x^7 - m x^5 + (4m-14) x^3 - (3m-14) x - m + 5

and are the maximum spectral radii over m-edge triangle-free non-bipartite
graphs and {C3,C5}-free non-bipartite graphs respectively.  Both come with
analytic sign-change brackets, which bisection turns into certified
enclosures; endpoint signs can be re-verified in exact integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import graphs as G
from . import spectra

BISECT_WIDTH = 1e-12
_REL_GUARD = 1e-9  # switch to exact sign when |float value| falls below guard*scale


class BoundsError(ValueError):
    pass


# ---------------------------------------------------------------------------
# exact polynomials (little-endian coefficient tuples)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntPoly:
    """Dense univariate polynomial with exact int or Fraction coefficients,
    coeffs[i] multiplying x**i."""

    coeffs: tuple

    def __post_init__(self):
        c = list(self.coeffs) or [0]
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(tuple(out))

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly(tuple(out))

    def shift_x(self, k: int) -> "IntPoly":
        """Multiply by x**k."""
        return IntPoly((0,) * k + self.coeffs)

    def strip_x(self) -> tuple["IntPoly", int]:
        """Factor out the largest power of x; returns (quotient, power)."""
        k = 0
        c = self.coeffs
        while k < len(c) - 1 and c[k] == 0:
            k += 1
        return IntPoly(c[k:]), k

    def as_integer(self) -> tuple[int, ...]:
        """Coefficients scaled by a positive common denominator."""
        den = 1
        for c in self.coeffs:
            if isinstance(c, Fraction):
                den = den * c.denominator // math.gcd(den, c.denominator)
        return tuple(int(c * den) for c in self.coeffs)


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
    cp = spectra.char_poly(pendant_case_graph(a, b, case))
    factor, _ = IntPoly(cp.coeffs).strip_x()
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


@dataclass(frozen=True)
class RootBracket:
    """Interval certified (by a sign change) to contain the largest real root
    of `poly`.  lo == hi means the root was hit exactly."""

    lo: float
    hi: float
    poly: IntPoly
    width_target: float

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


def _dyadic_sign(coeffs: tuple[int, ...], x: float) -> int:
    """Exact sign of an integer polynomial at a float (a dyadic rational)."""
    num, den = float(x).as_integer_ratio()
    acc = coeffs[-1]
    dp = 1
    for c in reversed(coeffs[:-1]):
        dp *= den
        acc = acc * num + c * dp
    return (acc > 0) - (acc < 0)


def _sign_at(coeffs_int: tuple[int, ...], x: float, scale: float) -> int:
    val = 0.0
    for c in reversed(coeffs_int):
        val = val * x + c
    if abs(val) > _REL_GUARD * scale:
        return 1 if val > 0 else -1
    return _dyadic_sign(coeffs_int, x)


def bisect_largest_root(poly: IntPoly, lo: float, hi: float,
                        width: float = BISECT_WIDTH) -> RootBracket:
    """Bisection on a bracket with poly(lo) < 0 <= poly(hi).

    The right end may itself be the root (closed bracket).  Signs near zero
    are resolved exactly, so an endpoint root is detected, never straddled.
    """
    ic = poly.as_integer()
    scale = sum(abs(c) * max(1.0, abs(hi)) ** i for i, c in enumerate(ic))
    s_lo = _sign_at(ic, lo, scale)
    s_hi = _sign_at(ic, hi, scale)
    if s_hi == 0:
        return RootBracket(hi, hi, poly, width)
    if not (s_lo < 0 < s_hi):
        raise BoundsError(
            f"bracket [{lo}, {hi}] has signs ({s_lo}, {s_hi}); expected (-, +)"
        )
    for _ in range(200):
        if hi - lo <= width:
            break
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # adjacent floats
        s = _sign_at(ic, mid, scale)
        if s == 0:
            return RootBracket(mid, mid, poly, width)
        if s < 0:
            lo = mid
        else:
            hi = mid
    return RootBracket(lo, hi, poly, width)


@lru_cache(maxsize=None)
def beta_bracket(m: int) -> RootBracket:
    """Certified enclosure of beta(m) inside (sqrt(m-2), sqrt(m-1)];
    the right end is a root exactly at m = 5 (SK_{2,2} = C_5)."""
    if m < 5:
        raise BoundsError("beta needs m >= 5")
    return bisect_largest_root(z_poly(m), math.sqrt(m - 2), math.sqrt(m - 1))


def beta(m: int) -> float:
    """Largest root of Z(x); the triangle-free non-bipartite spectral bound."""
    return beta_bracket(m).value


@lru_cache(maxsize=None)
def gamma_bracket(m: int) -> RootBracket:
    """Certified enclosure of gamma(m) inside (sqrt(m-4), sqrt(m-3)];
    the right end is a root exactly at m = 7 (S_3(K_{2,2}) = C_7)."""
    if m < 7:
        raise BoundsError("gamma needs m >= 7")
    return bisect_largest_root(l_poly(m), math.sqrt(m - 4), math.sqrt(m - 3))


def gamma(m: int) -> float:
    """Largest root of L(x); the {C3,C5}-free non-bipartite spectral bound."""
    return gamma_bracket(m).value


def star_plus_lambda(m: int) -> float:
    """Largest root of the star-plus-edge cubic, bracketed by
    (sqrt(m-1), Cauchy bound]; always exceeds sqrt(m-1)."""
    p = star_plus_poly(m)
    hi = 1.0 + max(abs(c) for c in p.coeffs[:-1])
    return bisect_largest_root(p, math.sqrt(m - 1), hi).value


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
            graph6=G.to_graph6(G.canonical_graph(g)),
            spectral_radius=lam,
            margin=bound - lam,
        ))
    return PendantReport(a=a, b=b, m=m, bound=bound, cases=tuple(rows))
