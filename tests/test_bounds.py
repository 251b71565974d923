import copy
import importlib
import math
import pickle
import pkgutil
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import specbound
from specbound import bounds
from specbound.bounds import (
    BISECT_WIDTH,
    BoundsError,
    E_DISPLAYED_CASE,
    IntPoly,
    PENDANT_SITES,
    RootBracket,
    _bracket_form,
    _close_signs,
    _dyadic_sign,
    _float_row,
    _root_windows,
    _signs,
    _sqrt_sign,
    beta,
    beta_bracket,
    bisect_largest_root,
    charpoly_identity_q,
    charpoly_identity_s3,
    charpoly_identity_sk,
    charpoly_identity_sk2,
    e_poly,
    e_poly_closed,
    f_min_on_interval,
    f_poly,
    f_val,
    g_val,
    gamma,
    gamma_bracket,
    h_poly,
    identity_h_minus_f,
    l_poly,
    lemma42_check,
    pendant_case_graph,
    q_poly,
    sk_quintic,
    star_plus_lambda,
    star_plus_poly,
    z_poly,
)
from specbound.graphs import cycle, sk, s_odd, star_plus_edge, is_connected
from specbound.spectra import char_poly, eigenvalues, spectral_radius

from conftest import random_graph


class TestPolyFamilies:
    def test_z_at_m5(self):
        assert z_poly(5).coeffs == (2, -3, -1, 1)

    def test_h_is_product(self):
        for m in (3, 4, 5, 10, 57, 200):
            prod = IntPoly((-1, 1, 1)) * z_poly(m)
            assert h_poly(m).coeffs == prod.coeffs

    def test_l_at_m7(self):
        assert l_poly(7).coeffs == (-2, -7, 0, 14, 0, -7, 0, 1)

    def test_l_largest_root_at_7_is_two(self):
        assert l_poly(7)(2) == 0

    def test_domain_checks(self):
        with pytest.raises(BoundsError):
            z_poly(2)
        with pytest.raises(BoundsError):
            l_poly(6)
        with pytest.raises(BoundsError):
            f_poly(1, 9)

    def test_f_poly_matches_sk_quintic_when_divisible(self):
        for a, b in ((2, 4), (3, 4), (4, 5)):
            m = a * b + 1
            assert f_poly(a, m).coeffs == tuple(
                Fraction(c) for c in sk_quintic(a, b).coeffs
            )

    def test_int_polynomial_is_its_own_integer_form(self):
        for p in (z_poly(9), l_poly(101), IntPoly((-1, 0, 1))):
            assert p.as_integer() is p.coeffs

    def test_fraction_polynomial_scales_to_ints(self):
        assert f_poly(3, 10).as_integer() == (-8, 16, 0, -10, 0, 1)
        # (m-1)/a = 9/2: x^5 - 10x^3 + 31/2 x - 15/2, times 2
        assert f_poly(4, 10).as_integer() == (-15, 31, 0, -20, 0, 2)
        for p in (f_poly(3, 10), f_poly(4, 10)):
            assert all(type(c) is int for c in p.as_integer())

    def test_normal_form(self):
        t = (3, 0, -2)
        assert IntPoly(t).coeffs is t
        assert IntPoly([1, 2, 0]).coeffs == (1, 2)
        assert type(IntPoly([1, 2, 0]).coeffs) is tuple
        assert IntPoly((1, 0, 0)).coeffs == (1,)
        assert IntPoly((0, 0)).coeffs == (0,)
        assert IntPoly(()).coeffs == (0,)
        assert IntPoly([]).coeffs == (0,)
        assert IntPoly((Fraction(1, 2), Fraction(0))).coeffs == (
            Fraction(1, 2),)
        assert IntPoly([0, 1]) == IntPoly((0, 1))

    def test_intpoly_arith(self):
        p = IntPoly((1, 2)) * IntPoly((3, 4))  # (1+2x)(3+4x) = 3+10x+8x^2
        assert p.coeffs == (3, 10, 8)
        assert (p - p).coeffs == (0,)
        assert p.shift_x(2).strip_x() == (p, 2)
        assert p(2) == 3 + 20 + 32


class TestBeta:
    def test_beta5_is_lambda_c5(self):
        assert beta(5) == 2.0
        assert spectral_radius(cycle(5)) == pytest.approx(2.0, abs=1e-9)

    def test_beta9_matches_eigensolver(self):
        assert beta(9) == pytest.approx(spectral_radius(sk(2, 4)), abs=1e-9)

    def test_odd_m_matches_extremal_graph(self):
        for m in range(5, 26, 2):
            lam = spectral_radius(sk(2, (m - 1) // 2))
            assert beta(m) == pytest.approx(lam, abs=1e-8)

    def test_bracket_inequalities(self):
        for m in range(6, 250):
            b = beta(m)
            assert math.sqrt(m - 2) < b < math.sqrt(m - 1)

    def test_gap_closes(self):
        assert beta(10 ** 6) - math.sqrt(10 ** 6 - 2) < 1e-2

    def test_bracket_certificate(self):
        for m in (5, 6, 11, 47, 501):
            assert beta_bracket(m).verify_signs_exact()

    def test_domain(self):
        with pytest.raises(BoundsError):
            beta(4)

    def test_start_ends_past_the_float_range(self):
        with pytest.raises(BoundsError, match="float range"):
            beta_bracket(10 ** 400)
        with pytest.raises(BoundsError, match="float range"):
            star_plus_lambda(10 ** 400)


class TestGamma:
    def test_gamma7_is_two_exactly(self):
        assert gamma(7) == 2.0

    def test_gamma9_matches_eigensolver(self):
        assert gamma(9) == pytest.approx(spectral_radius(s_odd(2, 3, 2)), abs=1e-9)

    def test_odd_m_matches_extremal_graph(self):
        for m in range(7, 26, 2):
            lam = spectral_radius(s_odd(2, (m - 3) // 2, 2))
            assert gamma(m) == pytest.approx(lam, abs=1e-8)

    def test_bracket_inequalities(self):
        for m in range(7, 250):
            c = gamma(m)
            assert math.sqrt(m - 4) < c <= math.sqrt(m - 3)
            if m > 7:
                assert c < math.sqrt(m - 3)

    def test_bracket_certificate(self):
        for m in (7, 8, 13, 64, 333):
            assert gamma_bracket(m).verify_signs_exact()

    def test_beta_dominates_gamma(self):
        for m in range(7, 60):
            assert gamma(m) < beta(m)

    def test_domain(self):
        with pytest.raises(BoundsError):
            gamma(6)

    def test_start_ends_past_the_float_range(self):
        with pytest.raises(BoundsError, match="float range"):
            gamma_bracket(10 ** 400)


class TestBracketCache:
    """The bracket caches keep the most recent values of m, not every m a
    process has asked for."""

    def test_scan_over_m_holds_no_bracket_per_m(self):
        ms = range(3 * 10 ** 7, 3 * 10 ** 7 + 3000)  # asked for nowhere else
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for m in ms:
                beta(m)
                gamma(m)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 2 ** 20, held

    def test_every_cache_in_the_package_is_bounded(self):
        modules = [specbound] + [
            importlib.import_module(f"specbound.{info.name}")
            for info in pkgutil.iter_modules(specbound.__path__)
            if info.name != "__main__"  # importing it runs the CLI
        ]
        sizes = {
            (module.__name__, name): obj.cache_info().maxsize
            for module in modules
            for name, obj in vars(module).items()
            if hasattr(obj, "cache_info")
        }
        assert {"beta_bracket", "gamma_bracket", "eigenvalues",
                "_canonical_labelling"} <= {name for _, name in sizes}
        assert all(size is not None for size in sizes.values()), sizes


class TestValuePath:
    """beta and gamma read the bracket's ends with no RootBracket and no
    bracket cache entry; the value must be the bracket's, bit for bit."""

    @pytest.mark.parametrize("m", [5, 7, 9, 10, 1023, 1024, 1025, 2047,
                                   2048, 10 ** 8 + 7, 2 ** 51, 10 ** 20])
    def test_value_equals_the_bracket_value(self, m):
        pairs = [(beta, beta_bracket)] + [(gamma, gamma_bracket)] * (m >= 7)
        for value, bracket in pairs:
            want = bracket.__wrapped__(m).value  # bypass the bracket cache
            assert value(m).hex() == want.hex(), (bracket.__name__, m)

    def test_a_scan_adds_no_bracket_cache_entry(self):
        before = beta_bracket.cache_info(), gamma_bracket.cache_info()
        for m in range(7, 3001):
            beta(m)
            gamma(m)
        assert (beta_bracket.cache_info(), gamma_bracket.cache_info()) == before

    @pytest.mark.parametrize("value, bracket", [(beta, beta_bracket),
                                                (gamma, gamma_bracket)])
    def test_numpy_integers_are_their_int(self, value, bracket):
        for m in (9, 1030):
            for other in (np.int64(m), np.int32(m), np.uint16(m)):
                assert value(other).hex() == value(m).hex()
                assert bracket(other) == bracket(m)
                assert type(bracket(other).poly.coeffs[0]) is int

    @pytest.mark.parametrize("value, bracket", [(beta, beta_bracket),
                                                (gamma, gamma_bracket)])
    def test_a_float_m_is_rejected_before_any_work(self, value, bracket):
        bracket(9)  # a float equal to a cached m must still miss
        bounds._block.cache_clear()
        for f in (value, bracket):
            for m in (9.0, 1e20, float("nan")):
                with pytest.raises(TypeError):
                    f(m)
        assert bounds._block.cache_info().currsize == 0

    def test_the_domain_messages(self):
        for f in (beta, beta_bracket):
            for m in (4, np.int64(4), -10 ** 30):
                with pytest.raises(BoundsError, match=r"^beta needs m >= 5$"):
                    f(m)
        for f in (gamma, gamma_bracket):
            for m in (6, np.int64(6), 0):
                with pytest.raises(BoundsError,
                                   match=r"^gamma needs m >= 7$"):
                    f(m)


class TestRootBetweenSqrts:
    """`RootBracket.root_between_sqrts(s, t)` decides sqrt(s) < r <= sqrt(t)
    in integers, for the root r the bracket certifies."""

    def test_exact_hits(self):
        beta5, gamma7 = beta_bracket(5), gamma_bracket(7)
        assert beta5.lo == beta5.hi == gamma7.lo == gamma7.hi == 2.0
        assert beta5.root_between_sqrts(3, 4)  # beta(5) = 2 = sqrt(4)
        assert not beta5.root_between_sqrts(4, 5)  # not above sqrt(4)
        assert gamma7.root_between_sqrts(3, 4)
        assert not gamma7.root_between_sqrts(2, 3)  # above sqrt(3)

    def test_bracket_ends_on_square_roots(self):
        x_minus_3 = RootBracket(2.0, 3.5, IntPoly((-3, 1)))
        assert x_minus_3.root_between_sqrts(4, 16)  # lo = sqrt(4) < r
        assert x_minus_3.root_between_sqrts(1, 9)  # r = sqrt(9) inside
        assert not x_minus_3.root_between_sqrts(1, 8)
        assert not x_minus_3.root_between_sqrts(9, 16)
        x2_minus_5 = RootBracket(2.0, 2.5, IntPoly((-5, 0, 1)))
        assert not x2_minus_5.root_between_sqrts(1, 4)  # lo = sqrt(4) < r
        x2_minus_7 = RootBracket(2.5, 3.0, IntPoly((-7, 0, 1)))
        assert x2_minus_7.root_between_sqrts(6, 9)  # hi = sqrt(9) >= r

    @pytest.mark.parametrize("m", [7, 100, 284281998, 10 ** 12])
    def test_gamma_outside_beta_window(self, m):
        assert not gamma_bracket(m).root_between_sqrts(m - 2, m - 1)

    @pytest.mark.parametrize("bracket, m, window", [
        (gamma_bracket, 284281998, (4, 3)),
        (beta_bracket, 10 ** 12, (2, 1)),
        (gamma_bracket, 10 ** 12, (4, 3)),
    ])
    def test_float_square_roots_cannot_decide(self, bracket, m, window):
        """The left end is the rounded sqrt(s) itself, so floats cannot
        tell whether the root lies above sqrt(s); integers can."""
        s, t = m - window[0], m - window[1]
        rb = bracket(m)
        assert rb.lo == math.sqrt(s)
        assert rb.root_between_sqrts(s, t)

    def test_sqrt_sign_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(11)
        cases = [((-1, 0, 1), 1), ((-2, 0, 1), 2), ((0, 1), 0), ((3,), 5)]
        for _ in range(300):
            coeffs = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 8)))
            cases.append((coeffs, rng.choice([0, 1, 2, 3, 4, 8, 9, 50])))
        for coeffs, s in cases:
            value = sum(c * sympy.sqrt(s) ** i for i, c in enumerate(coeffs))
            assert _sqrt_sign(coeffs, s) == sympy.sign(sympy.expand(value)), \
                (coeffs, s)


class TestBisection:
    def test_dyadic_sign_matches_fractions(self):
        rng = random.Random(5)
        coeffs = (3, -7, 0, 2, -1, 4)
        for _ in range(200):
            x = rng.uniform(-3, 3)
            exact = sum(Fraction(c) * Fraction(x) ** i
                        for i, c in enumerate(coeffs))
            want = (exact > 0) - (exact < 0)
            assert _dyadic_sign(coeffs, x) == want

    def test_bad_bracket_rejected(self):
        with pytest.raises(BoundsError):
            bisect_largest_root(z_poly(9), 10.0, 11.0)

    def test_reversed_bracket_rejected(self, exact_calls):
        with pytest.raises(BoundsError, match="reversed"):
            bisect_largest_root(IntPoly((1, -1)), 2.0, 0.0)
        # a constant that is no double: every sign would be exact, and the
        # ends are rejected before any
        with pytest.raises(BoundsError, match="reversed"):
            bisect_largest_root(IntPoly((-10 ** 400, 0, 1)), 1e201, 1.0)
        assert not exact_calls

    @pytest.mark.parametrize("lo, hi", [
        (0.0, math.inf), (-math.inf, 2.0), (math.nan, 2.0), (0.0, math.nan),
        (math.inf, math.inf),
    ])
    def test_non_finite_ends_rejected(self, exact_calls, lo, hi):
        for p in (IntPoly((-1, 1)), IntPoly((-10 ** 400, 0, 1))):
            with pytest.raises(BoundsError, match="not finite"):
                bisect_largest_root(p, lo, hi)
        assert not exact_calls

    def test_each_end_steps_one_float_outward(self):
        """x^2 - 2 with ends one float on the wrong side of sqrt(2): each
        steps once, outward.  An end two floats off stays rejected."""
        root = math.sqrt(2)  # the rounded root lies above sqrt(2)
        below = math.nextafter(root, -math.inf)
        p = IntPoly((-2, 0, 1))
        rb = bisect_largest_root(p, root, 2.0)  # lo steps down to below
        assert rb.lo == below and rb.verify_signs_exact()
        rb = bisect_largest_root(p, 1.0, below)  # hi steps up to root
        assert rb.hi == root and rb.verify_signs_exact()
        with pytest.raises(BoundsError, match="signs"):
            bisect_largest_root(p, 1.0, math.nextafter(below, -math.inf))
        with pytest.raises(BoundsError, match="signs"):
            bisect_largest_root(p, math.nextafter(root, math.inf), 2.0)

    def test_fraction_polynomial_bracket(self):
        p = f_poly(4, 10)  # sign change on [sqrt(8), sqrt(10)]
        lo, hi = math.sqrt(8), math.sqrt(10)
        rb = bisect_largest_root(p, lo, hi)
        assert (rb.lo, rb.hi) == exact_bisect(
            IntPoly(p.as_integer()), lo, hi)
        assert rb.lo < rb.hi
        assert rb.verify_signs_exact()

    def test_exact_endpoint_root(self):
        rb = bisect_largest_root(l_poly(7), 1.9, 2.0)
        assert rb.lo == rb.hi == 2.0
        assert rb.verify_signs_exact()

    def test_enclosure_width(self):
        rb = beta_bracket(101)
        assert rb.hi - rb.lo <= BISECT_WIDTH

    def test_charpoly_largest_root_matches_solver(self, rng):
        checked = 0
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 9), rng.choice([0.3, 0.5, 0.8]))
            if not is_connected(g):
                continue
            s = eigenvalues(g)
            lam1 = s.values[0]
            gap = lam1 - s.values[1] if g.n > 1 else 1.0
            if gap < 1e-6:
                continue
            p = char_poly(g)
            hi = 1.0 + max(abs(c) for c in p.coeffs)
            rb = bisect_largest_root(p, lam1 - gap / 2, hi)
            assert rb.value == pytest.approx(lam1, abs=1e-8)
            checked += 1
        assert checked >= 20


def exact_bisect(poly: IntPoly, lo: float, hi: float,
                 width: float = BISECT_WIDTH) -> tuple[float, float]:
    """Reference for `bisect_largest_root`: the same bisection with every
    sign computed exactly by `_dyadic_sign`, no float evaluation at all."""
    ic = poly.as_integer()
    if _dyadic_sign(ic, hi) == 0:
        return hi, hi
    assert _dyadic_sign(ic, lo) < 0 < _dyadic_sign(ic, hi)
    for _ in range(200):
        if hi - lo <= width:
            break
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        s = _dyadic_sign(ic, mid)
        if s == 0:
            return mid, mid
        if s < 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def start_brackets(m: int) -> list:
    """(bracket function, polynomial, lo, hi) for beta(m) and, from m = 7 on,
    gamma(m), with the analytic start brackets the library bisects."""
    out = [(beta_bracket, z_poly(m), math.sqrt(m - 2), math.sqrt(m - 1))]
    if m >= 7:
        out.append((gamma_bracket, l_poly(m),
                    math.sqrt(m - 4), math.sqrt(m - 3)))
    return out


def power_poly(a: int, d: int) -> IntPoly:
    """(x + a)^d: its float Horner value near -a is all cancellation."""
    p = IntPoly((1,))
    for _ in range(d):
        p = p * IntPoly((a, 1))
    return p


def one_form(ic: tuple[int, ...], lo: float, hi: float):
    """The row kernel's (fc, guard, slope) of one integer polynomial on
    [lo, hi]."""
    return _bracket_form(_float_row(ic), np.array([lo]), np.array([hi]))


def proven_signs(ic: tuple[int, ...], form, xs) -> list[int]:
    """The signs `_signs` proves for one polynomial, with its `one_form`,
    at each x of xs."""
    fc, guard = form[:2]
    xs = np.array(xs, dtype=float)
    rows = np.zeros(len(xs), dtype=int)
    return _signs(fc, guard, lambda i: ic, rows, xs)[1].tolist()


def close_signs(ic: tuple[int, ...], fc, xs) -> list[int]:
    """The signs `_close_signs` proves for one polynomial with the float
    row fc of its `one_form`, at each x of xs.  Overflow is expected (it
    sends a sign to exact arithmetic), as in the kernel."""
    xs = np.array(xs, dtype=float)
    rows = np.zeros(len(xs), dtype=int)
    with np.errstate(all="ignore"):
        return _close_signs(fc[rows], lambda i: ic, rows, xs).tolist()


def floats_beside(x: float, count: int = 64) -> list[float]:
    """The count floats below x, nearest first, then the count above."""
    out = []
    for way in (-math.inf, math.inf):
        y = x
        for _ in range(count):
            y = math.nextafter(y, way)
            out.append(y)
    return out


@pytest.fixture
def exact_calls(monkeypatch):
    """The points at which the library evaluates a sign exactly."""
    calls = []

    def counting(coeffs, x):
        calls.append(x)
        return _dyadic_sign(coeffs, x)

    monkeypatch.setattr(bounds, "_dyadic_sign", counting)
    return calls


class TestCertifiedSigns:
    """Float signs in the bisection are trusted only beyond Higham's Horner
    rounding bound, so every bracket equals the exact-only bisection's."""

    def test_brackets_match_exact_bisection(self):
        for m in range(5, 3001):
            for bracket, poly, lo, hi in start_brackets(m):
                rb = bracket(m)
                assert (rb.lo, rb.hi) == exact_bisect(poly, lo, hi), m

    def test_large_m_brackets_match_exact_bisection(self):
        for m in random.Random(31).sample(range(3001, 10 ** 6 + 1), 200):
            for bracket, poly, lo, hi in start_brackets(m):
                rb = bracket(m)
                assert (rb.lo, rb.hi) == exact_bisect(poly, lo, hi), m

    def test_star_plus_matches_exact_bisection(self):
        for m in range(3, 201):
            p = star_plus_poly(m)
            lo, hi = exact_bisect(p, math.sqrt(m - 1),
                                  1.0 + max(abs(c) for c in p.coeffs[:-1]))
            want = hi if lo == hi else 0.5 * (lo + hi)
            assert star_plus_lambda(m) == want, m

    @pytest.mark.parametrize("poly, root, lo, hi", [
        (IntPoly((-3, 2, 1)), 1.0, -2.5, 2.0),      # (x + 3)(x - 1)
        (power_poly(20, 7), -20.0, -20.5, 0.5),
        (power_poly(10, 9), -10.0, -10.25, 0.5),
    ])
    def test_left_end_farther_from_zero(self, poly, root, lo, hi):
        """|lo| > |hi|: the guard must bound |x| by |lo|, not by |hi|."""
        ic = poly.as_integer()
        xs = [x for x in (root + k * 1e-4 for k in range(-2000, 2001))
              if lo <= x <= hi]
        assert proven_signs(ic, one_form(ic, lo, hi), xs) == [
            _dyadic_sign(ic, x) for x in xs]
        rb = bisect_largest_root(poly, lo, hi)
        assert (rb.lo, rb.hi) == exact_bisect(poly, lo, hi)
        assert rb.lo <= root <= rb.hi
        assert rb.verify_signs_exact()

    def test_float_signs_next_to_large_m_brackets(self, exact_calls):
        """Next to a bracket's ends |p(x)| is as small as the bisection ever
        sees; every sign the float decides there must be the exact one."""
        rng = random.Random(37)
        float_decided = 0
        for m in rng.sample(range(10 ** 5, 10 ** 6), 40):
            for bracket, poly, lo, hi in start_brackets(m):
                rb = bracket(m)
                ic = poly.as_integer()
                xs = floats_beside(rb.lo) + floats_beside(rb.hi)
                del exact_calls[:]
                signs = proven_signs(ic, one_form(ic, lo, hi), xs)
                exact = set(exact_calls)
                for x, s in zip(xs, signs):
                    if x not in exact:
                        float_decided += 1
                        assert s == _dyadic_sign(ic, x), (m, x)
        assert float_decided > 1000

    def test_exact_evaluations_are_rare(self, exact_calls):
        """The running error bound leaves 52 exact evaluations over these
        3,990 brackets; the static guard alone left 909, and the old 1e-9
        window needed about 17 per bracket."""
        # one kernel call per family, past the bracket and block caches
        bounds._family_brackets(bounds._BETA, np.arange(5.0, 2001.0))
        bounds._family_brackets(bounds._GAMMA, np.arange(7.0, 2001.0))
        assert len(exact_calls) <= 75

    def test_unrepresentable_coefficients_go_exact(self, exact_calls):
        # x^2 - 10^400: the constant is no double at all, so every sign
        # (ends and midpoints alike) must be evaluated exactly
        p = IntPoly((-10 ** 400, 0, 1))
        rb = bisect_largest_root(p, 1.0, 1e201)
        assert (rb.lo, rb.hi) == exact_bisect(p, 1.0, 1e201)
        assert rb.lo <= 1e200 <= rb.hi
        assert len(exact_calls) > 50
        assert rb.verify_signs_exact()

    def test_brackets_survive_pickle_and_deepcopy(self):
        for obj in (gamma_bracket(101), beta_bracket(64), f_poly(3, 10),
                    f_poly(4, 13)):
            for twin in (pickle.loads(pickle.dumps(obj)),
                         copy.deepcopy(obj)):
                assert twin == obj
                assert hash(twin) == hash(obj)
        assert any(isinstance(c, Fraction) for c in f_poly(4, 13).coeffs)
        assert not hasattr(gamma_bracket(101), "__dict__")
        assert not hasattr(f_poly(3, 10), "__dict__")


# float.hex of (lo, hi) for beta and gamma, as the scalar bisection the
# row kernel replaced gave them: block edges, the exact hits beta(5) and
# gamma(7), stepped ends at 10^8 + 7, and no float form at 10^20
PINNED_BRACKETS = {
    5: (("0x1.0000000000000p+1", "0x1.0000000000000p+1"), None),
    7: (("0x1.3218d15e84da1p+1", "0x1.3218d15e85476p+1"),
        ("0x1.0000000000000p+1", "0x1.0000000000000p+1")),
    15: (("0x1.d424826a4eeecp+1", "0x1.d424826a4f7a2p+1"),
         ("0x1.ab5a58a970ed6p+1", "0x1.ab5a58a97138ep+1")),
    16: (("0x1.e50695cabaad0p+1", "0x1.e50695cabb338p+1"),
         ("0x1.bdd06fcf01333p+1", "0x1.bdd06fcf017bap+1")),
    1023: (("0x1.ff41ee074aee4p+4", "0x1.ff41ee074afe4p+4"),
           ("0x1.febfac693f14ap+4", "0x1.febfac693f24bp+4")),
    1024: (("0x1.ff820189e504ep+4", "0x1.ff820189e514ep+4"),
           ("0x1.feffd08184c56p+4", "0x1.feffd08184d56p+4")),
    1025: (("0x1.ffc20d06bf914p+4", "0x1.ffc20d06bfa14p+4"),
           ("0x1.ff3fec8dbf469p+4", "0x1.ff3fec8dbf56ap+4")),
    2047: (("0x1.69c6814440684p+5", "0x1.69c68144406dfp+5"),
           ("0x1.6998b4847c3b6p+5", "0x1.6998b4847c410p+5")),
    2048: (("0x1.69dd255c009a2p+5", "0x1.69dd255c009fcp+5"),
           ("0x1.69af5b8235eb8p+5", "0x1.69af5b8235f12p+5")),
    10 ** 8 + 7: (("0x1.38800083131a4p+13", "0x1.38800083131a5p+13"),
                  ("0x1.3880004ea4a8bp+13", "0x1.3880004ea4a8cp+13")),
    10 ** 20: (("0x1.2a05f1fffffffp+33", "0x1.2a05f20000000p+33"),
               ("0x1.2a05f1fffffffp+33", "0x1.2a05f20000000p+33")),
}


class TestRowKernel:
    """beta and gamma brackets are rows of cached blocks of _BLOCK_ROWS
    aligned m, which the row kernel bisects in one call; a row's bracket
    must not depend on the rows beside it."""

    @pytest.mark.parametrize("m", sorted(PINNED_BRACKETS))
    def test_pinned_brackets(self, m):
        for bracket, want in zip((beta_bracket, gamma_bracket),
                                 PINNED_BRACKETS[m]):
            if want is not None:
                rb = bracket.__wrapped__(m)  # bypass the bracket cache
                assert (rb.lo.hex(), rb.hi.hex()) == want, bracket.__name__

    @pytest.mark.parametrize("m", [5, 6, 7, 8, 15, 16, 1023, 1024, 1025,
                                   3071, 3072, 10 ** 12 + 5])
    def test_block_rows_equal_one_row_calls(self, m):
        for bracket, poly, lo, hi in start_brackets(m):
            assert bracket(m) == bisect_largest_root(poly, lo, hi), m

    def test_block_with_stepped_and_unstepped_ends(self):
        """gamma's ends begin to step near m = 10^8: 217 rows of the
        block that holds 10^8 step an end and the others do not."""
        start = 10 ** 8 - 10 ** 8 % bounds._BLOCK_ROWS
        los, his = bounds._block(bounds._GAMMA, start)
        stepped = 0
        for m, lo, hi in zip(range(start, start + bounds._BLOCK_ROWS),
                             los, his):
            poly, ends = l_poly(m), (math.sqrt(m - 4), math.sqrt(m - 3))
            moved = stepped_ends(poly, *ends)
            stepped += moved != ends
            assert (lo, hi) == exact_bisect(poly, *moved), m
        assert stepped == 217

    def test_the_sweep_builds_one_block_per_family(self):
        """m = 9 and 10 read the blocks [5, 1024) of beta and [7, 1024) of
        gamma."""
        bounds._block.cache_clear()
        for m in (9, 10):
            bounds.beta_bracket.__wrapped__(m)
            bounds.gamma_bracket.__wrapped__(m)
        info = bounds._block.cache_info()
        assert (info.misses, info.hits) == (2, 2)
        for family, rows in ((bounds._BETA, 1019), (bounds._GAMMA, 1017)):
            assert [len(ends) for ends in bounds._block(family, 0)] == [
                rows, rows]

    def test_no_float_form_is_one_row(self, exact_calls):
        """At m = 10^20 no coefficient is an exact double, so every sign is
        exact: one call bisects its own row, two ends and one step."""
        for bracket in (beta_bracket, gamma_bracket):
            del exact_calls[:]
            rb = bracket.__wrapped__(10 ** 20)
            assert len(exact_calls) <= 4  # two ends and their steps
            assert rb.hi == math.nextafter(rb.lo, math.inf)
            assert rb.verify_signs_exact()


def clustered_poly(nums, den) -> IntPoly:
    """prod (den x - n_i): roots n_i/den, often repeated or close."""
    p = IntPoly((1,))
    for n in nums:
        p = p * IntPoly((-n, den))
    return p


class TestRunningBound:
    """A float value inside the static guard takes its sign from the
    running error bound when that decides it, and exactly otherwise; a sign
    the bound decides must be the exact one."""

    def test_signs_next_to_large_m_brackets(self, exact_calls):
        """Next to a bracket's ends almost every float value lies inside
        the static guard, and many still lie outside the running bound."""
        rng = random.Random(53)
        decided = 0
        for m in (rng.sample(range(10 ** 5, 10 ** 6), 20)
                  + large_m_sample(59, 4)):
            for bracket, poly, lo, hi in start_brackets(m):
                rb = bracket(m)
                ic = poly.as_integer()
                xs = floats_beside(rb.lo) + floats_beside(rb.hi)
                del exact_calls[:]
                signs = close_signs(ic, one_form(ic, lo, hi)[0], xs)
                exact = set(exact_calls)
                for x, s in zip(xs, signs):
                    if x not in exact:
                        decided += 1
                        assert s == _dyadic_sign(ic, x), (m, x)
        assert decided > 18000  # 20,212 of the 20,480 points

    @given(st.lists(st.integers(1, 60), min_size=1, max_size=6),
           st.integers(1, 7), st.integers(-40, 40))
    def test_clustered_roots(self, nums, den, steps):
        """Near a repeated root the float value is all rounding noise, and
        near a simple one it is not: either way a sign the bound decides
        must be the exact one."""
        p = clustered_poly(nums, den)
        ic = p.as_integer()
        fc = one_form(ic, 1.0, 61.0)[0]
        for n in set(nums):
            x = n / den
            for _ in range(abs(steps)):
                x = math.nextafter(x, math.copysign(math.inf, steps))
            assert close_signs(ic, fc, [x]) == [_dyadic_sign(ic, x)], x

    def test_subnormal_intermediates_go_exact(self, exact_calls):
        """x^3 at 1e-105: Horner's x^2 and x^3 are subnormal, where a
        rounding error is no longer relative to the result."""
        ic = (0, 0, 0, 1)
        fc = one_form(ic, -1.0, 1.0)[0]
        assert close_signs(ic, fc, [1e-105]) == [1]
        assert exact_calls == [1e-105]

    def test_overflow_goes_exact(self, exact_calls):
        """x^2 - 1 at 1e200: x^2 overflows, so the bound is not finite."""
        ic = (-1, 0, 1)
        fc = one_form(ic, 0.0, 1.0)[0]
        assert close_signs(ic, fc, [1e200]) == [1]
        assert exact_calls == [1e200]


def stepped_ends(poly: IntPoly, lo: float, hi: float) -> tuple[float, float]:
    """The start ends after the bisection's one-float steps, with signs
    decided exactly."""
    ic = poly.as_integer()
    if _dyadic_sign(ic, lo) >= 0:
        lo = math.nextafter(lo, -math.inf)
    if _dyadic_sign(ic, hi) < 0:
        hi = math.nextafter(hi, math.inf)
    return lo, hi


class TestStopRules:
    """The bisection stops at BISECT_WIDTH, on adjacent floats, or after 200
    halvings, whichever comes first, as the exact-only bisection does."""

    def test_cap_of_200_halvings(self):
        """x - 1 on [0.5, 1e60]: 200 halvings leave a width of about
        1e60 / 2^200 = 0.62, far above BISECT_WIDTH."""
        p = IntPoly((-1, 1))
        rb = bisect_largest_root(p, 0.5, 1e60)
        assert (rb.lo, rb.hi) == exact_bisect(p, 0.5, 1e60)
        assert rb.hi - rb.lo == pytest.approx(1e60 / 2 ** 200, rel=1e-6)
        assert rb.lo < 1.0 < rb.hi

    def test_adjacent_floats_at_large_m(self):
        """From m = 10^14 a float step at the root exceeds BISECT_WIDTH:
        at m = 10^14 it is 2^-29, about 1.86e-9."""
        rng = random.Random(61)
        for m in [10 ** 14] + rng.sample(range(10 ** 14, 10 ** 15), 20):
            for bracket, poly, lo, hi in start_brackets(m):
                rb = bracket(m)
                assert (rb.lo, rb.hi) == exact_bisect(
                    poly, *stepped_ends(poly, lo, hi)), m
                assert rb.hi == math.nextafter(rb.lo, math.inf), m
                if m == 10 ** 14:
                    assert rb.hi - rb.lo == 2.0 ** -29


@pytest.fixture
def windows(monkeypatch):
    """(lo, hi, a, b) for every root window the library proves, one per
    row that the kernel bisects, in row order: the bracket after the end
    steps, and the window inside it."""
    seen = []

    def recording(fc, guard, slope, lo, hi, v_lo, v_hi):
        a, b = _root_windows(fc, guard, slope, lo, hi, v_lo, v_hi)
        seen.extend(zip(lo.tolist(), hi.tolist(), a.tolist(), b.tolist()))
        return a, b

    monkeypatch.setattr(bounds, "_root_windows", recording)
    return seen


# gamma's termwise bound on L' is not positive on (sqrt(m-4), sqrt(m-3))
# for these m, so their window is the whole bracket
GAMMA_WHOLE_BRACKET = range(8, 15)


class TestRootWindow:
    """Midpoints outside the proven window take their sign from
    monotonicity, so the window must hold the root, and it must be narrow
    where monotonicity holds: a silent fallback to the whole bracket keeps
    every bracket right but would fail the width check."""

    def check_windows(self, ms, windows):
        for family in (bounds._BETA, bounds._GAMMA):
            ms_of = [m for m in ms if m >= family.least]
            del windows[:]
            # one kernel call, past the bracket and block caches
            los, his = bounds._family_brackets(
                family, np.array(ms_of, dtype=float))
            # a root at the right end gets no window
            bisected = [m for m, lo, hi in zip(ms_of, los, his) if lo < hi]
            assert len(windows) == len(bisected)
            for m, (lo, hi, a, b) in zip(bisected, windows):
                ic = family.poly(m).as_integer()
                assert lo <= a < b <= hi, m
                assert _dyadic_sign(ic, a) < 0 < _dyadic_sign(ic, b), m
                if family is bounds._GAMMA and m in GAMMA_WHOLE_BRACKET:
                    assert (a, b) == (lo, hi), m
                else:
                    assert b - a < 100 * BISECT_WIDTH, m

    def test_small_m(self, windows):
        self.check_windows(range(5, 3001), windows)

    def test_large_m(self, windows):
        self.check_windows(random.Random(31).sample(range(3001, 10 ** 6 + 1),
                                                    200), windows)

    def test_non_monotone_bracket_is_whole(self, windows):
        """(x-1)(x-2)(x-3) on [0.5, 3.5] falls and rises: no window, and the
        bisection hits the root 2 at its first midpoint."""
        p = IntPoly((-6, 11, -6, 1))
        rb = bisect_largest_root(p, 0.5, 3.5)
        assert windows == [(0.5, 3.5, 0.5, 3.5)]
        assert (rb.lo, rb.hi) == exact_bisect(p, 0.5, 3.5) == (2.0, 2.0)

    def test_no_window_on_non_positive_brackets(self, windows):
        p = IntPoly((-1, 0, 1))  # x^2 - 1 rises on [-0.5, 3] past x = 0
        rb = bisect_largest_root(p, -0.5, 3.0)
        assert windows == [(-0.5, 3.0, -0.5, 3.0)]
        assert (rb.lo, rb.hi) == exact_bisect(p, -0.5, 3.0)

    @given(st.lists(st.integers(1, 60), min_size=1, max_size=6),
           st.integers(1, 7), st.floats(1e-9, 2.0), st.floats(1e-9, 2.0))
    def test_clustered_roots_match_exact_bisection(self, nums, den, left,
                                                   right):
        """prod (den x - n_i): roots k/den, often repeated or close; the
        bracket around the largest one may or may not be monotone."""
        p = IntPoly((1,))
        for n in nums:
            p = p * IntPoly((-n, den))
        root = max(nums) / den
        lo, hi = root - left, root + right
        if lo <= 0 or _dyadic_sign(p.as_integer(), lo) >= 0:
            return  # not a (-, +) bracket with a positive left end
        rb = bisect_largest_root(p, lo, hi)
        assert (rb.lo, rb.hi) == exact_bisect(p, lo, hi)


def large_m_sample(seed: int, per_decade: int) -> list[int]:
    """Seeded m in [10^7, 10^12), the same number from every decade."""
    rng = random.Random(seed)
    return [m for e in range(7, 12)
            for m in rng.sample(range(10 ** e, 10 ** (e + 1)), per_decade)]


class TestLargeMStartBrackets:
    """Near m = 10^8 (gamma) and 10^11 (beta) the rounded analytic left end
    sqrt(m-4) or sqrt(m-2) can land above the root, and from about 10^15
    both ends can round to one float below it; the bracket functions step
    each end one float outward when its sign is wrong."""

    @pytest.mark.parametrize("bracket", [beta_bracket, gamma_bracket])
    def test_signs_verify_exactly(self, bracket):
        for m in large_m_sample(41, 40):
            rb = bracket(m)
            assert rb.lo < rb.hi, m
            assert rb.verify_signs_exact(), m

    @pytest.mark.parametrize("bracket, window", [(beta_bracket, (2, 1)),
                                                 (gamma_bracket, (4, 3))])
    def test_every_decade_up_to_1e29(self, bracket, window):
        """About half of these m failed with signs (-1, -1) while only the
        left end stepped."""
        rng = random.Random(47)
        for e in range(12, 29):
            for _ in range(10):
                m = rng.randrange(10 ** e, 10 ** (e + 1))
                rb = bracket(m)
                assert rb.verify_signs_exact(), m
                assert rb.root_between_sqrts(m - window[0], m - window[1]), m

    @pytest.mark.parametrize("bracket, family", [(beta_bracket, z_poly),
                                                 (gamma_bracket, l_poly)])
    def test_largest_root_isolated_by_sympy(self, bracket, family):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        for m in large_m_sample(43, 4):
            rb = bracket(m)
            p = sympy.Poly(list(reversed(family(m).as_integer())), x)
            lo, hi = sympy.Rational(Fraction(rb.lo)), sympy.Rational(Fraction(rb.hi))
            # exactly one real root at or above lo, so the largest, and it
            # lies below hi
            assert len(p.intervals(inf=lo)) == 1, m
            assert not p.intervals(inf=hi), m
            assert p.eval(lo) < 0, m


class TestComparisonFunctions:
    def test_f_values(self):
        assert f_val(11, 0) == 0
        assert f_val(11, 1) == pytest.approx(math.sqrt(9) + 1)
        assert g_val(11, -1) == pytest.approx(math.sqrt(7) - 1)

    def test_degenerate_interval(self):
        assert f_min_on_interval(9, -1, -1) == f_val(9, -1)

    def test_claim_interval(self):
        # m = 11 on [-sqrt(m-4.744), -1.801]: the endpoint minimum clears
        # sqrt(m-2)
        m = 11
        a, b = -math.sqrt(m - 4.744), -1.801
        assert f_min_on_interval(m, a, b) > math.sqrt(m - 2)

    def test_positive_b_rejected(self):
        with pytest.raises(BoundsError):
            f_min_on_interval(9, -1.0, 0.5)

    @given(st.integers(5, 400), st.floats(-6, 0), st.floats(-6, 0))
    def test_endpoint_min_matches_grid(self, m, x, y):
        a, b = min(x, y), max(x, y)
        grid = min(f_val(m, a + (b - a) * i / 400) for i in range(401))
        assert f_min_on_interval(m, a, b) <= grid + 1e-9


class TestIdentities:
    def test_h_minus_f_zero_at_a2(self):
        for m in (5, 9, 13):
            assert identity_h_minus_f(2, m).coeffs == (0,)

    def test_h_minus_f_a3_m13(self):
        assert identity_h_minus_f(3, 13).coeffs == (2, -2)  # -2(x-1)

    def test_h_below_f_on_right_half_line(self):
        for a, b in ((2, 5), (3, 4), (3, 5), (4, 5)):
            m = a * b + 1
            h, f = h_poly(m), f_poly(a, m)
            for x in (1.0, 1.5, 2.0, 3.0, 5.0, 8.0):
                assert h(x) <= f(x) + 1e-9

    def test_charpoly_identity_sk2(self):
        for m in range(5, 26, 2):
            assert charpoly_identity_sk2(m)

    def test_charpoly_identity_s3(self):
        for m in range(7, 26, 2):
            assert charpoly_identity_s3(m)

    def test_charpoly_identity_sk_grid(self):
        for a in range(2, 6):
            for b in range(a, 6):
                assert charpoly_identity_sk(a, b)

    def test_charpoly_identity_q_grid(self):
        for a in range(2, 5):
            for b in range(a, 5):
                assert charpoly_identity_q(a, b)

    def test_q_minus_l_factorization(self):
        # Q - L = (a-2)(b-2)(x^3 - 2x - 1) once m = ab + 3
        for a, b in ((2, 2), (2, 5), (3, 3), (3, 4), (4, 5)):
            m = a * b + 3
            if m < 7:
                continue
            diff = q_poly(a, b) - l_poly(m)
            want = IntPoly((-1, -2, 0, 1)) * IntPoly(((a - 2) * (b - 2),))
            assert diff.coeffs == want.coeffs
            for x in (2.0, 2.5, 4.0):
                assert l_poly(m)(x) <= q_poly(a, b)(x) + 1e-9

    def test_e_displayed_case_matches_closed_form(self):
        for a, b in ((2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 5)):
            assert e_poly(a, b, E_DISPLAYED_CASE).coeffs == \
                e_poly_closed(a, b).coeffs

    def test_e_minus_xl_residual(self):
        # E - xL = (2a-3)(b-1)x^4 - (5a-7)(b-1)x^2 - (ab-2a-2b+3)x
        #          + ab - a - b + 1, with m = ab + 4
        for a, b in ((2, 3), (3, 3), (3, 4), (4, 5)):
            m = a * b + 4
            diff = e_poly_closed(a, b) - l_poly(m).shift_x(1)
            want = IntPoly((
                a * b - a - b + 1,
                -(a * b - 2 * a - 2 * b + 3),
                -(5 * a - 7) * (b - 1),
                0,
                (2 * a - 3) * (b - 1),
            ))
            assert diff.coeffs == want.coeffs


class TestPendantLemma:
    @pytest.mark.parametrize("a,b", [(2, 2), (2, 3), (3, 3), (2, 4)])
    def test_all_cases_below_gamma(self, a, b):
        report = lemma42_check(a, b)
        assert report.m == a * b + 4
        assert len(report.cases) == len(PENDANT_SITES) == 7
        assert report.all_below
        for case in report.cases:
            assert case.margin > 0

    def test_case_graphs_have_m_edges(self):
        for case in range(1, 8):
            g = pendant_case_graph(3, 4, case)
            assert g.m == 3 * 4 + 4
            assert g.n == 3 + 4 + 4

    def test_bad_case_rejected(self):
        with pytest.raises(BoundsError):
            pendant_case_graph(2, 3, 8)


class TestStarPlusEdge:
    def test_cubic_matches_eigensolver(self):
        for m in range(4, 22):
            lam = spectral_radius(star_plus_edge(m))
            assert star_plus_lambda(m) == pytest.approx(lam, abs=1e-9)

    def test_exceeds_sqrt_m_small(self):
        for m in range(4, 9):
            assert star_plus_lambda(m) > math.sqrt(m)

    def test_below_sqrt_m_large(self):
        for m in range(11, 31):
            assert star_plus_lambda(m) < math.sqrt(m)

    def test_m9_ties_star(self):
        assert star_plus_lambda(9) == pytest.approx(3.0, abs=1e-10)

    def test_always_beats_beta(self):
        for m in range(6, 25):
            assert star_plus_lambda(m) > beta(m)

    def test_poly_coeffs(self):
        assert star_plus_poly(9).coeffs == (6, -8, -1, 1)
