"""Every beta and gamma bracket for m <= 10^4, the ones the `algebra`
benchmark workload computes, must equal the bisection that computes every
sign exactly, and so must every value that `beta` and `gamma` read without
a bracket.  Tier-1 compares the brackets for m <= 3000 and 200 sampled m
up to 10^6; run this with

    PYTHONPATH=src python -m pytest -q slow_tests
"""

import math

from specbound import bounds
from specbound.bounds import BISECT_WIDTH, _dyadic_sign, l_poly, z_poly


def exact_bisect(coeffs, lo, hi):
    """The bisection of `bounds.bisect_largest_root` with every sign
    computed exactly, on a bracket whose ends need no step."""
    if _dyadic_sign(coeffs, hi) == 0:
        return hi, hi
    assert _dyadic_sign(coeffs, lo) < 0 < _dyadic_sign(coeffs, hi)
    for _ in range(200):
        if hi - lo <= BISECT_WIDTH:
            break
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        s = _dyadic_sign(coeffs, mid)
        if s == 0:
            return mid, mid
        if s < 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def exact_values():
    """(value, bracket, m, exact (lo, hi)) for beta and gamma, m <= 10^4."""
    for m in range(5, 10 ** 4 + 1):
        families = [(bounds.beta, bounds.beta_bracket, z_poly, 2)]
        if m >= 7:
            families.append((bounds.gamma, bounds.gamma_bracket, l_poly, 4))
        for value, bracket, family, k in families:
            yield value, bracket, m, exact_bisect(
                family(m).as_integer(), math.sqrt(m - k),
                math.sqrt(m - k + 1))


def test_every_beta_and_gamma_bracket_up_to_1e4():
    for _, bracket, m, want in exact_values():
        rb = bracket.__wrapped__(m)  # bypass the bracket cache
        assert (rb.lo, rb.hi) == want, (bracket.__name__, m)


def test_every_beta_and_gamma_value_up_to_1e4():
    for value, _, m, (lo, hi) in exact_values():
        want = hi if lo == hi else 0.5 * (lo + hi)
        assert value(m).hex() == want.hex(), (value.__name__, m)
