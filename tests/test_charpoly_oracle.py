"""Reference checks for the multimodular characteristic polynomial.

`reference_char_poly` is the Faddeev-LeVerrier recurrence over Python
integers, the method `spectra.char_poly` used before it worked modulo
primes.  It shares no code with `char_poly`, so equal coefficients check the
residue arithmetic, the prime count and the Chinese remainder step; sympy's
exact `charpoly` is a second, unrelated oracle.
"""

import math
import os
import random
import subprocess
import sys

import pytest
import sympy

import specbound
from specbound import spectra
from specbound.graphs import Graph, complete, complete_bipartite, cycle
from specbound.spectra import CHARPOLY_MAX_N, char_poly

from conftest import random_graph

DENSITIES = (0.15, 0.3, 0.5, 0.9)


def reference_char_poly(g: Graph) -> tuple[int, ...]:
    """Coefficients c_0..c_n of det(xI - A) over exact integers."""
    n = g.n
    a = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        a[u][v] = a[v][u] = 1
    c = [0] * (n + 1)
    c[n] = 1
    mk = [row[:] for row in a]  # M_1 = A
    for k in range(1, n + 1):
        if k > 1:
            shift = c[n - k + 1]
            b = [[mk[i][j] + (shift if i == j else 0) for j in range(n)]
                 for i in range(n)]
            mk = [[sum(a[i][l] * b[l][j] for l in range(n) if a[i][l])
                   for j in range(n)]
                  for i in range(n)]
        q, r = divmod(-sum(mk[i][i] for i in range(n)), k)
        if r:
            raise ArithmeticError("Faddeev-LeVerrier division must be exact")
        c[n - k] = q
    return tuple(c)


def sympy_char_poly(g: Graph) -> tuple[int, ...]:
    a = sympy.zeros(g.n, g.n)
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1
    return tuple(int(c) for c in reversed(a.charpoly().all_coeffs()))


def corpus(density: float) -> list[Graph]:
    rng = random.Random(int(density * 100))
    return [random_graph(rng, n, density) for n in range(1, CHARPOLY_MAX_N + 1)]


@pytest.mark.parametrize("density", DENSITIES)
def test_matches_integer_recurrence(density):
    for g in corpus(density):
        got = char_poly(g).coeffs
        assert got == reference_char_poly(g), (g.n, g.edges)
        assert all(type(c) is int for c in got)


@pytest.mark.parametrize("g, want", [
    (Graph(0, ()), (1,)),
    (Graph(CHARPOLY_MAX_N, ()), (0,) * CHARPOLY_MAX_N + (1,)),
])
def test_edgeless(g, want):
    assert char_poly(g).coeffs == want == reference_char_poly(g)


def test_complete_32_closed_form():
    # (x - 31)(x + 1)^31
    want = [0] * 33
    for k in range(32):
        want[k] -= 31 * math.comb(31, k)
        want[k + 1] += math.comb(31, k)
    got = char_poly(complete(32)).coeffs
    assert got == tuple(want) == reference_char_poly(complete(32))


def test_complete_bipartite_16_16_closed_form():
    # x^30 (x^2 - 256)
    want = (0,) * 30 + (-256, 0, 1)
    assert char_poly(complete_bipartite(16, 16)).coeffs == want


@pytest.mark.parametrize("n, density", [(24, 0.5), (26, 0.3), (28, 0.9),
                                        (30, 0.15), (32, 0.5)])
def test_matches_sympy(n, density):
    g = random_graph(random.Random(n), n, density)
    assert char_poly(g).coeffs == sympy_char_poly(g)


class TestModuli:
    def test_each_is_prime(self):
        assert all(sympy.isprime(p) for p in spectra._PRIMES)

    def test_distinct_and_above_max_n(self):
        assert len(set(spectra._PRIMES)) == len(spectra._PRIMES)
        assert all(p > CHARPOLY_MAX_N for p in spectra._PRIMES)

    def test_float_products_stay_exact(self):
        # lazily reduced entries lie in [-p, 3p) after the shift, and a row
        # of A has at most CHARPOLY_MAX_N - 1 ones; the trace sums entries
        # in [-p, 2p) over at most CHARPOLY_MAX_N rows
        for p in spectra._PRIMES:
            assert 3 * (CHARPOLY_MAX_N - 1) * p < 2 ** 53
            assert 2 * CHARPOLY_MAX_N * p < 2 ** 53

    def test_product_covers_the_largest_coefficients(self):
        # K_32 has the largest bound at n <= 32: 2m/n = n - 1 is the most
        bound = spectra._coefficient_bound(CHARPOLY_MAX_N, 496)
        assert math.prod(spectra._PRIMES) > 2 * bound

    def test_fewest_primes(self):
        assert spectra._moduli(1) == spectra._PRIMES[:1]
        bound = spectra._coefficient_bound(CHARPOLY_MAX_N, 496)
        chosen = spectra._moduli(bound)
        assert chosen == spectra._PRIMES
        assert math.prod(chosen) > 2 * bound
        assert math.prod(chosen[:-1]) <= 2 * bound

    def test_too_few_primes_is_an_error(self, monkeypatch):
        # K_32 needs both primes
        monkeypatch.setattr(spectra, "_PRIMES", spectra._PRIMES[:1])
        with pytest.raises(ArithmeticError):
            char_poly(complete(CHARPOLY_MAX_N))


class TestCoefficientBound:
    @pytest.mark.parametrize("density", (0.0,) + DENSITIES + (1.0,))
    def test_bounds_seeded_graphs(self, density):
        for g in corpus(density):
            bound = spectra._coefficient_bound(g.n, g.m)
            assert max(map(abs, reference_char_poly(g))) <= bound

    @pytest.mark.parametrize("g", [
        complete(32), complete_bipartite(16, 16), complete_bipartite(1, 31),
        cycle(31),
    ], ids=["K32", "K16,16", "K1,31", "C31"])
    def test_bounds_extremal_graphs(self, g):
        bound = spectra._coefficient_bound(g.n, g.m)
        assert max(map(abs, reference_char_poly(g))) <= bound

    def test_largest_at_complete_32(self):
        bound = spectra._coefficient_bound(CHARPOLY_MAX_N, 496)
        assert bound.bit_length() == 85
        assert all(spectra._coefficient_bound(n, n * (n - 1) // 2) <= bound
                   for n in range(1, CHARPOLY_MAX_N + 1))


def _with_max_degree(g: Graph) -> Graph:
    """g plus every edge at vertex 0, so some row of A has n - 1 ones."""
    edges = set(g.edges) | {(0, v) for v in range(1, g.n)}
    return Graph(g.n, tuple(sorted(edges)))


@pytest.mark.parametrize("g", [
    Graph(32, tuple((u, v) for u, v in complete(32).edges if (u, v) != (0, 1))),
    Graph(32, tuple((u, v) for u, v in complete(32).edges
                    if not (u > 0 and u % 2 == 0 and v == u + 1))),
    _with_max_degree(Graph(32, ((1, 2), (3, 4), (5, 6), (7, 8)))),
] + [_with_max_degree(random_graph(random.Random(31 + i), 32, density))
     for i, density in enumerate(DENSITIES)],
    ids=["K32-edge", "K32-matching", "K1,31+4"] + [f"seeded-{d}" for d in DENSITIES])
def test_max_degree_31_matches_reference(g):
    """Rows with 31 ones drive the lazy range to its bound."""
    assert max(g.degree(v) for v in range(g.n)) == CHARPOLY_MAX_N - 1
    assert char_poly(g).coeffs == reference_char_poly(g)


def test_runtime_imports_neither_sympy_nor_scipy():
    code = (
        "import sys, specbound\n"
        "specbound.char_poly(specbound.complete(32))\n"
        "specbound.eigenvalues(specbound.complete(32))\n"
        "print(sorted({'sympy', 'scipy'} & set(sys.modules)))\n"
    )
    src = os.path.dirname(os.path.dirname(specbound.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60, env=env)
    assert out.stdout.strip() == "[]"
