import math
import random

import numpy as np
import pytest
from hypothesis import given

from specbound.graphs import (
    Graph,
    GraphError,
    PatternId,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    path,
    pattern,
    sk,
    star_plus_edge,
    triangle_count,
    GALLERY_SPECTRA,
)
from specbound.spectra import (
    CharPoly,
    adjacency_matrix,
    char_poly,
    classical_bounds,
    cycle_spectrum_closed_form,
    eigenvalues,
    spectral_radius,
    top_two_squares,
    triangle_count_lemma,
    triangle_count_trace,
    verify_interlacing,
)

from conftest import graphs_st, random_graph, seeded_graphs


def numpy_spectrum(g: Graph) -> tuple[float, ...]:
    return tuple(sorted(np.linalg.eigvalsh(adjacency_matrix(g)), reverse=True))


class TestEigenvalues:
    def test_k1(self):
        assert eigenvalues(Graph(1, ())).values == (0.0,)

    def test_c7_closed_form(self):
        got = eigenvalues(cycle(7)).values
        want = cycle_spectrum_closed_form(7).values
        assert got == pytest.approx(want, abs=1e-9)

    def test_complete_bipartite_rank_two(self):
        for s, t in ((1, 4), (2, 3), (3, 3), (2, 5)):
            vals = eigenvalues(complete_bipartite(s, t)).values
            r = math.sqrt(s * t)
            assert vals[0] == pytest.approx(r, abs=1e-9)
            assert vals[-1] == pytest.approx(-r, abs=1e-9)
            assert all(abs(v) < 1e-9 for v in vals[1:-1])

    @given(graphs_st(max_n=10))
    def test_agrees_with_lapack(self, g):
        assert eigenvalues(g).values == pytest.approx(numpy_spectrum(g), abs=1e-8)

    @given(graphs_st(max_n=10))
    def test_trace_identities(self, g):
        s = eigenvalues(g)
        assert sum(s.values) == pytest.approx(0.0, abs=1e-8)
        assert sum(v * v for v in s.values) == pytest.approx(2 * g.m, abs=1e-7)
        assert sum(v ** 3 for v in s.values) == pytest.approx(
            6 * triangle_count(g), abs=1e-6
        )

    @given(graphs_st(max_n=10))
    def test_perron_frobenius(self, g):
        s = eigenvalues(g)
        lam1 = s.values[0]
        assert all(abs(v) <= lam1 + 1e-9 for v in s.values)
        assert lam1 >= 2 * g.m / g.n - 1e-9

    def test_residual_tolerance_reported(self):
        s = eigenvalues(pattern(PatternId.T2))
        assert 0 <= s.tol <= 1e-10

    def test_residual_certificate_bounds_exact_spectra(self):
        # Kahan: with orthonormal eigenvectors each sorted eigenvalue lies
        # within sqrt(n) * max column residual of the exact one; the second
        # term covers rounding in the computed eigenvectors' orthonormality
        cases = [
            (path(n), [2 * math.cos(k * math.pi / (n + 1))
                       for k in range(1, n + 1)])
            for n in range(2, 33)
        ]
        for s, t in ((1, 1), (1, 6), (2, 3), (3, 3), (4, 5)):
            r = math.sqrt(s * t)
            cases.append((complete_bipartite(s, t),
                          [r] + [0.0] * (s + t - 2) + [-r]))
        for g, exact in cases:
            spec = eigenvalues(g)
            slack = (math.sqrt(g.n) * spec.abs_residual_bound()
                     + 1e-12 * max(1.0, math.sqrt(2 * g.m)))
            assert spec.n == g.n
            for got, want in zip(spec.values, sorted(exact, reverse=True)):
                assert abs(got - want) <= slack, (g.n, g.edges, got, want)

    def test_tol_validation(self):
        with pytest.raises(GraphError):
            eigenvalues(Graph(0, ()))

    def test_determinism(self):
        a = eigenvalues(pattern(PatternId.T4))
        b = eigenvalues(pattern(PatternId.T4))
        assert a.values == b.values

    def test_union_spectrum_is_multiset_union(self):
        g, h = cycle(5), complete_bipartite(2, 3)
        both = sorted(eigenvalues(g).values + eigenvalues(h).values,
                      reverse=True)
        got = eigenvalues(disjoint_union(g, h)).values
        assert got == pytest.approx(both, abs=1e-9)


class TestSpectralRadius:
    def test_star(self):
        assert spectral_radius(complete_bipartite(1, 9)) == pytest.approx(3.0, abs=1e-10)

    def test_cycles_are_two(self):
        for n in range(3, 13):
            assert spectral_radius(cycle(n)) == pytest.approx(2.0, abs=1e-9)

    def test_edgeless(self):
        assert spectral_radius(Graph(4, ())) == 0.0

    def test_star_plus_edge_nine(self):
        assert spectral_radius(star_plus_edge(9)) == pytest.approx(3.0, abs=1e-9)


class TestCycleClosedForm:
    def test_matches_reference_table(self):
        got = cycle_spectrum_closed_form(9).values
        assert got == pytest.approx(GALLERY_SPECTRA["C9"], abs=1e-3)

    def test_c4(self):
        assert cycle_spectrum_closed_form(4).values == pytest.approx(
            (2.0, 0.0, 0.0, -2.0), abs=1e-12
        )

    def test_agrees_with_solver(self):
        for n in range(3, 16):
            got = eigenvalues(cycle(n)).values
            want = cycle_spectrum_closed_form(n).values
            assert got == pytest.approx(want, abs=1e-8)


class TestCharPoly:
    def test_k2(self):
        assert char_poly(path(2)).coeffs == (-1, 0, 1)

    def test_sk24_factored_form(self):
        # x^2 (x^2+x-1)(x^3-x^2-7x+6)
        lhs = char_poly(sk(2, 4)).coeffs
        q = [0] * 8
        for i, a in enumerate((-1, 1, 1)):
            for j, b in enumerate((6, -7, -1, 1)):
                q[i + j + 2] += a * b
        assert list(lhs) == q

    def test_s3_k23_factored_form(self):
        # x (x^7 - 9x^5 + 22x^3 - 13x - 4)
        from specbound.graphs import s_odd
        lhs = char_poly(s_odd(2, 3, 2)).coeffs
        assert lhs == (0, -4, -13, 0, 22, 0, -9, 0, 1)

    @given(graphs_st(max_n=9))
    def test_low_coefficients(self, g):
        cp = char_poly(g)
        n = g.n
        assert cp.coeffs[n] == 1
        if n >= 1:
            assert cp.coeffs[n - 1] == 0  # trace
        if n >= 2:
            assert cp.coeffs[n - 2] == -g.m
        if n >= 3:
            assert cp.coeffs[n - 3] == -2 * triangle_count(g)

    @given(graphs_st(max_n=9))
    def test_vanishes_at_eigenvalues(self, g):
        cp = char_poly(g)
        scale = sum(abs(c) for c in cp.coeffs) * max(
            1.0, float(g.n) ** cp.degree
        )
        for lam in eigenvalues(g).values:
            assert abs(cp(lam)) <= 1e-8 * scale

    def test_agrees_with_numpy_charpoly(self):
        rng = random.Random(11)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 9), 0.5)
            mine = char_poly(g).coeffs
            theirs = np.poly(adjacency_matrix(g))[::-1]  # ascending powers
            assert np.allclose(mine, theirs, atol=1e-6)

    def test_size_limit(self):
        from specbound.graphs import SizeLimitError
        with pytest.raises(SizeLimitError):
            char_poly(Graph(33, ()))


class TestTriangleFormulas:
    def test_k3(self):
        s = eigenvalues(complete(3))
        assert triangle_count_trace(s) == pytest.approx(1.0, abs=1e-9)

    def test_c5_zero(self):
        s = eigenvalues(cycle(5))
        assert triangle_count_trace(s) == pytest.approx(0.0, abs=1e-9)

    def test_k4(self):
        s = eigenvalues(complete(4))
        assert triangle_count_trace(s) == pytest.approx(4.0, abs=1e-9)
        assert triangle_count_lemma(s, 6) == pytest.approx(4.0, abs=1e-9)

    def test_lemma_on_c5(self):
        s = eigenvalues(cycle(5))
        assert triangle_count_lemma(s, 5) == pytest.approx(0.0, abs=1e-9)

    @given(graphs_st(max_n=10))
    def test_three_way_agreement(self, g):
        s = eigenvalues(g)
        t = triangle_count(g)
        tol = 1e-6 * (1 + t)
        assert abs(triangle_count_trace(s) - t) <= tol
        assert abs(triangle_count_lemma(s, g.m) - t) <= tol


class TestInterlacing:
    def test_host_equals_sub(self):
        s = eigenvalues(cycle(6))
        assert verify_interlacing(s, s)

    def test_c7_inside_host(self):
        host = Graph(9, cycle(7).edges + ((0, 7), (7, 8), (8, 3)))
        assert verify_interlacing(eigenvalues(host), eigenvalues(cycle(7)))

    def test_violating_pair_detected(self):
        # C4 is not a principal submatrix spectrum of 4K1
        host = eigenvalues(Graph(4, ()))
        sub = eigenvalues(cycle(4))
        # pad host so sizes allow comparison: use same sizes
        assert not verify_interlacing(host, sub)

    def test_random_principal_submatrices(self, rng):
        for _ in range(100):
            host = random_graph(rng, rng.randint(2, 10), rng.choice([0.3, 0.6]))
            k = rng.randint(1, host.n)
            vs = rng.sample(range(host.n), k)
            sub = host.induced(vs)
            assert verify_interlacing(eigenvalues(host), eigenvalues(sub))


class TestClassicalBounds:
    def test_regular_bipartite(self):
        b = classical_bounds(complete_bipartite(3, 3))
        lam = spectral_radius(complete_bipartite(3, 3))
        assert b.rayleigh_lower == pytest.approx(3.0) == pytest.approx(lam)
        assert b.sqrt_2m == pytest.approx(math.sqrt(18))
        assert b.sqrt_m == pytest.approx(3.0)

    def test_two_regular(self):
        b = classical_bounds(cycle(5))
        assert b.rayleigh_lower == pytest.approx(2.0)
        assert spectral_radius(cycle(5)) == pytest.approx(2.0, abs=1e-9)

    def test_star_equality_case(self):
        g = complete_bipartite(1, 9)
        b = classical_bounds(g)
        assert spectral_radius(g) == pytest.approx(b.sqrt_m, abs=1e-9)

    def test_isolated_vertex_rejected(self):
        with pytest.raises(GraphError):
            classical_bounds(Graph(3, ((0, 1),)))

    @given(graphs_st(min_n=2, max_n=10))
    def test_bound_chain(self, g):
        if any(g.degree(v) == 0 for v in range(g.n)):
            return
        b = classical_bounds(g)
        lam = spectral_radius(g)
        assert b.rayleigh_lower - 1e-8 <= lam <= b.sqrt_2m + 1e-8
        assert lam <= b.hong + 1e-8

    def test_top_two_squares(self):
        assert top_two_squares(complete_bipartite(2, 2)) == pytest.approx(4.0, abs=1e-8)
        assert top_two_squares(Graph(1, ())) == 0.0
