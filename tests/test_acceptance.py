"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or in captured
output on failure).  Tolerances are pinned here and nowhere else:

  1  reference-table spectra within 1e-3, under 1 second
  2  characteristic-polynomial identities, zero tolerance
  3  root brackets for m up to 10^4; gamma(7) = 2 within 1e-10;
     beta vs eigensolver within 1e-8 for odd m <= 25
  4  exhaustive certification, m up to 10, under 5 minutes
  5  three-way triangle counts within 1e-6 (1+t) on 500 seeded graphs
  6  interlacing on 200 principal-submatrix pairs and on located C7 copies
  7  star-plus-edge counterexample values
  8  pendant lemma margins positive for four (a,b) pairs
  9  seeded property corpora: zero failures
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np

from specbound import bounds, certify, spectra
from specbound.bounds import IntPoly, beta, beta_bracket, gamma, gamma_bracket
from specbound.graphs import (
    GALLERY_SPECTRA,
    Graph,
    PatternId,
    canonical_form,
    canonical_graph,
    cycle,
    find_induced,
    from_graph6,
    is_triangle_free,
    pattern,
    s_odd,
    sk,
    star_plus_edge,
    to_graph6,
    triangle_count,
)

from conftest import random_graph


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {desc}")


def gallery_graph(name: str) -> Graph:
    if name == "C7":
        return cycle(7)
    if name == "C9":
        return cycle(9)
    return pattern(PatternId[name])


def test_criterion_1_table_reproduction():
    with criterion(1, "table spectra within 1e-3 in under 1s"):
        start = time.perf_counter()
        for name, expected in GALLERY_SPECTRA.items():
            got = spectra.eigenvalues(gallery_graph(name)).values
            assert len(got) == len(expected), name
            for e, v in zip(expected, got):
                assert abs(e - v) <= 1e-3, (name, e, v)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_charpoly_identities():
    with criterion(2, "exact characteristic-polynomial identities"):
        for m in range(5, 26, 2):
            assert bounds.charpoly_identity_sk2(m), m
        for m in range(7, 26, 2):
            assert bounds.charpoly_identity_s3(m), m
        for a in range(2, 6):
            for b in range(a, 6):
                assert bounds.charpoly_identity_sk(a, b), (a, b)
        quad = IntPoly((-1, 1, 1))
        for m in range(3, 1001):
            assert bounds.h_poly(m).coeffs == (quad * bounds.z_poly(m)).coeffs


def test_criterion_3_root_brackets():
    with criterion(3, "beta/gamma brackets to m = 10^4"):
        for m in range(6, 10001):
            b = beta(m)
            assert math.sqrt(m - 2) < b < math.sqrt(m - 1), m
        for m in range(7, 10001):
            c = gamma(m)
            assert math.sqrt(m - 4) < c <= math.sqrt(m - 3), m
        assert abs(gamma(7) - 2.0) <= 1e-10
        for m in range(5, 26, 2):
            lam = spectra.spectral_radius(sk(2, (m - 1) // 2))
            assert abs(beta(m) - lam) <= 1e-8, m
        # the brackets are certified: recheck endpoint signs exactly
        for m in (6, 7, 64, 999, 10000):
            assert beta_bracket(m).verify_signs_exact()
            if m >= 7:
                assert gamma_bracket(m).verify_signs_exact()


def test_criterion_4_exhaustive_certification():
    with criterion(4, "exhaustive theorem certification for m <= 10"):
        start = time.perf_counter()
        for m in range(5, 11):
            r = certify.certify_zhai_shu(m)
            if m % 2 == 1:
                assert r.verdict == "HOLDS_WITH_EQUALITY", (m, r.verdict)
                assert r.maximizers == (
                    to_graph6(canonical_graph(sk(2, (m - 1) // 2))),
                )
            else:
                assert r.verdict == "HOLDS", (m, r.verdict)
        for m in range(7, 11):
            r = certify.certify_main(m)
            if m % 2 == 1:
                assert r.verdict == "HOLDS_WITH_EQUALITY", (m, r.verdict)
                assert r.maximizers == (
                    to_graph6(canonical_graph(s_odd(2, (m - 3) // 2, 2))),
                )
            else:
                assert r.verdict == "HOLDS", (m, r.verdict)
        for m in range(5, 11):
            r = certify.certify_thm15(m)
            want = "HOLDS_WITH_EQUALITY" if m == 5 else "HOLDS"
            assert r.verdict == want, (m, r.verdict)
            if m == 5:
                assert r.maximizers == (to_graph6(canonical_graph(cycle(5))),)
        for m in range(3, 11):
            assert certify.certify_nosal(m).verdict == "HOLDS_WITH_EQUALITY"
            assert certify.certify_lnw_sum(m).verdict == "HOLDS_WITH_EQUALITY"
        assert time.perf_counter() - start < 300.0


def test_criterion_5_triangle_counting():
    with criterion(5, "three-way triangle counts on 500 seeded graphs"):
        rng = random.Random(51)
        for _ in range(500):
            g = random_graph(rng, rng.randint(1, 12),
                             rng.choice([0.2, 0.35, 0.5, 0.7]))
            s = spectra.eigenvalues(g)
            t = triangle_count(g)
            tol = 1e-6 * (1 + t)
            assert abs(spectra.triangle_count_trace(s) - t) <= tol
            assert abs(spectra.triangle_count_lemma(s, g.m) - t) <= tol
        for name in GALLERY_SPECTRA:
            g = gallery_graph(name)
            assert is_triangle_free(g)
            s = spectra.eigenvalues(g)
            assert abs(spectra.triangle_count_trace(s)) <= 1e-6


def test_criterion_6_interlacing():
    with criterion(6, "interlacing on 200 pairs and located C7 copies"):
        rng = random.Random(61)
        for _ in range(200):
            host = random_graph(rng, rng.randint(2, 10),
                                rng.choice([0.25, 0.5, 0.75]))
            k = rng.randint(1, host.n)
            sub = host.induced(rng.sample(range(host.n), k))
            assert spectra.verify_interlacing(
                spectra.eigenvalues(host), spectra.eigenvalues(sub)
            )
        c7 = cycle(7)
        c7_spec = spectra.eigenvalues(c7)
        located = 0
        for trial in range(60):
            extra = rng.randint(1, 3)
            edges = list(c7.edges)
            for v in range(7, 7 + extra):
                for u in range(v):
                    if rng.random() < 0.3:
                        edges.append((u, v))
            host = Graph(7 + extra, tuple(edges))
            if find_induced(host, c7) is not None:
                located += 1
                assert spectra.verify_interlacing(
                    spectra.eigenvalues(host), c7_spec
                )
        assert located >= 20


def test_criterion_7_star_plus_edge_counterexample():
    with criterion(7, "star-plus-edge counterexample values"):
        top_two = spectra.top_two_squares(star_plus_edge(20))
        assert abs(top_two - 20.372) <= 5e-3
        assert top_two > 20
        assert abs(spectra.spectral_radius(star_plus_edge(9)) - 3.0) <= 1e-9
        for m in range(11, 31):
            assert bounds.star_plus_lambda(m) < math.sqrt(m), m
        for m in range(4, 9):
            assert bounds.star_plus_lambda(m) > math.sqrt(m), m


def test_criterion_8_pendant_lemma():
    with criterion(8, "pendant attachment margins positive"):
        for a, b in ((2, 2), (2, 3), (3, 3), (2, 4)):
            report = bounds.lemma42_check(a, b)
            assert len(report.cases) == 7
            for case in report.cases:
                assert case.margin > 0, (a, b, case)


def test_criterion_9_property_suites():
    with criterion(9, "seeded property corpora all green"):
        rng = random.Random(91)
        # trace identities and Perron-Frobenius
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 10),
                             rng.choice([0.25, 0.5, 0.75]))
            s = spectra.eigenvalues(g)
            assert abs(sum(s.values)) <= 1e-8
            assert abs(sum(v * v for v in s.values) - 2 * g.m) <= 1e-7
            lam1 = s.values[0]
            assert all(abs(v) <= lam1 + 1e-9 for v in s.values)
            assert lam1 >= 2 * g.m / g.n - 1e-9
        # graph6 round-trip
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 12),
                             rng.choice([0.2, 0.5, 0.8]))
            assert from_graph6(to_graph6(g)) == g
        # canonical relabeling invariance: 1000 relabelings in total
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 10),
                             rng.choice([0.3, 0.6]))
            base = canonical_form(g)
            for _ in range(10):
                perm = list(range(g.n))
                rng.shuffle(perm)
                assert canonical_form(g.relabel(perm)) == base
        # f_min endpoint rule against a dense grid oracle
        for _ in range(1000):
            m = rng.randint(5, 400)
            x, y = rng.uniform(-8, 0), rng.uniform(-8, 0)
            a, b = min(x, y), max(x, y)
            grid = np.linspace(a, b, 10001)
            oracle = float(np.min((math.sqrt(m - 2) + grid) * grid * grid))
            assert abs(bounds.f_min_on_interval(m, a, b) - oracle) <= 1e-9
