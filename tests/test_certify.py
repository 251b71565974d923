import json
import math
from itertools import combinations

import networkx as nx
import pytest

from specbound import bounds, spectra
from specbound.certify import (
    BudgetError,
    CertificationReport,
    ClassFilter,
    _blowup_equality,
    _lambda_certify,
    certify_conj51,
    certify_erdos,
    certify_lnw_sum,
    certify_main,
    certify_mantel,
    certify_nosal,
    certify_thm15,
    certify_zhai_shu,
    enumerate_graphs,
    explore_booksize,
    graphs_on_vertices,
    is_complete_bipartite,
)
from specbound.graphs import (
    Graph,
    blow_up,
    canonical_form,
    canonical_graph,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    erdos_extremal,
    from_graph6,
    is_connected,
    is_triangle_free,
    path,
    s_odd,
    sk,
    to_graph6,
)


def canon6(g: Graph) -> str:
    return to_graph6(canonical_graph(g))


class TestEnumeration:
    def test_counts_match_graph_atlas(self):
        # independent oracle: all graphs on <= 7 vertices
        atlas_counts: dict[int, int] = {}
        for g in nx.generators.atlas.graph_atlas_g()[1:]:
            if g.number_of_nodes() == 0:
                continue
            if any(d == 0 for _, d in g.degree()):
                continue
            m = g.number_of_edges()
            atlas_counts[m] = atlas_counts.get(m, 0) + 1
        for m in range(1, 7):
            mine = sum(1 for g in enumerate_graphs(m) if g.n <= 7)
            assert mine == atlas_counts[m]

    def test_counts_match_naive_labeled_scan(self):
        # second oracle: scan every labeled graph with m edges on every
        # possible support size, canonicalize, deduplicate
        for m in range(1, 5):
            forms = set()
            for n in range(2, 2 * m + 1):
                pairs = list(combinations(range(n), 2))
                for chosen in combinations(pairs, m):
                    covered = set()
                    for u, v in chosen:
                        covered.add(u)
                        covered.add(v)
                    if len(covered) != n:
                        continue
                    forms.add(canonical_form(Graph(n, chosen)))
            assert sum(1 for _ in enumerate_graphs(m)) == len(forms)

    def test_triangle_free_filter_counts(self):
        # pruned lane must agree with post-filtering the unpruned lane
        for m in range(1, 7):
            pruned = sum(
                1 for _ in enumerate_graphs(m, ClassFilter(triangle_free=True))
            )
            filtered = sum(
                1 for g in enumerate_graphs(m) if is_triangle_free(g)
            )
            assert pruned == filtered

    def test_c3c5_free_filter_counts(self):
        f = ClassFilter(triangle_free=True, c5_free=True)
        for m in range(1, 7):
            pruned = sum(1 for _ in enumerate_graphs(m, f))
            filtered = sum(1 for g in enumerate_graphs(m) if f.admits(g))
            assert pruned == filtered

    def test_odd_girth_lane_matches_flags(self):
        a = ClassFilter(triangle_free=True, c5_free=True)
        b = ClassFilter(odd_girth_min=7)
        for m in range(1, 8):
            ga = [canon6(g) for g in enumerate_graphs(m, a)]
            gb = [canon6(g) for g in enumerate_graphs(m, b)]
            assert ga == gb

    def test_m5_connected_triangle_free_non_bipartite_is_c5(self):
        f = ClassFilter(connected=True, triangle_free=True, non_bipartite=True)
        got = list(enumerate_graphs(5, f))
        assert len(got) == 1
        assert canon6(got[0]) == canon6(cycle(5))

    def test_m3_non_bipartite_is_k3(self):
        got = list(enumerate_graphs(3, ClassFilter(non_bipartite=True)))
        assert len(got) == 1
        assert canon6(got[0]) == canon6(complete(3))

    def test_deterministic_order(self):
        a = [canon6(g) for g in enumerate_graphs(6, ClassFilter(triangle_free=True))]
        b = [canon6(g) for g in enumerate_graphs(6, ClassFilter(triangle_free=True))]
        assert a == b == sorted(a)

    def test_budget(self):
        with pytest.raises(BudgetError):
            list(enumerate_graphs(13))

    def test_no_isolated_vertices(self):
        for g in enumerate_graphs(5):
            assert all(g.degree(v) > 0 for v in range(g.n))

    def test_parallel_levels_match_serial(self):
        serial = [canon6(g) for g in
                  enumerate_graphs(6, ClassFilter(c5_free=True))]
        # the serial call above cached the levels for this prune key, so
        # jobs=2 reads that cache and does not start the enumeration pool
        parallel = [canon6(g) for g in
                    enumerate_graphs(6, ClassFilter(c5_free=True), jobs=2)]
        assert serial == parallel

    def test_m7_counts_against_vertex_growth(self):
        # dual-method completeness: the edge-indexed enumerator restricted to
        # n <= 8 must agree with the vertex-indexed one on 8 vertices
        by_vertices = 0
        for n in range(2, 9):
            for g in graphs_on_vertices(n, triangle_free=False):
                if g.m == 7 and all(g.degree(v) > 0 for v in range(g.n)):
                    by_vertices += 1
        by_edges = sum(1 for g in enumerate_graphs(7) if g.n <= 8)
        assert by_edges == by_vertices


class TestVertexEnumeration:
    def test_triangle_free_counts(self):
        # connected + disconnected triangle-free graphs on n vertices,
        # cross-checked against the atlas
        atlas = [g for g in nx.generators.atlas.graph_atlas_g()[1:]
                 if nx.is_forest(g) or True]
        counts: dict[int, int] = {}
        for g in atlas:
            n = g.number_of_nodes()
            if n == 0:
                continue
            if sum(nx.triangles(g).values()) == 0:
                counts[n] = counts.get(n, 0) + 1
        for n in range(1, 8):
            assert len(graphs_on_vertices(n, triangle_free=True)) == counts[n]

    def test_budget(self):
        with pytest.raises(BudgetError):
            graphs_on_vertices(9)


class TestNosal:
    def test_m4_maximizers(self):
        r = certify_nosal(4)
        assert r.verdict == "HOLDS_WITH_EQUALITY"
        assert set(r.maximizers) == {
            canon6(complete_bipartite(1, 4)), canon6(complete_bipartite(2, 2))
        }
        assert r.max_lambda == pytest.approx(2.0, abs=1e-9)

    def test_m9_maximizers(self):
        r = certify_nosal(9)
        assert set(r.maximizers) == {
            canon6(complete_bipartite(1, 9)), canon6(complete_bipartite(3, 3))
        }
        assert r.max_lambda == pytest.approx(3.0, abs=1e-9)

    def test_m5_maximizer(self):
        r = certify_nosal(5)
        assert r.maximizers == (canon6(complete_bipartite(1, 5)),)
        assert r.max_lambda == pytest.approx(math.sqrt(5), abs=1e-9)


class TestLnw:
    def test_blowup_equality_set_m4(self):
        want = {
            canon6(complete_bipartite(1, 4)),
            canon6(complete_bipartite(2, 2)),
            canon6(disjoint_union(path(2), complete_bipartite(1, 3))),
            canon6(disjoint_union(path(3), path(3))),
            canon6(blow_up(path(4), (1, 1, 1, 2))),
            canon6(path(5)),
        }
        assert _blowup_equality(4) == want

    def test_small_m(self):
        for m in range(2, 7):
            r = certify_lnw_sum(m)
            assert r.verdict == "HOLDS_WITH_EQUALITY"
            assert r.bound == m

    def test_single_edge_rejected(self):
        # K2 has spectrum {1, -1}: the bound needs the isolated-vertex
        # convention there, so the certifier refuses m = 1
        from specbound.graphs import GraphError
        assert spectra.top_two_squares(path(2)) == pytest.approx(2.0)
        with pytest.raises(GraphError):
            certify_lnw_sum(1)

    def test_counterexample_outside_class(self):
        # the C4-free star-plus-edge graph shows the triangle-free hypothesis
        # is needed: its top-two square sum exceeds m
        from specbound.graphs import star_plus_edge
        assert spectra.top_two_squares(star_plus_edge(20)) > 20

    def test_k1_trivial(self):
        assert spectra.top_two_squares(Graph(1, ())) == 0.0


class TestThm15:
    def test_equality_at_5(self):
        r = certify_thm15(5)
        assert r.verdict == "HOLDS_WITH_EQUALITY"
        assert r.maximizers == (canon6(cycle(5)),)

    def test_strict_at_6_and_7(self):
        for m in (6, 7):
            r = certify_thm15(m)
            assert r.verdict == "HOLDS"
            assert r.max_lambda < r.bound - 1e-6


class TestZhaiShu:
    @pytest.mark.parametrize("m", [5, 7, 9])
    def test_odd_equality(self, m):
        r = certify_zhai_shu(m)
        assert r.verdict == "HOLDS_WITH_EQUALITY"
        assert r.maximizers == (canon6(sk(2, (m - 1) // 2)),)

    @pytest.mark.parametrize("m", [6, 8])
    def test_even_strict(self, m):
        r = certify_zhai_shu(m)
        assert r.verdict == "HOLDS"
        assert r.max_lambda < r.bound - 1e-6

    def test_maximizers_connected(self):
        for m in (6, 8, 9):
            for s in certify_zhai_shu(m).maximizers:
                assert is_connected(from_graph6(s))


class TestMain:
    @pytest.mark.parametrize("m", [7, 9])
    def test_odd_equality(self, m):
        r = certify_main(m)
        assert r.verdict == "HOLDS_WITH_EQUALITY"
        assert r.maximizers == (canon6(s_odd(2, (m - 3) // 2, 2)),)

    def test_even_strict(self):
        r = certify_main(8)
        assert r.verdict == "HOLDS"

    def test_m10_strict(self):
        r = certify_main(10)
        assert r.verdict == "HOLDS"
        assert r.max_lambda < r.bound - 1e-6


class TestMantelErdos:
    def test_mantel_n5(self):
        r = certify_mantel(5)
        assert r.verdict == "HOLDS_WITH_EQUALITY"
        assert int(r.max_lambda) == 6 == 5 * 5 // 4
        assert r.maximizers == (canon6(complete_bipartite(2, 3)),)

    def test_mantel_small(self):
        for n in range(2, 8):
            assert certify_mantel(n).verdict == "HOLDS_WITH_EQUALITY"

    def test_erdos_n5(self):
        r = certify_erdos(5)
        assert r.verdict == "HOLDS_WITH_EQUALITY"
        assert int(r.bound) == 5
        assert r.maximizers == (canon6(cycle(5)),)

    def test_erdos_n6_construction_attains(self):
        r = certify_erdos(6)
        assert r.verdict == "HOLDS_WITH_EQUALITY"
        assert int(r.bound) == 7
        assert canon6(erdos_extremal(6, 1)) in r.maximizers


class TestBooksize:
    def test_m3(self):
        r = explore_booksize(3)
        assert len(r.rows) == 1
        row = r.rows[0]
        assert row.graph6 == canon6(complete(3))
        assert row.booksize == 1
        assert row.spectral_radius == pytest.approx(2.0, abs=1e-9)

    def test_m6_fresh(self):
        r = explore_booksize(6)
        assert r.graphs_examined == 68
        assert r.min_booksize >= 1
        assert r.nikiforov_ok
        assert canon6(complete(4)) in {row.graph6 for row in r.rows}

    def test_nikiforov_floor(self):
        for m in range(3, 8):
            r = explore_booksize(m)
            for row in r.rows:
                assert row.booksize > m ** 0.25 / 12

    def test_complete_bipartite_detector(self):
        assert is_complete_bipartite(complete_bipartite(2, 3))
        assert not is_complete_bipartite(cycle(5))
        assert not is_complete_bipartite(disjoint_union(path(2), path(2)))
        assert not is_complete_bipartite(sk(2, 2))


class TestConjecture51:
    def test_k1_reduces_to_zhai_shu(self):
        r1 = certify_conj51(9, 1)
        r2 = certify_zhai_shu(9)
        assert r1.bound == pytest.approx(r2.bound, abs=1e-8)
        assert r1.maximizers == r2.maximizers
        assert r1.conjecture

    def test_k2_reduces_to_main(self):
        r1 = certify_conj51(9, 2)
        r2 = certify_main(9)
        assert r1.bound == pytest.approx(r2.bound, abs=1e-8)
        assert r1.maximizers == r2.maximizers

    def test_k3_m9_is_c9(self):
        r = certify_conj51(9, 3)
        assert r.graphs_examined == 1
        assert r.bound == pytest.approx(2.0, abs=1e-9)
        assert r.verdict == "HOLDS_WITH_EQUALITY"
        assert r.maximizers == (canon6(cycle(9)),)

    def test_even_m_rejected(self):
        from specbound.graphs import GraphError
        with pytest.raises(GraphError):
            certify_conj51(8, 2)


class TestReports:
    def test_json_round_trip(self):
        r = certify_zhai_shu(7)
        blob = json.dumps(r.to_json_dict())
        back = CertificationReport.from_json_dict(json.loads(blob))
        assert back == r

    def test_render_text_mentions_verdict(self):
        r = certify_thm15(6)
        text = r.render_text()
        assert "HOLDS" in text and "thm15" in text

    def test_violation_path(self):
        # a deliberately wrong bound must produce a counterexample
        r = _lambda_certify(
            "synthetic", 5, ClassFilter(triangle_free=True), 1.5, set(),
            spectra.spectral_radius, 1,
        )
        assert r.verdict == "VIOLATED"
        assert r.counterexamples

    def test_equality_mismatch_path(self):
        # correct bound but wrong expected equality set: VIOLATED
        r = _lambda_certify(
            "synthetic", 4, ClassFilter(triangle_free=True), 2.0,
            {canon6(complete_bipartite(1, 4))}, spectra.spectral_radius, 1,
        )
        assert r.verdict == "VIOLATED"
        assert canon6(complete_bipartite(2, 2)) in r.counterexamples

    def test_parallel_report_matches_serial(self):
        a = certify_nosal(6, jobs=1)
        b = certify_nosal(6, jobs=2)
        da, db = a.to_json_dict(), b.to_json_dict()
        da.pop("wall_time")
        db.pop("wall_time")
        assert da == db

    def test_no_isomorphic_maximizer_duplicates(self):
        for r in (certify_nosal(9), certify_lnw_sum(8), certify_mantel(6)):
            assert len(set(r.maximizers)) == len(r.maximizers)

    def test_booksize_json_round_trip(self):
        from specbound.certify import BooksizeReport
        r = explore_booksize(4)
        blob = json.dumps(r.to_json_dict())
        assert BooksizeReport.from_json_dict(json.loads(blob)) == r

    def test_vertex_budget_boundary(self):
        assert certify_mantel(8).verdict == "HOLDS_WITH_EQUALITY"
        r = certify_erdos(8)
        assert r.verdict == "HOLDS_WITH_EQUALITY"
        assert int(r.bound) == 7 ** 2 // 4 + 1
