import json
import math
import multiprocessing
import os
import signal
import time
from dataclasses import asdict, replace
from itertools import combinations, product

import networkx as nx
import pytest

from specbound import certify, spectra
from specbound.certify import (
    BudgetError,
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
    report_to_json,
)
from specbound.graphs import (
    CANONICAL_MAX_N,
    Graph,
    GraphError,
    _canonical_labelling,
    blow_up,
    canonical_form,
    canonical_graph,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    erdos_extremal,
    from_graph6,
    is_bipartite,
    is_connected,
    is_triangle_free,
    path,
    s_odd,
    sk,
    to_graph6,
)

from conftest import run_child


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

    def test_enumeration_never_asks_admits(self, fresh_levels, monkeypatch):
        def admits(filt, g):
            raise AssertionError("enumerate_graphs asked ClassFilter.admits")

        monkeypatch.setattr(ClassFilter, "admits", admits)
        for f in (ClassFilter(triangle_free=True),  # edge
                  ClassFilter(non_bipartite=True),  # odd
                  ClassFilter(connected=True),  # conn
                  ClassFilter(connected=True, non_bipartite=True)):  # odd-conn
            assert list(enumerate_graphs(6, f))

    @pytest.mark.parametrize(
        "f", [ClassFilter(*flags, odd_girth_min=g)
              for flags in product((False, True), repeat=4)
              for g in (None, 5, 7, 9, 11)],
        ids=lambda f: f.describe().replace(" ", "+"))
    def test_growth_is_the_class(self, f):
        # no filter runs after the growth, so the growth alone must give
        # the unpruned level filtered by the class predicate, in order
        for m in range(1, 8):
            grown = [canonical_form(g) for g in enumerate_graphs(m, f)]
            admitted = [canonical_form(g) for g in enumerate_graphs(m)
                        if f.admits(g)]
            assert grown == admitted, m

    def test_odd_girth_lane_matches_flags(self):
        a = ClassFilter(triangle_free=True, c5_free=True)
        b = ClassFilter(odd_girth_min=7)
        for m in range(1, 8):
            ga = [canon6(g) for g in enumerate_graphs(m, a)]
            gb = [canon6(g) for g in enumerate_graphs(m, b)]
            assert ga == gb

    def test_equivalent_filters_share_a_prune_key(self):
        key = certify._prune_key
        assert key(ClassFilter(odd_girth_min=5)) == key(
            ClassFilter(triangle_free=True)) == (True, False, None)
        assert key(ClassFilter(odd_girth_min=7)) == key(
            ClassFilter(triangle_free=True, c5_free=True)) == (True, True, None)
        assert key(ClassFilter(odd_girth_min=3)) == key(ClassFilter())
        assert key(ClassFilter(odd_girth_min=4)) == key(
            ClassFilter(triangle_free=True))
        assert key(ClassFilter(odd_girth_min=8)) == key(
            ClassFilter(triangle_free=True, odd_girth_min=9)) == (False, False, 9)
        assert key(ClassFilter(c5_free=True)) != key(
            ClassFilter(triangle_free=True))

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

    def test_arguments_checked_by_the_call(self):
        # the call itself raises, before anything is iterated
        with pytest.raises(BudgetError):
            enumerate_graphs(99)
        with pytest.raises(GraphError):
            enumerate_graphs(5, jobs=0)
        with pytest.raises(GraphError):
            enumerate_graphs(0)

    def test_no_isolated_vertices(self):
        for g in enumerate_graphs(5):
            assert all(g.degree(v) > 0 for v in range(g.n))

    def test_parallel_levels_match_serial(self):
        serial = [canon6(g) for g in
                  enumerate_graphs(6, ClassFilter(c5_free=True))]
        # the serial call above cached the levels for this prune key, so
        # jobs=2 reads that cache; test_pool_levels_match_serial starts the
        # enumeration pool on levels that are not cached yet
        parallel = [canon6(g) for g in
                    enumerate_graphs(6, ClassFilter(c5_free=True), jobs=2)]
        assert serial == parallel

    def test_pool_levels_match_serial(self, fresh_levels, pool_starts):
        growth = ("edge", (True, False, None))
        pooled = certify._levels_up_to(7, growth, jobs=2)
        fresh_levels()
        serial = certify._levels_up_to(7, growth)
        assert pool_starts() == 1
        assert pooled == serial

    @pytest.mark.parametrize("non_bipartite", [False, True])
    def test_one_pool_per_process(self, fresh_levels, pool_starts,
                                  non_bipartite):
        # the pool lives as long as the level store: the second build
        # reuses the pool that the first one started
        growth = ("odd" if non_bipartite else "edge", (True, False, None))

        def fresh_build(jobs):
            fresh_levels()
            levels = certify._levels_up_to(9, growth, jobs)
            return [list(level.items()) for level in levels]

        pooled = [fresh_build(2), fresh_build(2)]
        assert pool_starts() == 1
        assert pooled == [fresh_build(1)] * 2

    def test_another_worker_count_replaces_the_pool(self, fresh_levels,
                                                    pool_starts):
        growth = ("edge", (True, False, None))
        certify._levels_up_to(7, growth, jobs=2)
        fresh_levels()
        certify._levels_up_to(7, growth, jobs=3)
        assert pool_starts() == 2
        # the dropped pool's workers exit on their own, in the background
        deadline = time.monotonic() + 30
        while (len(multiprocessing.active_children()) > 3
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert len(multiprocessing.active_children()) == 3

    def test_broken_pool_is_not_served_again(self, fresh_levels,
                                             pool_starts):
        from concurrent.futures.process import BrokenProcessPool

        growth = ("edge", (True, False, None))
        certify._levels_up_to(7, growth, jobs=2)
        broken = certify._start_pool(2)
        assert len(broken._processes) == 2
        for pid in broken._processes:
            os.kill(pid, signal.SIGKILL)
        fresh_levels()
        with pytest.raises(BrokenProcessPool):
            certify._levels_up_to(7, growth, jobs=2)
        # the build after the broken one resumes on a new pool; dropping
        # the broken pool restarted the count
        pooled = certify._levels_up_to(7, growth, jobs=2)
        assert pool_starts() == 1
        assert certify._start_pool(2) is not broken
        fresh_levels()
        assert pooled == certify._levels_up_to(7, growth)

    def test_one_reset_rebuilds_every_growth(self, monkeypatch,
                                             fresh_levels):
        odd = [ClassFilter(triangle_free=True, non_bipartite=True),
               ClassFilter(triangle_free=True, c5_free=True,
                           non_bipartite=True),
               ClassFilter(odd_girth_min=9, non_bipartite=True)]

        def build():
            list(enumerate_graphs(9, ClassFilter(triangle_free=True)))
            for filt in odd:
                list(enumerate_graphs(9, filt))
            graphs_on_vertices(5)
            return {growth: [list(level) for level in levels]
                    for growth, levels in certify._LEVELS.items()}

        built = build()
        assert {kind for kind, _ in built} == {"edge", "odd", "vertex"}
        fresh_levels()
        grown = set()
        real = certify._grow

        def counting_grow(growth, parents):
            grown.add(growth)
            return real(growth, parents)

        monkeypatch.setattr(certify, "_grow", counting_grow)
        assert build() == built
        assert grown == set(built)
        assert built["edge", (True, False, None)][1] == [
            canonical_form(path(2))]
        assert built["vertex", True][1] == [canonical_form(Graph(1, ()))]
        # the first odd cycle each key allows is the first root
        for filt, k in zip(odd, (5, 7, 9)):
            levels = built["odd", certify._prune_key(filt)]
            assert [len(level) for level in levels[:k]] == [0] * k
            assert levels[k] == [canonical_form(cycle(k))]

    def test_import_loads_no_process_pool(self):
        code = ("import json, sys, specbound\n"
                "print(json.dumps(sorted({'concurrent.futures',"
                " 'multiprocessing'} & set(sys.modules))))\n")
        assert run_child(code) == []

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, fresh_levels, pool_starts, jobs):
        with pytest.raises(GraphError, match="jobs"):
            list(enumerate_graphs(9, ClassFilter(triangle_free=True), jobs))
        assert pool_starts() == 0
        assert not certify._LEVELS

    def test_class_from_two_parents_is_an_error(self):
        g = path(3)
        with pytest.raises(RuntimeError, match="two parents"):
            certify._union([(canonical_form(g), g), (canonical_form(g), g)])

    def test_canonical_form_calls_per_class(self, monkeypatch, fresh_levels):
        # the acceptance rule labels each class about 2.5 times (the class
        # itself plus tied deletions); labelling every augmentation would
        # cost about 12.5
        real = certify.canonical_form
        calls = []

        def counting_form(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(certify, "canonical_form", counting_form)
        list(enumerate_graphs(9, ClassFilter(triangle_free=True)))
        classes = sum(map(len, certify._LEVELS["edge", (True, False, None)]))
        assert len(calls) <= 4 * classes

    def test_non_bipartite_pool_levels_match_serial(self, fresh_levels,
                                                    pool_starts):
        filt = ClassFilter(triangle_free=True, non_bipartite=True)
        pooled = [canon6(g) for g in enumerate_graphs(9, filt, jobs=2)]
        pooled_levels = certify._LEVELS
        fresh_levels()
        serial = [canon6(g) for g in enumerate_graphs(9, filt)]
        assert pool_starts() == 1
        assert pooled == serial
        assert pooled_levels == certify._LEVELS

    def test_non_bipartite_canonical_form_calls_per_class(self, monkeypatch,
                                                          fresh_levels):
        # odd-cycle roots and the allowed-piece test keep the rule's cost
        # per class at about 2.1 labellings, within the full levels' bound
        real = certify.canonical_form
        calls = []

        def counting_form(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(certify, "canonical_form", counting_form)
        list(enumerate_graphs(10, ClassFilter(triangle_free=True,
                                              non_bipartite=True)))
        levels = certify._LEVELS["odd", (True, False, None)]
        classes = sum(map(len, levels))
        assert classes == 1 + 2 + 9 + 28 + 107 + 379
        assert len(calls) <= 4 * classes

    def test_edge_and_vertex_levels_agree_cell_by_cell(self):
        # the edge- and vertex-indexed growths apply the same acceptance
        # rule to different pieces (tests/test_enumeration_oracle.py checks
        # both against dictionary deduplication), so each (m, n) cell holds
        # the same classes from either side: the triangle-free connected
        # ones for m <= 10 and 2 <= n <= 8, and the unrestricted ones with
        # no isolated vertex for m = 7
        def cells(graphs):
            out = {}
            for g in graphs:
                out.setdefault((g.m, g.n), set()).add(canonical_form(g))
            return out

        conn = ClassFilter(triangle_free=True, connected=True)
        by_edges = cells(g for m in range(1, 11)
                         for g in enumerate_graphs(m, conn) if g.n <= 8)
        by_vertices = cells(g for n in range(2, 9)
                            for g in graphs_on_vertices(n, connected=True)
                            if g.m <= 10)
        assert by_edges == by_vertices
        assert len(by_edges) == 21
        assert sum(map(len, by_edges.values())) == 278

        by_edges = cells(g for g in enumerate_graphs(7) if g.n <= 8)
        by_vertices = cells(
            g for n in range(2, 9)
            for g in graphs_on_vertices(n, triangle_free=False)
            if g.m == 7 and all(g.degree(v) > 0 for v in range(g.n)))
        assert by_edges == by_vertices


class TestEdgeBudgets:
    """Non-bipartite classes grow from odd cycles and get their own budget;
    full levels keep EDGE_BUDGET."""

    @pytest.fixture
    def no_enumeration(self, monkeypatch):
        def no_levels(*args, **kwargs):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(certify, "_levels_up_to", no_levels)

    @pytest.mark.parametrize("filt, budget", [
        (ClassFilter(), 12),
        (ClassFilter(triangle_free=True), 12),
        (ClassFilter(triangle_free=True, c5_free=True), 12),
        (ClassFilter(non_bipartite=True), 12),
        (ClassFilter(c5_free=True, non_bipartite=True), 12),
        (ClassFilter(triangle_free=True, non_bipartite=True), 13),
        (ClassFilter(odd_girth_min=5, non_bipartite=True), 13),
        (ClassFilter(triangle_free=True, c5_free=True, non_bipartite=True),
         14),
        (ClassFilter(odd_girth_min=7, non_bipartite=True), 14),
        (ClassFilter(odd_girth_min=9, non_bipartite=True), 15),
        (ClassFilter(odd_girth_min=11, non_bipartite=True), 15),
    ], ids=lambda v: v.describe() if isinstance(v, ClassFilter) else str(v))
    def test_one_past_the_budget_raises_before_enumerating(
            self, no_enumeration, filt, budget):
        assert certify.edge_budget(filt) == budget
        with pytest.raises(BudgetError, match=f"m <= {budget}"):
            list(enumerate_graphs(budget + 1, filt))

    @pytest.mark.parametrize("certifier, args", [
        (certify_nosal, (13,)),
        (certify_lnw_sum, (13,)),
        (explore_booksize, (13,)),
        (certify_thm15, (14,)),
        (certify_zhai_shu, (14,)),
        (certify_main, (15,)),
        (certify_conj51, (15, 1)),
        (certify_conj51, (15, 2)),
        # m = 16 is one past the k = 3 budget, but conj51 needs odd m
        (certify_conj51, (17, 3)),
        # far past: K_{1,41}, the 40-edge blow-ups of P5 and the extremal
        # graphs of the three others pass the canonical-form limit of 40
        # vertices
        (certify_nosal, (41,)),
        (certify_lnw_sum, (40,)),
        (certify_zhai_shu, (201,)),
        (certify_main, (201,)),
        (certify_conj51, (101, 3)),
    ], ids=lambda v: getattr(v, "__name__", None) or "-".join(map(str, v)))
    def test_certifiers_past_their_budget(self, no_enumeration, monkeypatch,
                                          certifier, args):
        # the budget is checked before the bound or its equality set is
        # built: no graph is labelled
        def no_forms(g):
            raise AssertionError("canonical_form called")

        monkeypatch.setattr(certify, "canonical_form", no_forms)
        with pytest.raises(BudgetError, match="budget is m <= "):
            certifier(*args)

    @pytest.mark.parametrize("certifier, n", [
        (certify_mantel, 9),
        (certify_erdos, 9),
        (certify_erdos, 2000001),
    ], ids=lambda v: getattr(v, "__name__", None) or str(v))
    def test_vertex_certifiers_past_their_budget(
            self, no_enumeration, monkeypatch, certifier, n):
        # the vertex budget is checked before any level is built or any
        # graph labelled
        def no_forms(g):
            raise AssertionError("canonical_form called")

        monkeypatch.setattr(certify, "canonical_form", no_forms)
        with pytest.raises(BudgetError, match="vertex budget is n <= 8"):
            certifier(n)


class TestVertexEnumeration:
    def test_triangle_free_counts(self):
        # connected + disconnected triangle-free graphs on n vertices,
        # cross-checked against the atlas
        counts: dict[int, int] = {}
        for g in nx.generators.atlas.graph_atlas_g()[1:]:
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
        assert _blowup_equality(4, (path(2), disjoint_union(path(2), path(2)),
                                    path(4), path(5))) == want

    def test_blowups_of_p2_are_the_complete_bipartite_graphs(self):
        # K_{1,m} has m + 1 vertices, so m stops below the canonical limit
        for m in range(1, CANONICAL_MAX_N):
            want = {canon6(complete_bipartite(s, m // s))
                    for s in range(1, m + 1) if m % s == 0}
            assert _blowup_equality(m, (path(2),)) == want, m

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

    def test_mantel_violation_path(self, monkeypatch):
        # a graph with more than floor(n^2/4) edges is the counterexample
        real = certify._certifier_level
        k5 = complete(5)
        monkeypatch.setattr(certify, "_certifier_level",
                            lambda *args, **kw: real(*args, **kw) + [k5])
        r = certify_mantel(5)
        assert r.verdict == "VIOLATED"
        assert r.max_lambda == 10.0
        assert r.counterexamples == (canon6(k5),)

    def test_erdos_above_the_bound_path(self, monkeypatch):
        # a graph with more edges than the bound is the only maximizer, and
        # the maximizers are the counterexamples
        real = certify._certifier_level
        k6 = complete(6)
        monkeypatch.setattr(certify, "_certifier_level",
                            lambda *args, **kw: real(*args, **kw) + [k6])
        r = certify_erdos(6)
        assert r.verdict == "VIOLATED"
        assert r.max_lambda == 15.0
        assert r.maximizers == (canon6(k6),)
        assert r.counterexamples == r.maximizers

    def test_erdos_violation_path(self, monkeypatch):
        # with no construction among the maximizers, they are the
        # counterexamples
        real = certify._certifier_level
        built = {canon6(erdos_extremal(6, k)) for k in (1, 2)}
        monkeypatch.setattr(
            certify, "_certifier_level", lambda *args, **kw: [
                g for g in real(*args, **kw) if canon6(g) not in built])
        r = certify_erdos(6)
        assert r.verdict == "VIOLATED"
        assert r.maximizers and not built & set(r.maximizers)
        assert r.counterexamples == r.maximizers


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

    @pytest.mark.parametrize("m", [1, 2])
    def test_empty_survey_writes_strict_json(self, tmp_path, m):
        # K_{1,m} is the only class at or above the cut, so there are no
        # rows, and every number in the file is finite
        def no_constant(name):
            raise AssertionError(f"{name} is not JSON")

        r = explore_booksize(m)
        assert r.rows == () and r.min_booksize == 0
        assert r.min_ratio == 0.0
        path = tmp_path / f"b{m}.json"
        report_to_json(r, path)
        written = json.loads(path.read_text(), parse_constant=no_constant)
        assert written["min_ratio"] == 0.0


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

    @pytest.mark.parametrize("k, certifier", [(1, certify_zhai_shu),
                                              (2, certify_main)])
    def test_reuses_the_equivalent_theorems_levels(self, fresh_levels, k,
                                                   certifier):
        # the non-bipartite certifiers build only connected levels: the
        # non-bipartite ones, and the bipartite ones they count with
        certifier(9)
        built = {growth: len(levels)
                 for growth, levels in certify._LEVELS.items()}
        assert built and {kind for kind, _ in built} == {"odd-conn", "conn"}
        certify_conj51(9, k)
        assert {growth: len(levels)
                for growth, levels in certify._LEVELS.items()} == built

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


class TestConnectedReports:
    """The non-bipartite, Mantel and Erdos certifiers examine only the
    connected classes and count the others.  Their reports must equal the
    ones the full levels give: the same level read of the growth without
    "-conn" returns every class of the full levels."""

    FULL = {"odd-conn": "odd", "conn": "edge", "vertex-conn": "vertex"}

    @pytest.mark.parametrize("certifier, args", [
        *[(certify_thm15, (m,)) for m in range(3, 11)],
        *[(certify_zhai_shu, (m,)) for m in range(5, 11)],
        *[(certify_main, (m,)) for m in range(7, 12)],
        (certify_conj51, (9, 3)),
        (certify_conj51, (11, 3)),
        *[(certify_mantel, (n,)) for n in range(2, 8)],
        *[(certify_erdos, (n,)) for n in range(5, 8)],
    ], ids=lambda v: getattr(v, "__name__", None) or "-".join(map(str, v)))
    def test_fields_match_the_full_levels(self, monkeypatch, certifier,
                                          args):
        report = certifier(*args)
        real = certify._certifier_level
        full = []

        def every_graph(m, growth, jobs):
            kind, arg = growth
            full.extend(real(m, (self.FULL[kind], arg), jobs))
            return full

        monkeypatch.setattr(certify, "_certifier_level", every_graph)
        want = certifier(*args)
        if certifier is certify_erdos:
            full = [g for g in full if not is_bipartite(g)]
        assert report.graphs_examined == len(full)
        assert report.max_lambda.hex() == want.max_lambda.hex()
        assert report.maximizers == want.maximizers
        assert report.verdict == want.verdict
        assert report.counterexamples == want.counterexamples


class TestUnlabelledTop:
    """A certifier reads the graphs and sizes of its levels, not their
    forms, so the top level of its request keeps unlabelled the classes
    that need no form to be accepted once (untied ones, and tied ones whose
    ties are twin swaps of the new piece) until a reader that needs forms
    labels it."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("growth, top", [
        (("edge", (True, False, None)), 9),
        (("conn", (True, False, None)), 9),
        (("edge", (False, False, None)), 7),
        (("conn", (False, False, None)), 7),
        (("odd", (True, False, None)), 10),
        (("odd-conn", (True, False, None)), 10),
        (("odd", (True, True, None)), 11),
        (("odd-conn", (True, True, None)), 11),
        (("vertex", True), 7),
        (("vertex-conn", True), 7),
        (("vertex", False), 7),
        (("vertex-conn", False), 7),
    ], ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else None)
    def test_labelled_later_equals_labelled_when_built(
            self, fresh_levels, pool_starts, growth, top, jobs):
        # each level is first a certifier's top, then the next level's
        # parents; the last is labelled by a reader that needs its forms
        sizes = []
        for m in range(1, top + 1):
            level = certify._graph_levels(m, growth, jobs)[m]
            assert level is certify._LEVELS[growth].top
            assert len(certify._LEVELS[growth]) == m
            sizes.append(len(level))
        later = certify._levels_up_to(top, growth, jobs)
        assert later.top is None
        fresh_levels()
        built = certify._levels_up_to(top, growth, jobs)
        assert [[(c, g.n, g.edges) for c, g in level.items()]
                for level in later] \
            == [[(c, g.n, g.edges) for c, g in level.items()]
                for level in built]
        assert sizes == [len(level) for level in built[1:]]

    @pytest.mark.parametrize("edges, piece, swapped", [
        # K_{1,3} grown by its leaf 3: the leaves are twins
        (((0, 1), (0, 2), (0, 3)), 1, True),
        # P_4 grown by the leaf 3 at 0: 2 hangs from 1, not from 0
        (((0, 1), (1, 2), (0, 3)), 2, False),
        # C_4 closed by (0, 3): 0, 2 and 1, 3 are twins
        (((0, 1), (1, 2), (2, 3), (0, 3)), (1, 2), True),
        # P_4 grown by (2, 3): the shared end 2 is no twin swap of 3 and 1
        (((0, 1), (1, 2), (2, 3)), (1, 2), False),
    ])
    def test_twin_swaps(self, edges, piece, swapped):
        masks = Graph(4, edges)._masks
        assert certify._twin_swap(masks, edges, piece) is swapped

    def test_an_enumerator_called_by_a_certifier_is_labelled(
            self, monkeypatch, fresh_levels):
        # the public enumerators return a labelled level in canonical-form
        # order whoever calls them, a certifier's callback included
        got = []
        real = spectra.spectral_radius
        filt = ClassFilter(triangle_free=True)

        def quantity(g):
            if not got:
                got.extend(enumerate_graphs(8, filt))
            return real(g)

        monkeypatch.setattr(spectra, "spectral_radius", quantity)
        assert certify_thm15(9).verdict == "HOLDS"
        assert got
        forms = [canonical_form(g) for g in got]
        assert len(forms) == 267
        assert forms[0] == b"E]r?"
        assert forms == sorted(set(forms))
        assert certify._LEVELS["edge", (True, False, None)].top is None

    def test_promotion_gives_the_fresh_reports(self, fresh_levels):
        def reports(ms):
            fresh_levels()
            return {m: replace(certify_zhai_shu(m), wall_time=0.0)
                    for m in ms}

        assert reports((9, 10)) == reports((10, 9))

    @pytest.mark.parametrize("certifier, m, key", [
        (certify_zhai_shu, 10, (True, False, None)),
        (certify_main, 12, (True, True, None)),
    ], ids=["zhai-shu", "main"])
    def test_fewer_labellings_than_classes(self, fresh_levels, certifier, m,
                                           key):
        # every class but the unlabelled ones of the top level is labelled
        # once, and tied deletions add a few more
        _canonical_labelling.cache_clear()
        certifier(m)
        levels = certify._LEVELS["odd-conn", key]
        assert len(levels) == m and levels.top
        classes = sum(map(len, levels)) + len(levels.top)
        assert canonical_graph.cache_info().misses < classes


class TestReports:
    @staticmethod
    def written(report, tmp_path):
        """The JSON file `report_to_json` writes for `report`, parsed."""
        path = tmp_path / "report.json"
        report_to_json(report, path)
        text = path.read_text()
        assert text.endswith("}\n")
        return json.loads(text)

    def test_json_file_parses_to_fields(self, tmp_path):
        r = certify_zhai_shu(7)
        # JSON has no tuples: compare with the fields as lists
        assert self.written(r, tmp_path) == json.loads(json.dumps(asdict(r)))

    def test_render_text_mentions_verdict(self):
        r = certify_thm15(6)
        text = r.render_text()
        assert "HOLDS" in text and "thm15" in text

    def test_violation_path(self):
        # a deliberately wrong bound must produce a counterexample
        r = _lambda_certify(
            "synthetic", 5, ClassFilter(triangle_free=True),
            lambda: (1.5, set()), spectra.spectral_radius, 1,
        )
        assert r.verdict == "VIOLATED"
        assert r.counterexamples

    def test_equality_mismatch_path(self):
        # correct bound but wrong expected equality set: VIOLATED
        r = _lambda_certify(
            "synthetic", 4, ClassFilter(triangle_free=True),
            lambda: (2.0, {canon6(complete_bipartite(1, 4))}),
            spectra.spectral_radius, 1,
        )
        assert r.verdict == "VIOLATED"
        assert canon6(complete_bipartite(2, 2)) in r.counterexamples

    def test_parallel_report_matches_serial(self):
        a = certify_nosal(6, jobs=1)
        b = certify_nosal(6, jobs=2)
        da, db = asdict(a), asdict(b)
        da.pop("wall_time")
        db.pop("wall_time")
        assert da == db

    def test_no_isomorphic_maximizer_duplicates(self):
        for r in (certify_nosal(9), certify_lnw_sum(8), certify_mantel(6)):
            assert len(set(r.maximizers)) == len(r.maximizers)

    def test_booksize_json_file_parses_to_fields(self, tmp_path):
        r = explore_booksize(4)
        assert len(r.rows) == 2
        written = self.written(r, tmp_path)
        assert written["rows"][1] == {
            "graph6": "D`K", "spectral_radius": 2.0, "booksize": 1}
        assert written == json.loads(json.dumps(asdict(r)))

    def test_vertex_budget_boundary(self):
        assert certify_mantel(8).verdict == "HOLDS_WITH_EQUALITY"
        r = certify_erdos(8)
        assert r.verdict == "HOLDS_WITH_EQUALITY"
        assert int(r.bound) == 7 ** 2 // 4 + 1
