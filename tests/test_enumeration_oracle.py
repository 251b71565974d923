"""Reference generator for the canonical-augmentation enumerators.

The reference grows every augmentation of every class one level up and
deduplicates by canonical form in one dictionary per level, the method the
enumerators used before canonical augmentation.  It shares only the pruning
rule (`_edge_allowed`) and `canonical_form` with them, so equal canonical-form
sets check the acceptance rule independently.  The non-bipartite levels,
grown from odd cycles, are checked against the full levels filtered by
`is_bipartite`, the connected levels against the full levels filtered by
`is_connected`, and the class counts the certifiers take from the connected
levels by the Euler transform against the sizes of the full levels.  Digests recorded from the earlier relabel-then-encode
labelling pin `canonical_form` and the stored levels bit for bit, and the
full-rank step-1 rule is kept here as the reference for the incremental one.
"""

import hashlib
import json
from dataclasses import asdict

import pytest
from hypothesis import example, given

from specbound import certify
from specbound.certify import (
    ClassFilter,
    _edge_allowed,
    _euler,
    _every_piece,
    _keeps_connected,
    _keeps_connected_odd_cycle,
    _keeps_odd_cycle,
    _non_bipartite_count,
    _not_a_cut_vertex,
    _prune_key,
)
from specbound.graphs import (
    Graph,
    canonical_form,
    cycle,
    disjoint_union,
    empty_graph,
    is_bipartite,
    is_connected,
    path,
)

from conftest import graphs_st, seeded_graphs

MAX_M = 8
MAX_N = 7


def reference_edge_levels(m: int, key) -> list[set[bytes]]:
    level = {canonical_form(path(2)): path(2)}
    out = [set(), set(level)]
    for _ in range(2, m + 1):
        grown: dict[bytes, Graph] = {}
        for g in level.values():
            n = g.n
            kids = [Graph(n, g.edges + ((u, v),))
                    for u in range(n) for v in range(u + 1, n)
                    if not g.has_edge(u, v) and _edge_allowed(g, u, v, key)]
            kids += [Graph(n + 1, g.edges + ((u, n),)) for u in range(n)]
            kids.append(Graph(n + 2, g.edges + ((n, n + 1),)))
            for h in kids:
                grown.setdefault(canonical_form(h), h)
        level = grown
        out.append(set(level))
    return out


def reference_vertex_levels(n: int, triangle_free: bool) -> list[set[bytes]]:
    level = {canonical_form(Graph(1, ())): Graph(1, ())}
    out = [set(), set(level)]
    for k in range(1, n):
        grown: dict[bytes, Graph] = {}
        for g in level.values():
            for nb in range(1 << k):
                new = [v for v in range(k) if nb >> v & 1]
                if triangle_free and any(g.mask(v) & nb for v in new):
                    continue
                h = Graph(k + 1, g.edges + tuple((v, k) for v in new))
                grown.setdefault(canonical_form(h), h)
        level = grown
        out.append(set(level))
    return out


def describe(v) -> str:
    return v.describe() if isinstance(v, ClassFilter) else str(v)


EDGE_FILTERS = [
    ClassFilter(),
    ClassFilter(c5_free=True),
    ClassFilter(triangle_free=True),
    ClassFilter(triangle_free=True, c5_free=True),
    ClassFilter(odd_girth_min=7),
    ClassFilter(odd_girth_min=9),
]
NON_BIPARTITE_FILTERS = [
    (ClassFilter(), 8),
    (ClassFilter(triangle_free=True), 10),
    (ClassFilter(triangle_free=True, c5_free=True), 10),
    (ClassFilter(odd_girth_min=9), 10),
]


@pytest.mark.parametrize("filt", EDGE_FILTERS, ids=describe)
def test_edge_levels_match_reference(filt):
    key = _prune_key(filt)
    levels = certify._levels_up_to(MAX_M, ("edge", key))
    for m, want in enumerate(reference_edge_levels(MAX_M, key)):
        assert [c for c, _ in levels[m]] == sorted(want)
        assert all(canonical_form(g) == c for c, g in levels[m])


@pytest.mark.parametrize("triangle_free", [True, False])
def test_vertex_levels_match_reference(triangle_free):
    want = reference_vertex_levels(MAX_N, triangle_free)
    for n in range(1, MAX_N + 1):
        got = [canonical_form(g) for g in
               certify.graphs_on_vertices(n, triangle_free)]
        assert got == sorted(want[n])


@pytest.mark.parametrize("filt, max_m", NON_BIPARTITE_FILTERS, ids=describe)
def test_non_bipartite_levels_match_filtered_levels(filt, max_m):
    key = _prune_key(filt)
    full = certify._levels_up_to(max_m, ("edge", key))
    grown = certify._levels_up_to(max_m, ("odd", key))
    for m in range(max_m + 1):
        want = [c for c, g in full[m] if not is_bipartite(g)]
        assert [c for c, _ in grown[m]] == want, m
        assert all(canonical_form(g) == c for c, g in grown[m])


# The connected growths keep every class the full growth stores, with the
# same representative, and drop the others; multisets of their classes
# count the full levels.


def stored(level: list) -> list:
    return [(c, g.n, g.edges) for c, g in level]


def connected_part(level: list) -> list:
    return [(c, g.n, g.edges) for c, g in level if is_connected(g)]


def sizes(levels: list) -> list[int]:
    return [len(level) for level in levels]


@pytest.mark.parametrize("filt", EDGE_FILTERS, ids=describe)
def test_connected_levels_match_filtered_levels(filt):
    key = _prune_key(filt)
    full = certify._levels_up_to(MAX_M, ("edge", key))
    conn = certify._levels_up_to(MAX_M, ("conn", key))
    for m in range(MAX_M + 1):
        assert stored(conn[m]) == connected_part(full[m]), m
    assert _euler(sizes(conn[:MAX_M + 1]))[1:] == sizes(full[1:MAX_M + 1])


@pytest.mark.parametrize("filt, max_m", NON_BIPARTITE_FILTERS, ids=describe)
def test_connected_non_bipartite_levels_match_filtered_levels(filt, max_m):
    key = _prune_key(filt)
    full = certify._levels_up_to(max_m, ("odd", key))
    conn = certify._levels_up_to(max_m, ("odd-conn", key))
    for m in range(max_m + 1):
        assert stored(conn[m]) == connected_part(full[m]), m
        assert _non_bipartite_count(m, key) == len(full[m]), m


@pytest.mark.parametrize("triangle_free", [True, False])
def test_connected_vertex_levels_match_filtered_levels(triangle_free):
    certify.graphs_on_vertices(MAX_N, triangle_free)
    full = certify._LEVELS["vertex", triangle_free]
    for n in range(1, MAX_N + 1):
        graphs = certify.graphs_on_vertices(n, triangle_free, connected=True)
        assert [(canonical_form(g), g.n, g.edges) for g in graphs] \
            == connected_part(full[n]), n
    conn = certify._LEVELS["vertex-conn", triangle_free][:MAX_N + 1]
    full = full[:MAX_N + 1]
    assert _euler(sizes(conn))[1:] == sizes(full)[1:]
    bipartite = [sum(is_bipartite(g) for _, g in level) for level in full]
    # the certifiers count from the graphs of each level
    graphs = certify._graph_levels(MAX_N, ("vertex-conn", triangle_free))
    assert _euler(certify._bipartite_sizes(graphs))[1:] == bipartite[1:]


@pytest.mark.parametrize("connected, everything", [
    # A024607 connected triangle-free graphs -> A006785 triangle-free graphs
    ([1, 1, 1, 3, 6, 19, 59, 267], [1, 2, 3, 7, 14, 38, 107, 410]),
    # A005142 connected bipartite graphs -> A033995 bipartite graphs
    ([1, 1, 1, 3, 5, 17, 44, 182], [1, 2, 3, 7, 13, 35, 88, 303]),
], ids=["triangle-free", "bipartite"])
def test_euler_transform_matches_oeis(connected, everything):
    assert _euler([0] + connected) == [1] + everything


def without_isolated_vertices(g: Graph) -> Graph:
    return g.induced(v for v in range(g.n) if g.mask(v))


@given(graphs_st(max_n=9))
@example(cycle(3))
@example(cycle(9))
@example(disjoint_union(cycle(5), path(2)))
@example(Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2))))
def test_only_odd_cycles_lack_an_allowed_piece(g):
    h = without_isolated_vertices(g)
    if is_bipartite(h):
        return
    pieces = [e for e in h.edges if _keeps_odd_cycle(h._masks, e)]
    assert pieces == [e for e in h.edges if not is_bipartite(
        Graph(h.n, tuple(f for f in h.edges if f != e)))]
    odd_cycle = h.n % 2 == 1 and canonical_form(h) == canonical_form(
        cycle(h.n))
    assert (not pieces) == odd_cycle


@given(graphs_st(max_n=9))
@example(path(2))
@example(path(4))
@example(cycle(5))
@example(Graph(4, ((0, 1), (1, 2), (2, 3), (0, 2))))
def test_connected_pieces_match_their_definition(g):
    h = without_isolated_vertices(g)
    if not h.m or not is_connected(h):
        return
    pieces = [e for e in h.edges if _keeps_connected(h._masks, e)]
    assert pieces == [e for e in h.edges if is_connected(
        without_isolated_vertices(Graph(h.n, tuple(f for f in h.edges
                                                    if f != e))))]
    assert pieces  # K2 leaves the empty graph, which is never asked about
    if not is_bipartite(h):
        odd = [e for e in h.edges
               if _keeps_connected_odd_cycle(h._masks, e)]
        assert odd == [e for e in pieces if _keeps_odd_cycle(h._masks, e)]
        odd_cycle = canonical_form(h) == canonical_form(cycle(h.n))
        assert (not odd) == odd_cycle
    cut = [v for v in range(h.n) if not _not_a_cut_vertex(h._masks, v)]
    assert cut == [v for v in range(h.n) if not is_connected(
        h.induced(w for w in range(h.n) if w != v))]
    assert len(cut) <= h.n - 2


# The growths ask every piece test about one shared list of the child's
# masks, so a test that cleared an edge or a vertex in place would change the
# answers to the pieces asked after it.


@pytest.mark.parametrize("allowed, pieces", [
    (_keeps_odd_cycle, lambda g: g.edges),
    (_keeps_connected, lambda g: g.edges),
    (_keeps_connected_odd_cycle, lambda g: g.edges),
    (_not_a_cut_vertex, lambda g: range(g.n)),
], ids=["odd-cycle", "connected", "connected-odd-cycle", "cut-vertex"])
def test_piece_tests_leave_the_masks_unchanged(allowed, pieces):
    for g in seeded_graphs(29, 200, 9):
        masks = list(g._masks)
        for f in pieces(g):
            allowed(masks, f)
            assert masks == list(g._masks), (g, f)


# sha256 digests recorded before canonical forms were read off the labelling
# search; a labelling that is valid but different changes them
CORPUS_DIGEST = (
    "0c7f74d91960f8eb7fc9abc63617a287ba1b5a5fc23b29c71b3077c9247e35e3")
TRIANGLE_FREE_LEVELS_DIGEST = (
    "ca2e4c0fdd268c2767e56751b51db875c273845a699121ffa5e437fd9802776d")
VERTEX_LEVEL_7_DIGEST = (
    "04e158d8ede90da5b2bdfeb204dcbd96e8d1e9edbbe9c03718bc7b2793e66988")
# the reports of every certifier on its small parameters, without the wall
# time and with the two floats as `render_text` prints them, so that a
# verdict change shows and the last bit of this host's LAPACK does not
REPORTS_DIGEST = (
    "db6cfba477493fe64ee3999430c799901578e187968d18088923d61c8d189be1")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_canonical_forms_pinned():
    corpus = seeded_graphs(8, 1000, 12)
    assert digest(b"\n".join(canonical_form(g) for g in corpus)) \
        == CORPUS_DIGEST


def test_edge_levels_pinned(fresh_levels):
    levels = certify._levels_up_to(9, ("edge", (True, False, None)))
    assert list(map(len, levels)) == [0, 1, 2, 4, 9, 19, 45, 105, 267, 702]
    assert digest(repr([[(c, g.n, g.edges) for c, g in level]
                        for level in levels]).encode()) \
        == TRIANGLE_FREE_LEVELS_DIGEST


def test_vertex_level_pinned(fresh_levels):
    graphs = certify.graphs_on_vertices(7)
    level = certify._LEVELS["vertex", True][7]
    assert [g for _, g in level] == graphs and len(graphs) == 107
    assert digest(repr([(c, g.n, g.edges) for c, g in level])
                  .encode()) == VERTEX_LEVEL_7_DIGEST


def report_plan() -> list:
    return [
        *[f(m) for m in range(3, 11)
          for f in (certify.certify_nosal, certify.certify_lnw_sum)],
        *[f(m) for m in range(5, 12)
          for f in (certify.certify_thm15, certify.certify_zhai_shu)],
        *[certify.certify_main(m) for m in range(7, 13)],
        *[certify.certify_conj51(m, 3) for m in (9, 11, 13)],
        *[certify.certify_mantel(n) for n in range(2, 9)],
        *[certify.certify_erdos(n) for n in range(5, 9)],
    ]


def test_reports_pinned():
    rows = []
    for report in report_plan():
        row = asdict(report)
        del row["wall_time"]
        row["max_lambda"] = f"{report.max_lambda:.10f}"
        row["bound"] = f"{report.bound:.10f}"
        rows.append(row)
    assert len(rows) == 50
    assert digest(json.dumps(rows, sort_keys=True).encode()) \
        == REPORTS_DIGEST


# The full-rank step-1 rule: rank every piece of h afresh by the
# (degree, neighbour-degree sum) of its vertices.


def vertex_invariants(n: int, edges: tuple) -> list[tuple[int, int]]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    nds = [0] * n
    for u, v in edges:
        nds[u] += deg[v]
        nds[v] += deg[u]
    return list(zip(deg, nds))


def edge_ranks(n: int, edges: tuple) -> dict:
    inv = vertex_invariants(n, edges)
    return {(u, v): (min(inv[u], inv[v]), max(inv[u], inv[v]))
            for u, v in edges}


def vertex_ranks(n: int, edges: tuple) -> dict:
    return dict(enumerate(vertex_invariants(n, edges)))


def edge_augmentations(g: Graph, key):
    n = g.n
    for u in range(n):
        for v in range(u + 1, n):
            if not g.has_edge(u, v) and _edge_allowed(g, u, v, key):
                yield n, g.edges + ((u, v),), (u, v)
    for u in range(n):
        yield n + 1, g.edges + ((u, n),), (u, n)
    yield n + 2, g.edges + ((n, n + 1),), (n, n + 1)


def vertex_augmentations(g: Graph, triangle_free: bool):
    k = g.n
    for nb in range(1 << k):
        new = [v for v in range(k) if nb >> v & 1]
        if triangle_free and any(g.mask(v) & nb for v in new):
            continue
        yield k + 1, g.edges + tuple((v, k) for v in new), k


def reference_step_one(augmentations, ranks, allowed) -> list:
    """(n, edges, ties) for every augmentation in which no allowed piece
    ranks below the new one, `allowed` asked only about lower pieces."""
    out = []
    for n, edges, piece in augmentations:
        rank = ranks(n, edges)
        mine = rank[piece]
        masks = Graph(n, edges)._masks
        if any(r < mine and allowed(masks, f) for f, r in rank.items()):
            continue
        out.append((n, edges, [f for f, r in rank.items()
                               if r == mine and f != piece]))
    return out


@pytest.mark.parametrize("allowed", [_every_piece, _keeps_odd_cycle],
                         ids=lambda f: f.__name__)
@given(graphs_st(max_n=8))
@example(empty_graph(0))
@example(cycle(5))
@example(disjoint_union(cycle(5), path(3)))
def test_edge_step_one_matches_full_rank_rule(allowed, g):
    key = (False, False, None)
    want = reference_step_one(edge_augmentations(g, key), edge_ranks, allowed)
    assert list(certify._edge_growth(g, key, allowed)) == want


@pytest.mark.parametrize("triangle_free", [False, True])
@given(graphs_st(max_n=7))
@example(empty_graph(0))
@example(cycle(5))
def test_vertex_step_one_matches_full_rank_rule(triangle_free, g):
    want = reference_step_one(vertex_augmentations(g, triangle_free),
                              vertex_ranks, _every_piece)
    assert list(certify._vertex_growth(g, triangle_free)) == want


# A connected growth drops the augmentations that leave the child
# disconnected: the new K2 component, and the new vertex joined to nothing.


@pytest.mark.parametrize("allowed", [_keeps_connected,
                                     _keeps_connected_odd_cycle],
                         ids=lambda f: f.__name__)
@given(graphs_st(max_n=8))
@example(path(2))
@example(cycle(5))
@example(disjoint_union(cycle(5), path(3)))
def test_connected_edge_step_one_matches_full_rank_rule(allowed, g):
    key = (False, False, None)
    connected = [a for a in edge_augmentations(g, key) if a[0] <= g.n + 1]
    want = reference_step_one(connected, edge_ranks, allowed)
    assert list(certify._edge_growth(g, key, allowed, True)) == want


@pytest.mark.parametrize("triangle_free", [False, True])
@given(graphs_st(max_n=7))
@example(Graph(1, ()))
@example(cycle(5))
def test_connected_vertex_step_one_matches_full_rank_rule(triangle_free, g):
    connected = [a for a in vertex_augmentations(g, triangle_free)
                 if len(a[1]) > g.m]
    want = reference_step_one(connected, vertex_ranks, _not_a_cut_vertex)
    assert list(certify._vertex_growth(g, triangle_free, _not_a_cut_vertex,
                                       True)) == want


# The orbit step of `_children` (skip augmentations in the Aut(g)-orbit of an
# earlier one, and tied pieces in the new piece's Aut(h)-orbit) must change
# nothing but the work done: without automorphisms the same levels come out.


def build_levels(monkeypatch, fresh_levels, orbits: bool, build
                 ) -> tuple[list, int]:
    """(levels as (form, n, edges) lists, canonical_form calls) of a fresh
    build, with or without the automorphisms of the labelling search."""
    fresh_levels()
    if not orbits:
        monkeypatch.setattr(certify, "automorphism_generators", lambda g: ())
        # a child accepted with no form is unique only by the orbit step
        monkeypatch.setattr(certify, "_needs_no_form", lambda *a: False)
    calls = []

    def counting_form(g):
        calls.append(g)
        return canonical_form(g)

    monkeypatch.setattr(certify, "canonical_form", counting_form)
    levels = build()
    monkeypatch.undo()
    return ([[(c, g.n, g.edges) for c, g in level] for level in levels],
            len(calls))


def vertex_levels(n: int, triangle_free: bool) -> list:
    certify.graphs_on_vertices(n, triangle_free)
    return certify._LEVELS["vertex", triangle_free]


@pytest.mark.parametrize("build", [
    lambda: certify._levels_up_to(9, ("edge", (True, False, None))),
    lambda: certify._levels_up_to(8, ("edge", (False, False, None))),
    lambda: certify._levels_up_to(11, ("odd", (True, True, None))),
    lambda: vertex_levels(7, True),
    lambda: vertex_levels(7, False),
], ids=["triangle-free", "all", "C3C5-free-non-bipartite", "vertex-triangle-free",
        "vertex-all"])
def test_orbit_pruning_changes_no_level(monkeypatch, fresh_levels, build):
    pruned, pruned_calls = build_levels(monkeypatch, fresh_levels, True, build)
    plain, plain_calls = build_levels(monkeypatch, fresh_levels, False, build)
    assert pruned == plain
    assert pruned_calls < plain_calls

