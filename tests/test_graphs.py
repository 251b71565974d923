import math
import random
import time
from itertools import combinations, permutations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from specbound import spectra
from specbound.certify import _moved, _orbit
from specbound.graphs import (
    CANONICAL_MAX_N,
    GALLERY_SPECTRA,
    Embedding,
    Graph,
    GraphError,
    Graph6Error,
    PatternId,
    SizeLimitError,
    automorphism_generators,
    blow_up,
    book,
    booksize,
    canonical_form,
    canonical_graph,
    complete,
    complete_bipartite,
    connected_components,
    contains_c5,
    cycle,
    disjoint_union,
    empty_graph,
    erdos_extremal,
    find_induced,
    from_graph6,
    is_bipartite,
    is_connected,
    is_induced_embedding,
    is_triangle_free,
    odd_girth,
    path,
    pattern,
    s_odd,
    sk,
    star_plus_edge,
    subdivide_edge,
    to_graph6,
    triangle_count,
    _edge_on_c5,
)

from conftest import graphs_st, random_graph, seeded_graphs


def iso(g: Graph, h: Graph) -> bool:
    return canonical_form(g) == canonical_form(h)


@st.composite
def unions_st(draw, max_n: int = 10):
    """Up to four random graphs and some isolated vertices side by side, at
    most max_n vertices in all, relabelled at random."""
    budget = draw(st.integers(0, max_n))
    g = empty_graph(0)
    for _ in range(draw(st.integers(0, 4))):
        if g.n == budget:
            break
        g = disjoint_union(g, draw(graphs_st(max_n=budget - g.n)))
    g = disjoint_union(g, empty_graph(draw(st.integers(0, budget - g.n))))
    return g.relabel(draw(st.permutations(range(g.n))))


class TestConstructions:
    def test_complete_bipartite_smallest(self):
        assert iso(complete_bipartite(1, 1), path(2))

    def test_complete_bipartite_square(self):
        g = complete_bipartite(2, 2)
        assert g.m == 4
        assert iso(g, cycle(4))
        # rank-2 structure: lambda = sqrt(st)
        assert spectra.spectral_radius(g) == pytest.approx(2.0, abs=1e-9)

    def test_balanced_bipartite_edge_count(self):
        # floor(n^2/4) at n=7
        assert complete_bipartite(3, 4).m == 12 == 7 * 7 // 4

    def test_cycle_is_subdivided_k22(self):
        assert iso(cycle(5), sk(2, 2))

    def test_cycle_spectral_radius(self):
        assert spectra.spectral_radius(cycle(7)) == pytest.approx(2.0, abs=1e-9)

    def test_path_one_vertex(self):
        g = path(1)
        assert g.n == 1 and g.m == 0

    def test_cycle_too_small(self):
        with pytest.raises(GraphError):
            cycle(2)

    def test_subdivide_once_gives_c5(self):
        g = subdivide_edge(complete_bipartite(2, 2), (0, 2), 1)
        assert iso(g, cycle(5))

    def test_subdivide_thrice_gives_c7(self):
        g = subdivide_edge(complete_bipartite(2, 2), (0, 2), 3)
        assert iso(g, cycle(7))

    def test_subdivide_counts(self):
        for m in (7, 9, 11, 13):
            g = sk(2, (m - 1) // 2)
            assert g.m == m
            assert g.n == (m - 1) // 2 + 3

    def test_subdivide_non_edge_rejected(self):
        with pytest.raises(GraphError):
            subdivide_edge(complete_bipartite(2, 2), (0, 1), 1)

    def test_sk_counts(self):
        g = sk(2, 4)
        assert g.m == 9 and g.n == 7
        for a in range(2, 5):
            for b in range(2, 6):
                assert sk(a, b).m == a * b + 1

    def test_s_odd_is_c7(self):
        g = s_odd(2, 2, 2)
        assert iso(g, cycle(7))
        assert odd_girth(g) == 7

    def test_s_odd_k1_is_sk(self):
        for a, b in ((2, 3), (3, 4)):
            assert iso(s_odd(a, b, 1), sk(a, b))

    def test_s_odd_girth(self):
        assert odd_girth(s_odd(3, 4, 2)) == 7
        assert odd_girth(s_odd(2, 3, 3)) == 9

    def test_star_plus_edge(self):
        g = star_plus_edge(20)
        assert g.n == 20 and g.m == 20
        assert triangle_count(g) == 1
        for m in range(3, 12):
            assert triangle_count(star_plus_edge(m)) == 1

    def test_blow_up_of_edge_is_complete_bipartite(self):
        assert iso(blow_up(path(2), (3, 4)), complete_bipartite(3, 4))

    def test_identity_blow_up(self):
        g = disjoint_union(path(5), Graph(1, ()))
        assert iso(blow_up(g, [1] * 6), g)

    def test_blow_up_preserves_triangle_freeness(self):
        for pid in PatternId:
            g = pattern(pid)
            if not is_triangle_free(g):
                continue
            sizes = [1 + (v % 2) for v in range(g.n)]
            assert is_triangle_free(blow_up(g, sizes))

    def test_blow_up_size_validation(self):
        with pytest.raises(GraphError):
            blow_up(path(2), (1, 0))

    def test_book(self):
        assert iso(book(1), complete(3))
        k4_minus = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)))
        assert iso(book(2), k4_minus)
        assert book(5).m == 11 and book(5).n == 7
        assert booksize(book(5)) == 5

    def test_disjoint_union(self):
        g = disjoint_union(path(3), Graph(0, ()))
        assert iso(g, path(3))
        two_p2 = disjoint_union(path(2), path(2))
        assert two_p2.m == 2 and two_p2.n == 4

    def test_erdos_extremal(self):
        for n in range(5, 10):
            for k in range(1, n // 2):
                g = erdos_extremal(n, k)
                assert g.m == (n - 1) ** 2 // 4 + 1
                assert is_triangle_free(g)
                assert not is_bipartite(g)


class TestPatterns:
    def test_h1_shape(self):
        g = pattern(PatternId.H1)
        assert g.n == 6 and g.m == 6

    def test_edge_counts(self):
        expected = {"H1": 6, "H2": 9, "H3": 9, "T0": 8, "T1": 9, "T2": 11,
                    "T3": 11, "T4": 11, "T5": 10, "T6": 9}
        for pid in PatternId:
            assert pattern(pid).m == expected[pid.value]

    def test_exact_graphs(self):
        # vertex count and edges of every gallery graph, exactly: the
        # spectra pin them only up to cospectrality, and T0 has none
        c5 = ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))
        c7 = ((0, 1), (0, 6), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6))
        expected = {
            "H1": (6, c5 + ((0, 5),)),
            "H2": (7, c5 + ((0, 5), (1, 6), (2, 5), (3, 6))),
            "H3": (7, c5 + ((0, 5), (2, 5), (2, 6), (4, 6))),
            "T0": (8, c7 + ((0, 7),)),
            "T1": (9, c7 + ((0, 7), (0, 8))),
            "T2": (9, c7 + ((0, 7), (1, 8), (2, 7), (3, 8))),
            "T3": (9, c7 + ((0, 7), (2, 7), (2, 8), (4, 8))),
            "T4": (9, c7 + ((0, 7), (2, 7), (3, 8), (5, 8))),
            "T5": (9, c7 + ((0, 7), (2, 7), (7, 8))),
            "T6": (9, c7 + ((0, 7), (7, 8))),
        }
        for pid in PatternId:
            n, edges = expected[pid.value]
            g = pattern(pid)
            assert (g.n, g.edges) == (n, tuple(sorted(edges))), pid

    def test_unknown_id(self):
        with pytest.raises(GraphError):
            pattern("H1")

    def test_patterns_triangle_free(self):
        for pid in PatternId:
            assert is_triangle_free(pattern(pid))

    def test_t_patterns_c5_free(self):
        # the 7-cycle gallery lives inside {C3,C5}-free hosts
        for pid in (PatternId.T0, PatternId.T1, PatternId.T2, PatternId.T3,
                    PatternId.T4, PatternId.T5, PatternId.T6):
            assert not contains_c5(pattern(pid))

    def test_t0_is_c7_plus_pendant(self):
        g = pattern(PatternId.T0)
        assert g.n == 8 and g.m == 8
        assert odd_girth(g) == 7

    def test_t1_wiring_uniquely_pinned_by_spectrum(self):
        # two degree-1 attachments to C7: of the four placements (same
        # vertex, or cycle distance 1..3 apart) only the same-vertex wiring
        # reproduces the reference spectrum, so the gallery uses it
        target = GALLERY_SPECTRA["T1"]
        matches = []
        for d in range(4):
            g = Graph(9, cycle(7).edges + ((0, 7), (d, 8)))
            vals = spectra.eigenvalues(g).values
            if max(abs(a - b) for a, b in zip(vals, target)) <= 1e-3:
                matches.append(d)
        assert matches == [0]
        assert iso(pattern(PatternId.T1), Graph(9, cycle(7).edges + ((0, 7), (0, 8))))

    def test_h2_alternative_placement_is_isomorphic(self):
        # attaching w at {u5,u2} instead of {u2,u4} gives the same graph up
        # to the cycle reflection fixing u2
        alt = Graph(7, cycle(5).edges + ((0, 5), (2, 5), (4, 6), (1, 6)))
        assert iso(alt, pattern(PatternId.H2))


class TestPredicates:
    def test_odd_girth_c5(self):
        assert odd_girth(cycle(5)) == 5

    def test_odd_girth_bipartite(self):
        assert odd_girth(complete_bipartite(3, 4)) == math.inf
        assert is_bipartite(complete_bipartite(3, 4))

    def test_sk_non_bipartite(self):
        assert not is_bipartite(sk(2, 4))

    def test_triangle_free(self):
        assert not is_triangle_free(complete(3))
        assert is_triangle_free(cycle(5))

    def test_odd_girth_matches_cycle_length(self):
        for n in range(3, 12, 2):
            assert odd_girth(cycle(n)) == n
        for n in range(4, 12, 2):
            assert odd_girth(cycle(n)) == math.inf

    def test_contains_c5(self):
        assert contains_c5(cycle(5))
        assert not contains_c5(cycle(7))
        assert contains_c5(sk(2, 4))  # C5 through the subdivided edge
        assert not contains_c5(complete_bipartite(3, 3))
        assert contains_c5(complete(5))  # non-induced five-cycle

    def test_triangle_counts(self):
        assert triangle_count(complete(3)) == 1
        assert triangle_count(complete(4)) == 4
        assert triangle_count(complete(6)) == 20

    def test_booksize(self):
        assert booksize(cycle(5)) == 0
        assert booksize(complete(5)) == 3  # every edge lies in n-2 triangles
        for k in range(1, 6):
            assert booksize(book(k)) == k

    @given(graphs_st(max_n=8))
    def test_booksize_zero_iff_triangle_free(self, g):
        assert (booksize(g) == 0) == is_triangle_free(g)

    @given(graphs_st(max_n=8))
    def test_odd_girth_agrees_with_networkx_bipartite(self, g):
        nxg = nx.empty_graph(g.n)
        nxg.add_edges_from(g.edges)
        assert is_bipartite(g) == nx.is_bipartite(nxg)

    @given(graphs_st(min_n=0, max_n=10))
    def test_is_bipartite_matches_odd_girth(self, g):
        assert is_bipartite(g) == (odd_girth(g) == math.inf)

    def test_is_bipartite_searches_every_component(self):
        assert is_bipartite(Graph(0, ()))
        assert is_bipartite(empty_graph(5))
        # an odd cycle after isolated vertices and a bipartite component
        g = disjoint_union(disjoint_union(empty_graph(3), path(4)), cycle(5))
        assert not is_bipartite(g)
        rng = random.Random(17)
        for _ in range(300):
            g = Graph(0, ())
            for _ in range(rng.randint(1, 4)):
                part = random_graph(rng, rng.randint(1, 6),
                                    rng.choice((0.0, 0.3, 0.6)))
                g = disjoint_union(g, part)
            assert is_bipartite(g) == (odd_girth(g) == math.inf)

    def test_odd_girth_matches_walk_traces(self):
        # a shortest odd closed walk is an odd cycle, so the odd girth is
        # the least odd k <= n with trace(A^k) > 0
        def trace_girth(g):
            # walk counts stay below max degree ** n, so int64 is exact
            assert max(g.degrees(), default=0) ** g.n < 2 ** 63
            a = np.zeros((g.n, g.n), dtype=np.int64)
            for u, v in g.edges:
                a[u, v] = a[v, u] = 1
            power = a
            for k in range(1, g.n + 1):
                if k % 2 and np.trace(power) > 0:
                    return k
                power = power @ a
            return math.inf

        rng = random.Random(59)
        corpus = seeded_graphs(61, 150, 12)
        for _ in range(150):
            # up to three components, with isolated vertices among them
            g = Graph(0, ())
            for _ in range(rng.randint(1, 3)):
                g = disjoint_union(g, random_graph(
                    rng, rng.randint(1, 4), rng.choice((0.0, 0.4, 0.8))))
            corpus.append(g)
        corpus += [cycle(n) for n in range(3, 32)]
        corpus += [s_odd(2, 5, k) for k in range(1, 9)]
        girths = set()
        for g in corpus:
            girths.add(odd_girth(g))
            assert odd_girth(g) == trace_girth(g), (g.n, g.edges)
        assert {3, 5, 7, 9, 19, 31, math.inf} <= girths
        assert any(len(connected_components(g)) > 2 and g.m
                   and min(map(g.degree, range(g.n))) == 0 for g in corpus)

    def test_components_match_networkx(self):
        # `_canonical_labelling` stable-sorts the components, so the pinned
        # representatives depend on their order as well as on their sets
        rng = random.Random(41)
        shapes = set()
        for n in range(13):
            for p in (0.05, 0.1, 0.2, 0.35, 0.6):
                for _ in range(4):
                    g = random_graph(rng, n, p)
                    nxg = nx.empty_graph(n)
                    nxg.add_edges_from(g.edges)
                    want = sorted(tuple(sorted(c))
                                  for c in nx.connected_components(nxg))
                    assert connected_components(g) == want, g
                    assert is_connected(g) == (n == 0 or nx.is_connected(nxg))
                    shapes.add((len(want) > 1, any(len(c) == 1 for c in want)))
        assert shapes == {(False, False), (False, True), (True, False),
                          (True, True)}

    def test_edge_on_c5_matches_path_search(self):
        # a path u-a-b-c-v of distinct vertices, grown one vertex at a time
        def on_c5(g, u, v):
            def extend(walk):
                if len(walk) == 4:
                    return g.has_edge(walk[-1], v)
                return any(extend(walk + [w]) for w in g.neighbors(walk[-1])
                           if w not in walk and w != v)
            return extend([u])

        seen = set()
        for g in seeded_graphs(55, 300, 9):
            for u in range(g.n):
                for v in range(g.n):
                    if u != v:
                        want = on_c5(g, u, v)
                        assert _edge_on_c5(g, u, v) == want, (g, u, v)
                        seen.add((want, g.has_edge(u, v)))
        assert len(seen) == 4

    @given(graphs_st(max_n=8))
    def test_triangle_count_agrees_with_networkx(self, g):
        nxg = nx.empty_graph(g.n)
        nxg.add_edges_from(g.edges)
        assert triangle_count(g) == sum(nx.triangles(nxg).values()) // 3


class TestFindInduced:
    def test_c7_in_itself(self):
        emb = find_induced(cycle(7), cycle(7))
        assert emb is not None
        assert is_induced_embedding(cycle(7), cycle(7), emb)

    def test_no_h1_in_sk24(self):
        assert find_induced(sk(2, 4), pattern(PatternId.H1)) is None

    def test_c4_in_k33(self):
        emb = find_induced(complete_bipartite(3, 3), cycle(4))
        assert emb is not None
        assert is_induced_embedding(complete_bipartite(3, 3), cycle(4), emb)

    def test_pattern_larger_than_host(self):
        assert find_induced(cycle(4), cycle(5)) is None

    def _oracle(self, host, pat):
        for sub in permutations(range(host.n), pat.n):
            if all(
                pat.has_edge(u, v) == host.has_edge(sub[u], sub[v])
                for u, v in combinations(range(pat.n), 2)
            ):
                return True
        return False

    def test_against_exhaustive_oracle(self):
        rng = random.Random(4242)
        pats = [cycle(4), cycle(5), path(4), complete(3),
                complete_bipartite(1, 3)]
        hits = 0
        for _ in range(120):
            host = random_graph(rng, rng.randint(4, 7), rng.choice([0.25, 0.45, 0.65]))
            pat = rng.choice(pats)
            emb = find_induced(host, pat)
            assert (emb is not None) == self._oracle(host, pat)
            if emb is not None:
                hits += 1
                assert is_induced_embedding(host, pat, emb)
        assert hits > 10

    def test_seven_vertex_pattern_in_ten_vertex_host(self):
        host = disjoint_union(cycle(7), path(3))
        emb = find_induced(host, cycle(7))
        assert emb is not None and is_induced_embedding(host, cycle(7), emb)

    def test_against_vf2_oracle_full_sizes(self):
        # networkx's matcher decides node-induced subgraph isomorphism, an
        # independent route for patterns up to 7 vertices in 10-vertex hosts
        rng = random.Random(777)
        pats = [cycle(5), cycle(7), path(6), pattern(PatternId.H1),
                complete_bipartite(2, 4)]
        hits = 0
        for _ in range(60):
            host = random_graph(rng, 10, rng.choice([0.2, 0.35, 0.55]))
            pat = rng.choice(pats)
            nh = nx.empty_graph(host.n)
            nh.add_edges_from(host.edges)
            np_ = nx.empty_graph(pat.n)
            np_.add_edges_from(pat.edges)
            oracle = nx.algorithms.isomorphism.GraphMatcher(
                nh, np_).subgraph_is_isomorphic()
            emb = find_induced(host, pat)
            assert (emb is not None) == oracle
            if emb is not None:
                hits += 1
                assert is_induced_embedding(host, pat, emb)
        assert hits > 5


class TestCanonicalForm:
    def test_relabelings_of_c5(self):
        base = canonical_form(cycle(5))
        for perm in permutations(range(5)):
            assert canonical_form(cycle(5).relabel(perm)) == base

    def test_p4_vs_star(self):
        assert canonical_form(path(4)) != canonical_form(complete_bipartite(1, 3))

    def test_eleven_classes_on_four_vertices(self):
        # brute force over all 2^6 labeled graphs on 4 vertices
        pairs = list(combinations(range(4), 2))
        forms = set()
        for bits in range(1 << 6):
            edges = tuple(p for i, p in enumerate(pairs) if bits >> i & 1)
            forms.add(canonical_form(Graph(4, edges)))
        assert len(forms) == 11

    @given(graphs_st(max_n=9), st.randoms(use_true_random=False))
    def test_relabeling_invariance(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        assert canonical_form(g) == canonical_form(g.relabel(perm))

    @given(graphs_st(max_n=7), graphs_st(max_n=7))
    def test_agrees_with_networkx_isomorphism(self, g, h):
        g1 = nx.empty_graph(g.n)
        g1.add_edges_from(g.edges)
        g2 = nx.empty_graph(h.n)
        g2.add_edges_from(h.edges)
        assert (canonical_form(g) == canonical_form(h)) == nx.is_isomorphic(g1, g2)

    def test_canonical_graph_is_isomorphic_relabeling(self):
        g = pattern(PatternId.T2)
        h = canonical_graph(g)
        assert h.n == g.n and h.m == g.m
        assert canonical_form(h) == canonical_form(g)

    def test_disconnected_component_order(self):
        a = disjoint_union(cycle(5), path(2))
        b = disjoint_union(path(2), cycle(5))
        assert canonical_form(a) == canonical_form(b)

    @given(unions_st())
    def test_canonical_form_is_graph6_of_canonical_graph(self, g):
        assert canonical_form(g) == to_graph6(canonical_graph(g)).encode("ascii")

    def test_cubic_graph_labels_quickly(self):
        # one refinement class and no twins: only the prefix bound prunes,
        # and it must tighten after every new best, or this search takes
        # seconds (about 2.5 s without that) where it needs milliseconds
        rng = random.Random(1)
        while True:
            ends = [v for v in range(12) for _ in range(3)]
            rng.shuffle(ends)
            edges = {tuple(sorted(p)) for p in zip(ends[::2], ends[1::2])}
            if len(edges) == 18 and all(u != v for u, v in edges):
                break
        g = Graph(12, tuple(edges))
        start = time.perf_counter()
        form = canonical_form(g)
        assert time.perf_counter() - start < 1.0
        perm = list(range(12))
        rng.shuffle(perm)
        assert canonical_form(g.relabel(perm)) == form

    @pytest.mark.parametrize("name", ["P40", "C40", "seeded"])
    def test_relabeling_invariance_at_the_size_limit(self, name):
        """n = CANONICAL_MAX_N: one search frame per position, the deepest
        recursion the labelling reaches."""
        n = CANONICAL_MAX_N
        rng = random.Random(n)
        if name == "P40":
            g = path(n)
        elif name == "C40":
            g = cycle(n)
        else:
            g = random_graph(rng, n, 0.1)
            while not is_connected(g):
                g = random_graph(rng, n, 0.1)
        form = canonical_form(g)
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(g.relabel(perm)) == form

    def test_size_limit(self):
        top = path(CANONICAL_MAX_N)
        assert canonical_form(top) == to_graph6(canonical_graph(top)).encode(
            "ascii")
        g = path(CANONICAL_MAX_N + 1)
        with pytest.raises(SizeLimitError):
            canonical_form(g)
        with pytest.raises(SizeLimitError):
            canonical_graph(g)


def brute_force_automorphisms(g: Graph) -> set[tuple[int, ...]]:
    edges = set(g.edges)
    return {p for p in permutations(range(g.n))
            if all(_moved(p, e) in edges for e in g.edges)}


def generated_group(gens, n: int) -> set[tuple[int, ...]]:
    return _orbit(tuple(range(n)), gens,
                  lambda p, q: tuple(p[v] for v in q))


def orbit_partition(items, act) -> set[frozenset]:
    return {frozenset(act(x)) for x in items}


def networkx_automorphisms(g: Graph, limit: int) -> set[tuple[int, ...]]:
    """Aut(g) from networkx's VF2 matcher, or more than `limit` of its
    elements when the group is larger."""
    h = nx.empty_graph(g.n)
    h.add_edges_from(g.edges)
    group = set()
    for iso in nx.algorithms.isomorphism.GraphMatcher(h, h).isomorphisms_iter():
        group.add(tuple(iso[v] for v in range(g.n)))
        if len(group) > limit:
            break
    return group


class TestAutomorphismGenerators:
    """automorphism_generators(g) against all n! permutations (n <= 7), and
    against networkx's isomorphism search beyond."""

    def check(self, g: Graph, group: set | None = None) -> None:
        gens = automorphism_generators(g)
        edges = set(g.edges)
        for p in gens:
            assert sorted(p) == list(range(g.n))
            assert {_moved(p, e) for e in g.edges} == edges
        if group is None:
            group = brute_force_automorphisms(g)
        assert generated_group(gens, g.n) == group
        non_edges = [e for e in combinations(range(g.n), 2) if e not in edges]
        for items in (range(g.n), non_edges):
            assert orbit_partition(items, lambda x: _orbit(x, gens, _moved)) \
                == orbit_partition(items, lambda x: {_moved(p, x)
                                                     for p in group})

    @pytest.mark.parametrize("g", [pytest.param(g, id=name) for name, g in [
        ("K0", empty_graph(0)),
        ("K1", empty_graph(1)),
        ("5K1", empty_graph(5)),
        ("P2", path(2)),
        ("P5", path(5)),
        ("K4", complete(4)),
        ("K6", complete(6)),
        ("C3", cycle(3)),
        ("C6", cycle(6)),
        ("C7", cycle(7)),
        ("K1,5", complete_bipartite(1, 5)),
        ("K2,4", complete_bipartite(2, 4)),
        ("K3,3", complete_bipartite(3, 3)),
        ("K3,4", complete_bipartite(3, 4)),
        ("2C3", disjoint_union(cycle(3), cycle(3))),
        ("2P2+3K1", disjoint_union(disjoint_union(path(2), path(2)),
                                   empty_graph(3))),
        ("C4+K3", disjoint_union(cycle(4), complete(3))),
        ("K1,3+P3", disjoint_union(complete_bipartite(1, 3), path(3))),
        ("SK2,2", sk(2, 2)),
        ("B3", book(3)),
        ("H2", pattern(PatternId.H2)),
    ]])
    def test_named_graphs(self, g):
        self.check(g.relabel(random.Random(g.m).sample(range(g.n), g.n)))

    def test_seeded_graphs(self):
        for g in seeded_graphs(9, 40, 7):
            self.check(g)

    @pytest.mark.parametrize("n", range(8, 13))
    def test_seeded_graphs_past_brute_force(self, n):
        """Groups of at most 7! elements; the generators are automorphisms,
        so they cannot generate a larger group than networkx lists."""
        rng = random.Random(n)
        checked = 0
        for _ in range(12):
            g = random_graph(rng, n, rng.choice((0.2, 0.35, 0.5, 0.7)))
            group = networkx_automorphisms(g, 5040)
            if len(group) <= 5040:
                self.check(g, group)
                checked += 1
        assert checked >= 6

    @given(unions_st(max_n=7))
    def test_unions_with_isolated_vertices(self, g):
        self.check(g)

    def test_read_from_the_labelling_cache(self):
        g = pattern(PatternId.T2)
        canonical_form(g)
        before = canonical_graph.cache_info()
        automorphism_generators(g)
        after = canonical_graph.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)


class TestGraph6:
    def test_k1(self):
        assert to_graph6(Graph(1, ())) == "@"
        assert from_graph6("@").n == 1

    def test_no_vertices(self):
        assert to_graph6(Graph(0, ())) == "?"
        assert from_graph6("?") == Graph(0, ())

    def test_largest_writable_matches_networkx(self):
        g = random_graph(random.Random(62), 62, 0.5)
        nxg = nx.empty_graph(g.n)
        nxg.add_edges_from(g.edges)
        theirs = nx.to_graph6_bytes(nxg, header=False).decode().strip()
        assert to_graph6(g) == theirs

    def test_writer_size_limit(self):
        with pytest.raises(SizeLimitError):
            to_graph6(empty_graph(63))

    def test_header_prefix_accepted(self):
        assert from_graph6(">>graph6<<DqK").m == 5

    @given(graphs_st(max_n=12))
    def test_round_trip(self, g):
        assert from_graph6(to_graph6(g)) == g

    @given(graphs_st(max_n=10))
    def test_matches_networkx_encoder(self, g):
        nxg = nx.empty_graph(g.n)
        nxg.add_edges_from(g.edges)
        theirs = nx.to_graph6_bytes(nxg, header=False).decode().strip()
        assert to_graph6(g) == theirs

    def test_decode_matches_networkx(self):
        for s in ("DqK", "F]qAG", "E]`G", "Cr", "Ds_"):
            g = from_graph6(s)
            nxg = nx.from_graph6_bytes(s.encode())
            assert g.n == nxg.number_of_nodes()
            assert sorted(g.edges) == sorted(
                tuple(sorted(e)) for e in nxg.edges()
            )

    def test_bad_header_position(self):
        with pytest.raises(Graph6Error) as exc:
            from_graph6("\x1f")
        assert exc.value.position == 0

    def test_truncated_data(self):
        with pytest.raises(Graph6Error):
            from_graph6("D")

    def test_bad_padding(self):
        with pytest.raises(Graph6Error) as exc:
            from_graph6("D?~")
        assert exc.value.position == 2


class TestGraphValue:
    def test_edge_normalization(self):
        g = Graph(3, ((2, 0), (0, 2), (1, 0)))
        assert g.edges == ((0, 1), (0, 2))

    def test_loop_rejected(self):
        with pytest.raises(GraphError):
            Graph(2, ((1, 1),))

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            Graph(2, ((0, 2),))

    def test_induced_subgraph(self):
        g = cycle(5)
        h = g.induced([0, 1, 2])
        assert h.edges == ((0, 1), (1, 2))

    def test_embedding_validation(self):
        emb = Embedding((0, 1))
        assert is_induced_embedding(path(2), path(2), emb)
        assert not is_induced_embedding(Graph(2, ()), path(2), emb)

    def test_connectivity(self):
        assert is_connected(cycle(4))
        assert not is_connected(disjoint_union(path(2), path(2)))
