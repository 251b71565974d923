"""Small simple graphs: exact constructions, predicates, isomorphism tools, graph6 I/O.

Graphs are immutable values (vertex count plus a sorted edge tuple) with
cached adjacency bitmasks, so every operation here is safe to call from
multiple threads and results can be shared freely.  Connectivity,
bipartiteness and odd girth are all read off one breadth-first search on
those bitmasks, `_search`, which the enumerators' piece tests in `certify`
share.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence


class GraphError(ValueError):
    pass


class Graph6Error(GraphError):
    """Malformed graph6 input; `position` is the offending byte index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (byte {position})")
        self.position = position


class SizeLimitError(GraphError):
    pass


# Canonical labeling is backtracking over orderings; keep hosts small.
CANONICAL_MAX_N = 40
GRAPH6_MAX_N = 62

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Edges are stored as (min, max) pairs sorted lexicographically, which makes
    iteration order deterministic and equality structural.
    """

    n: int
    edges: tuple[Edge, ...]
    _masks: tuple[int, ...] = field(
        init=False, repr=False, compare=False, hash=False, default=()
    )

    def __post_init__(self):
        if self.n < 0:
            raise GraphError(f"negative vertex count {self.n}")
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge ({u},{v}) out of range for n={self.n}")
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            seen.add(e)
        norm = tuple(sorted(seen))
        object.__setattr__(self, "edges", norm)
        masks = [0] * self.n
        for u, v in norm:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        object.__setattr__(self, "_masks", tuple(masks))

    @property
    def m(self) -> int:
        return len(self.edges)

    def mask(self, v: int) -> int:
        return self._masks[v]

    def degree(self, v: int) -> int:
        return self._masks[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self._masks)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(u for u in range(self.n) if self._masks[v] >> u & 1)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._masks[u] >> v & 1)

    def relabel(self, perm: Iterable[int]) -> "Graph":
        """Relabel so that old vertex v becomes perm[v]."""
        p = tuple(perm)
        if sorted(p) != list(range(self.n)):
            raise GraphError("relabeling is not a permutation of 0..n-1")
        return Graph(self.n, tuple((p[u], p[v]) for u, v in self.edges))

    def induced(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph on the given vertices, relabeled to 0..k-1 in order."""
        vs = list(vertices)
        if len(set(vs)) != len(vs):
            raise GraphError("duplicate vertices in induced subgraph")
        idx = {v: i for i, v in enumerate(vs)}
        edges = tuple(
            (idx[u], idx[v]) for u, v in self.edges if u in idx and v in idx
        )
        return Graph(len(vs), edges)


@dataclass(frozen=True)
class Embedding:
    """Injective map pattern vertex -> host vertex preserving adjacency and
    non-adjacency (an induced embedding)."""

    mapping: tuple[int, ...]


class PatternId(enum.Enum):
    H1 = "H1"
    H2 = "H2"
    H3 = "H3"
    T0 = "T0"
    T1 = "T1"
    T2 = "T2"
    T3 = "T3"
    T4 = "T4"
    T5 = "T5"
    T6 = "T6"


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def empty_graph(n: int) -> Graph:
    return Graph(n, ())


def complete(n: int) -> Graph:
    return Graph(n, tuple(combinations(range(n), 2)))


def complete_bipartite(s: int, t: int) -> Graph:
    """K_{s,t} with part {0..s-1} joined to part {s..s+t-1}."""
    if s < 0 or t < 0:
        raise GraphError("part sizes must be nonnegative")
    return Graph(s + t, tuple((i, s + j) for i in range(s) for j in range(t)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def path(n: int) -> Graph:
    if n < 1:
        raise GraphError(f"path needs n >= 1, got {n}")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    shifted = tuple((u + g.n, v + g.n) for u, v in h.edges)
    return Graph(g.n + h.n, g.edges + shifted)


def subdivide_edge(g: Graph, e: Edge, k: int) -> Graph:
    """Replace edge e by a path through k new vertices (labels n..n+k-1)."""
    u, v = (e[0], e[1]) if e[0] < e[1] else (e[1], e[0])
    if not g.has_edge(u, v):
        raise GraphError(f"({u},{v}) is not an edge")
    if k < 1:
        raise GraphError("k must be >= 1")
    edges = [x for x in g.edges if x != (u, v)]
    chain = [u] + [g.n + i for i in range(k)] + [v]
    edges.extend(zip(chain, chain[1:]))
    return Graph(g.n + k, tuple(edges))


def sk(a: int, b: int) -> Graph:
    """K_{a,b} with one edge subdivided once; a,b >= 2."""
    if a < 2 or b < 2:
        raise GraphError("sk needs a, b >= 2")
    return subdivide_edge(complete_bipartite(a, b), (0, a), 1)


def s_odd(a: int, b: int, k: int) -> Graph:
    """K_{a,b} with one edge replaced by a path through 2k-1 new vertices.

    The shortest odd cycle of the result has length 2k+3.
    """
    if a < 2 or b < 2:
        raise GraphError("s_odd needs a, b >= 2")
    if k < 1:
        raise GraphError("s_odd needs k >= 1")
    return subdivide_edge(complete_bipartite(a, b), (0, a), 2 * k - 1)


def star_plus_edge(m: int) -> Graph:
    """Star on m vertices (center 0) plus one edge between two leaves: m edges,
    exactly one triangle."""
    if m < 3:
        raise GraphError("star_plus_edge needs m >= 3")
    edges = [(0, i) for i in range(1, m)]
    edges.append((1, 2))
    return Graph(m, tuple(edges))


def book(k: int) -> Graph:
    """B_k: k triangles sharing the edge (0,1)."""
    if k < 1:
        raise GraphError("book needs k >= 1")
    edges = [(0, 1)]
    for i in range(k):
        edges += [(0, 2 + i), (1, 2 + i)]
    return Graph(k + 2, tuple(edges))


def blow_up(g: Graph, sizes: Iterable[int]) -> Graph:
    """Replace vertex v by an independent set of sizes[v] vertices; edges become
    complete bipartite joins."""
    sz = list(sizes)
    if len(sz) != g.n:
        raise GraphError("need one size per vertex")
    if any(s < 1 for s in sz):
        raise GraphError("blow-up sizes must be >= 1")
    start = [0] * g.n
    acc = 0
    for v in range(g.n):
        start[v] = acc
        acc += sz[v]
    edges = []
    for u, v in g.edges:
        for i in range(sz[u]):
            for j in range(sz[v]):
                edges.append((start[u] + i, start[v] + j))
    return Graph(acc, tuple(edges))


def erdos_extremal(n: int, k: int) -> Graph:
    """Triangle-free non-bipartite n-vertex graph with floor((n-1)^2/4)+1 edges.

    Built from parts X (size floor(n/2)) and Y: two adjacent vertices u,v in Y,
    all edges X to Y-{u,v}, u joined to the first k vertices of X and v to the
    rest.  Any 1 <= k <= |X|-1 keeps the graph non-bipartite.
    """
    if n < 5:
        raise GraphError("needs n >= 5")
    nx = n // 2
    if not 1 <= k <= nx - 1:
        raise GraphError(f"k must be in 1..{nx - 1}")
    # X = 0..nx-1, u = nx, v = nx+1, rest of Y = nx+2..n-1
    edges = [(nx, nx + 1)]
    for x in range(nx):
        for y in range(nx + 2, n):
            edges.append((x, y))
    for x in range(k):
        edges.append((x, nx))
    for x in range(k, nx):
        edges.append((x, nx + 1))
    return Graph(n, tuple(edges))


def pattern(pid: PatternId) -> Graph:
    """Named gallery graph.  Wirings follow the forbidden-substructure case
    analysis on a 5- or 7-cycle u1..u5 / u1..u7 (labels 0-based here):

      H1  C5 + pendant                         T2  C7 + v~{u1,u3} + w~{u2,u4}
      H2  C5 + v~{u1,u3} + w~{u2,u4}           T3  C7 + v~{u1,u3} + w~{u3,u5}
      H3  C5 + v~{u1,u3} + w~{u3,u5}           T4  C7 + v~{u1,u3} + w~{u4,u6}
      T0  C7 + pendant                         T5  C7 + v~{u1,u3} + pendant on v
      T1  C7 + two pendants on one vertex      T6  C7 + pendant path of length 2

    The added vertices are v = k and w = k+1; they are adjacent only where
    w hangs on v (T5, T6).  Each wiring is pinned by the reference spectra
    in GALLERY_SPECTRA (attachment choices that the case analysis leaves
    open were settled by spectral match; see tests).
    """
    # (k, cycle vertices joined to v, cycle vertices joined to w, whether w
    #  is a pendant on v)
    wiring = {
        PatternId.H1: (5, (0,), (), False),
        PatternId.H2: (5, (0, 2), (1, 3), False),
        PatternId.H3: (5, (0, 2), (2, 4), False),
        PatternId.T0: (7, (0,), (), False),
        PatternId.T1: (7, (0,), (0,), False),
        PatternId.T2: (7, (0, 2), (1, 3), False),
        PatternId.T3: (7, (0, 2), (2, 4), False),
        PatternId.T4: (7, (0, 2), (3, 5), False),
        PatternId.T5: (7, (0, 2), (), True),
        PatternId.T6: (7, (0,), (), True),
    }.get(pid)
    if wiring is None:
        raise GraphError(f"unknown pattern {pid!r}")
    k, on_v, on_w, pendant = wiring
    edges = [*cycle(k).edges, *((u, k) for u in on_v),
             *((u, k + 1) for u in on_w)]
    if pendant:
        edges.append((k, k + 1))
    return Graph(k + 1 + bool(on_w or pendant), tuple(edges))


# Reference eigenvalues (3 decimals) that the gallery constructions and the
# two cycles must reproduce; `cli tables` and the acceptance suite check
# every entry to within 1e-3.
GALLERY_SPECTRA: dict[str, tuple[float, ...]] = {
    "C7": (2.0, 1.246, 1.246, -0.445, -0.445, -1.801, -1.801),
    "H1": (2.115, 1.0, 0.618, -0.254, -1.618, -1.860),
    "H2": (2.641, 1.0, 0.723, 0.414, -0.589, -1.775, -2.414),
    "H3": (2.681, 1.0, 0.642, 0.0, 0.0, -2.0, -2.323),
    "C9": (2.0, 1.532, 1.532, 0.347, 0.347, -1.0, -1.0, -1.879, -1.879),
    "T1": (2.223, 1.568, 1.247, 0.288, 0.0, -0.445, -0.919, -1.801, -2.161),
    "T2": (2.573, 1.453, 1.441, 0.566, -0.358, -0.485, -0.795, -1.871, -2.523),
    "T3": (2.579, 1.618, 1.373, 0.0, 0.0, -0.451, -0.618, -2.0, -2.501),
    "T4": (2.503, 1.813, 1.264, 0.0, 0.0, -0.470, -0.576, -2.191, -2.342),
    "T5": (2.414, 1.508, 1.247, 0.679, -0.414, -0.445, -0.825, -1.801, -2.362),
    "T6": (2.124, 1.540, 1.247, 0.807, -0.337, -0.445, -1.101, -1.801, -2.032),
}


# ---------------------------------------------------------------------------
# predicates and counts
# ---------------------------------------------------------------------------


def _search(masks: Sequence[int], s: int) -> tuple[int, int]:
    """(component of s as a vertex mask, the layer of the first edge that
    lies inside a layer, 0 when there is none) in the graph with these
    neighbour bitmasks, by one breadth-first search from layer 0 = {s}.
    Search edges join adjacent layers, so an edge inside layer d closes an
    odd walk of length 2d + 1 through s, and a component with no such edge
    is two-coloured by the parity of its layers.  Every connectivity,
    bipartiteness and odd girth test is built on it."""
    comp = frontier = 1 << s
    depth = inner = 0
    while frontier:
        nxt = 0
        f = frontier
        while f:
            v = (f & -f).bit_length() - 1
            f &= f - 1
            mv = masks[v]
            if mv & frontier and not inner:
                inner = depth
            nxt |= mv
        frontier = nxt & ~comp
        comp |= frontier
        depth += 1
    return comp, inner


def _components(masks: Sequence[int]) -> Iterator[tuple[int, int]]:
    """`_search` of every component, in order of their lowest vertices."""
    rest = (1 << len(masks)) - 1
    while rest:
        comp, inner = _search(masks, (rest & -rest).bit_length() - 1)
        rest ^= comp
        yield comp, inner


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    """The components of g in order of their lowest vertices, each with its
    vertices in ascending order."""
    return [tuple(v for v in range(g.n) if comp >> v & 1)
            for comp, _ in _components(g._masks)]


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or _search(g._masks, 0)[0] == (1 << g.n) - 1


def odd_girth(g: Graph) -> float:
    """Length of the shortest odd cycle; math.inf iff bipartite.

    `_search` from a root meets its first edge inside a layer at layer d
    exactly when the shortest odd closed walk through the root has length
    2d + 1.  A shortest odd closed walk is an odd cycle, so the minimum over
    all roots is the shortest odd cycle.
    """
    layers = (_search(g._masks, r)[1] for r in range(g.n))
    return min((2 * d + 1 for d in layers if d), default=math.inf)


def is_bipartite(g: Graph) -> bool:
    """Whether no component holds an odd cycle, by one `_search` each."""
    return _two_colourable(g._masks)


def _two_colourable(masks: Sequence[int]) -> bool:
    """`is_bipartite` on neighbour bitmasks, one per vertex."""
    return not any(inner for _, inner in _components(masks))


def triangle_count(g: Graph) -> int:
    """Exact triangle count from neighborhood intersections."""
    total = 0
    for u, v in g.edges:
        total += (g.mask(u) & g.mask(v)).bit_count()
    return total // 3


def is_triangle_free(g: Graph) -> bool:
    return all((g.mask(u) & g.mask(v)) == 0 for u, v in g.edges)


def contains_c5(g: Graph) -> bool:
    """True when a (not necessarily induced) 5-cycle exists."""
    for u, v in g.edges:
        if _edge_on_c5(g, u, v):
            return True
    return False


def _edge_on_c5(g: Graph, u: int, v: int) -> bool:
    """Whether a path u-a-b-c-v of five distinct vertices exists, so that
    the edge uv lies on (or would close) a 5-cycle."""
    masks = g._masks
    ends = 1 << u | 1 << v
    aa = masks[u] & ~(1 << v)
    while aa:
        a = (aa & -aa).bit_length() - 1
        aa &= aa - 1
        # b is a common neighbour of a and c other than u and v; neither a
        # nor c is its own neighbour
        na = masks[a] & ~ends
        cc = masks[v] & ~(1 << u | 1 << a)
        while cc:
            c = (cc & -cc).bit_length() - 1
            cc &= cc - 1
            if na & masks[c]:
                return True
    return False


def booksize(g: Graph) -> int:
    """Maximum number of triangles sharing a common edge; 0 iff triangle-free."""
    best = 0
    for u, v in g.edges:
        best = max(best, (g.mask(u) & g.mask(v)).bit_count())
    return best


# ---------------------------------------------------------------------------
# induced subgraph search
# ---------------------------------------------------------------------------


def find_induced(host: Graph, pat: Graph) -> Optional[Embedding]:
    """Backtracking induced-subgraph isomorphism, pattern vertices tried in
    descending degree order.  Deterministic: host candidates are scanned in
    label order, so the returned embedding is the first in that ordering."""
    if pat.n > host.n:
        return None
    if pat.n == 0:
        return Embedding(())
    order = sorted(range(pat.n), key=lambda v: (-pat.degree(v), v))
    host_deg = host.degrees()
    pat_deg = pat.degrees()
    assign = [-1] * pat.n

    def extend(i: int, used: int) -> bool:
        if i == len(order):
            return True
        p = order[i]
        pmask = pat.mask(p)
        for h in range(host.n):
            if used >> h & 1 or host_deg[h] < pat_deg[p]:
                continue
            ok = True
            for q in order[:i]:
                if bool(pmask >> q & 1) != host.has_edge(assign[q], h):
                    ok = False
                    break
            if ok:
                assign[p] = h
                if extend(i + 1, used | 1 << h):
                    return True
                assign[p] = -1
        return False

    if extend(0, 0):
        return Embedding(tuple(assign))
    return None


def is_induced_embedding(host: Graph, pat: Graph, emb: Embedding) -> bool:
    m = emb.mapping
    if len(m) != pat.n or len(set(m)) != pat.n:
        return False
    for u in range(pat.n):
        for v in range(u + 1, pat.n):
            if pat.has_edge(u, v) != host.has_edge(m[u], m[v]):
                return False
    return True


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


def _refine_colors(vs: Sequence[int], masks: Sequence[int]
                   ) -> list[list[int]]:
    """Iterative color refinement of the vertices vs, a union of components,
    by (color, number of neighbours in each color class); the color
    classes, in color order.

    A class splits by its members' neighbour counts per class, larger
    counts first: its members share a degree, so that is the order of their
    sorted neighbour colours, and corresponding vertices of isomorphic
    graphs always receive identical colors.  Each round refines the last,
    so the partition is stable once no class splits, and a class can split
    only when a class it touches split in the round before.
    """
    by_degree: dict[int, list[int]] = {}
    for v in vs:
        by_degree.setdefault(masks[v].bit_count(), []).append(v)
    classes = [by_degree[d] for d in sorted(by_degree)]
    if len(classes) == 1:
        return classes  # regular: every count is the degree
    class_masks = [sum(1 << v for v in members) for members in classes]
    moved = -1  # the vertices of the classes that split in the last round
    while True:
        split: list[list[int]] = []
        split_masks: list[int] = []
        now_moved = 0
        for members, cm in zip(classes, class_masks):
            if len(members) > 1:
                reach = 0
                for v in members:
                    reach |= masks[v]
                if reach & moved:
                    near = [c for c in class_masks if c & reach]
                    groups: dict[tuple[int, ...], list[int]] = {}
                    for v in members:
                        mv = masks[v]
                        groups.setdefault(
                            tuple([(mv & c).bit_count() for c in near]),
                            []).append(v)
                    if len(groups) > 1:
                        now_moved |= cm
                        for key in sorted(groups, reverse=True):
                            group = groups[key]
                            split.append(group)
                            split_masks.append(sum(1 << v for v in group))
                        continue
            split.append(members)
            split_masks.append(cm)
        if not now_moved:
            return classes
        classes, class_masks, moved = split, split_masks, now_moved


def _transposition(size: int, v: int, w: int) -> bytes:
    p = bytearray(range(size))
    p[v], p[w] = w, v
    return bytes(p)


def _canon_component(vs: Sequence[int], masks: Sequence[int]
                     ) -> tuple[list[int], list[int], list[bytes]]:
    """(order, cols, gens) of the canonical labelling of the connected graph
    on vs: order[t] is the vertex at position t and cols[t] its adjacency to
    positions 0..t-1, position 0 the most significant bit, which is graph6
    column t.  The ordering maximizes cols, searched within refinement color
    classes (high-degree classes first) with prefix pruning and
    twin-candidate collapsing.

    gens generate the automorphisms of the component, as permutations of
    all len(masks) vertices that fix the other ones (p[v] is the image of
    v): the map best order -> order of every later leaf with the same cols,
    and transpositions that join the twins the search skipped into classes.
    Swapping a skipped twin with the listed one maps its subtree onto a
    visited one, so every leaf with the best cols is the image of a visited
    one under the twin swaps, and the leaf maps reach every visited one:
    together they act transitively on the best leaves, on which the
    automorphism group acts regularly."""
    n = len(vs)
    size = len(masks)
    pos_class: list[int] = []  # position -> its color class as a vertex mask
    for members in _refine_colors(vs, masks)[::-1]:
        pos_class.extend([sum(1 << v for v in members)] * len(members))

    # codes[w] holds the adjacency of w to the vertex at position i in bit
    # n-1-i, so placing a vertex sets one bit in each unplaced neighbour,
    # and at depth t the code is column t shifted left by n-t
    best_cols: list[int] = []
    best_perm: list[int] = []
    found = 0  # leaves that set a new best so far
    cur_cols = [0] * n
    cur_perm = [0] * n
    codes = [0] * size
    shift = size  # twin keys pack (code, mask) as code << shift | mask
    leaf_maps: list[bytes] = []  # best -> later leaf with the same cols
    twins: list[tuple[int, int]] = []  # one skipped pair per class merge
    twin_root = list(range(size))  # twin classes merged so far

    def root(v: int) -> int:
        while twin_root[v] != v:
            v = twin_root[v]
        return v

    def dfs(t: int, unplaced: int, eq: bool) -> None:
        """Extend the ordering cur_perm[:t]; eq says whether its codes equal
        best_cols[:t], the only case in which best_cols bounds the search
        (the first leaf below a greater prefix replaces the best)."""
        nonlocal best_cols, best_perm, found
        if t == n:
            if not eq:
                best_cols = cur_cols.copy()
                best_perm = cur_perm.copy()
                found += 1
                leaf_maps.clear()  # maps between worse leaves
            else:
                p = bytearray(range(size))
                for b, c in zip(best_perm, cur_perm):
                    p[b] = c
                leaf_maps.append(bytes(p))
            return
        bound = best_cols[t] if eq else -1
        avail = pos_class[t] & unplaced
        cands = []
        if avail & (avail - 1):
            seen_n: dict[int, int] = {}
            seen_a: dict[int, int] = {}
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= avail - 1
                code = codes[v]
                if code < bound:
                    continue
                # candidates that are twins of an already-listed one lead
                # to the same subtree maximum (swap them by an
                # automorphism), so skip
                key_n = code << shift | (masks[v] & unplaced)
                key_a = code << shift | ((masks[v] | 1 << v) & unplaced)
                w = seen_n.get(key_n, seen_a.get(key_a, -1))
                if w >= 0:
                    rw, rv = root(w), root(v)
                    if rw != rv:
                        twin_root[rv] = rw
                        twins.append((w, v))
                    continue
                seen_n[key_n] = v
                seen_a[key_a] = v
                cands.append((code, v))
            cands.sort(reverse=True)
        else:
            v = avail.bit_length() - 1
            if codes[v] >= bound:
                cands.append((codes[v], v))
        bit = 1 << (n - 1 - t)
        for code, v in cands:
            if code < bound:
                break  # below the best found under a sibling
            cur_cols[t] = code
            cur_perm[t] = v
            rest = unplaced & ~(1 << v)
            nb = masks[v] & rest
            r = nb
            while r:
                w = (r & -r).bit_length() - 1
                r &= r - 1
                codes[w] |= bit
            before = found
            dfs(t + 1, rest, code == bound)
            if found != before:
                bound = best_cols[t]  # the new best shares this prefix
            r = nb
            while r:
                w = (r & -r).bit_length() - 1
                r &= r - 1
                codes[w] ^= bit

    dfs(0, sum(1 << v for v in vs), False)
    return (best_perm, [code >> (n - t) for t, code in enumerate(best_cols)],
            leaf_maps + [_transposition(size, v, w) for v, w in twins])


def _graph6_bytes(n: int, cols: Sequence[int]) -> bytes:
    """graph6 of the graph whose column t (adjacency of vertex t to
    0..t-1, vertex 0 the most significant bit) is cols[t]."""
    bits = 0
    for t in range(1, n):
        bits = bits << t | cols[t]
    width = n * (n - 1) // 2
    pad = -width % 6
    bits <<= pad
    return bytes([63 + n] + [63 + (bits >> s & 63)
                             for s in range(width + pad - 6, -1, -6)])


@lru_cache(maxsize=1 << 18)
def _canonical_labelling(g: Graph
                         ) -> tuple[tuple[int, ...], bytes, tuple[bytes, ...]]:
    """(order, graph6 bytes, gens) of the canonical relabelling of g, where
    order[t] is the vertex of g placed at position t and gens generate
    Aut(g) (see automorphism_generators).  Components are labelled on their
    own and follow one another in (n, edges) order of their canonical
    copies; Aut(g) is generated by the automorphisms of each component and
    the swaps of consecutive components with equal canonical copies."""
    if g.n > CANONICAL_MAX_N:
        raise SizeLimitError(f"canonical form limited to n <= {CANONICAL_MAX_N}")
    if is_connected(g):
        order, cols, gens = _canon_component(range(g.n), g._masks)
        return tuple(order), _graph6_bytes(g.n, cols), tuple(gens)
    labelled = []
    gens = []
    for comp in connected_components(g):
        order, cols, comp_gens = _canon_component(comp, g._masks)
        k = len(comp)
        edges = tuple((i, j) for i in range(k) for j in range(i + 1, k)
                      if cols[j] >> (j - 1 - i) & 1)
        labelled.append(((k, edges), order, cols))
        gens += comp_gens
    labelled.sort(key=lambda piece: piece[0])
    for (copy, order, _), (nxt, other, _) in zip(labelled, labelled[1:]):
        if copy == nxt:
            p = bytearray(range(g.n))
            for v, w in zip(order, other):
                p[v], p[w] = w, v
            gens.append(bytes(p))
    return (tuple(v for _, order, _ in labelled for v in order),
            _graph6_bytes(g.n, [c for _, _, cols in labelled for c in cols]),
            tuple(gens))


def canonical_graph(g: Graph) -> Graph:
    """Canonically relabeled copy; equal results iff isomorphic inputs."""
    perm = [0] * g.n
    for t, v in enumerate(_canonical_labelling(g)[0]):
        perm[v] = t
    return g.relabel(perm)


# every canonical function reads the one labelling cache; its statistics are
# published under the public name
canonical_graph.cache_info = _canonical_labelling.cache_info


def canonical_form(g: Graph) -> bytes:
    """Canonical byte string: the graph6 encoding of the canonical relabeling."""
    return _canonical_labelling(g)[1]


def automorphism_generators(g: Graph) -> tuple[bytes, ...]:
    """Generators of the automorphism group of g, each a permutation p of
    the vertices with p[v] the image of v; empty when the group is trivial.

    They are the automorphisms the labelling search meets on its way to the
    canonical form, so after canonical_form(g) reading them costs a cache
    hit and no search."""
    return _canonical_labelling(g)[2]


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------


def to_graph6(g: Graph) -> str:
    """Standard graph6: header byte 63+n, upper-triangle bits in column order
    packed six per byte, each byte offset by 63."""
    if g.n > GRAPH6_MAX_N:
        raise SizeLimitError(f"graph6 writer limited to n <= {GRAPH6_MAX_N}")
    cols = [0] * g.n
    for i, j in g.edges:
        cols[j] |= 1 << (j - 1 - i)
    return _graph6_bytes(g.n, cols).decode()


def from_graph6(s: str) -> Graph:
    data = s.strip()
    if data.startswith(">>graph6<<"):
        data = data[len(">>graph6<<"):]
    if not data:
        raise Graph6Error("empty graph6 string", 0)
    raw = data.encode("ascii", errors="replace")
    first = raw[0]
    if first == 126:
        raise Graph6Error("multi-byte vertex counts (n > 62) unsupported", 0)
    if not 63 <= first <= 125:
        raise Graph6Error(f"bad header byte {first}", 0)
    n = first - 63
    need = (n * (n - 1) // 2 + 5) // 6
    if len(raw) - 1 != need:
        raise Graph6Error(
            f"expected {need} data bytes for n={n}, got {len(raw) - 1}",
            min(len(raw), need + 1) - 1 if len(raw) - 1 < need else need + 1,
        )
    bits = []
    for pos, byte in enumerate(raw[1:], start=1):
        if not 63 <= byte <= 126:
            raise Graph6Error(f"bad data byte {byte}", pos)
        val = byte - 63
        bits.extend((val >> k) & 1 for k in range(5, -1, -1))
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    if any(bits[idx:]):
        raise Graph6Error("nonzero padding bits", len(raw) - 1)
    return Graph(n, tuple(edges))
