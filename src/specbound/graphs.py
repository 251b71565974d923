"""Small simple graphs: exact constructions, predicates, isomorphism tools, graph6 I/O.

Graphs are immutable values (vertex count plus a sorted edge tuple) with
cached adjacency bitmasks, so every operation here is safe to call from
multiple threads and results can be shared freely.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, Optional


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


def _c5_plus(attach_v: tuple[int, ...], attach_w: tuple[int, ...] = ()) -> Graph:
    edges = list(cycle(5).edges)
    for u in attach_v:
        edges.append((u, 5))
    for u in attach_w:
        edges.append((u, 6))
    return Graph(5 + (2 if attach_w else 1), tuple(edges))


def _c7_plus(attach_v: tuple[int, ...], attach_w: tuple[int, ...] = (),
             chain: bool = False) -> Graph:
    n = 7 + 1 + (1 if (attach_w or chain) else 0)
    edges = list(cycle(7).edges)
    for u in attach_v:
        edges.append((u, 7))
    for u in attach_w:
        edges.append((u, 8))
    if chain:
        edges.append((7, 8))
    return Graph(n, tuple(edges))


def pattern(pid: PatternId) -> Graph:
    """Named gallery graph.  Wirings follow the forbidden-substructure case
    analysis on a 5- or 7-cycle u1..u5 / u1..u7 (labels 0-based here):

      H1  C5 + pendant                         T2  C7 + v~{u1,u3} + w~{u2,u4}
      H2  C5 + v~{u1,u3} + w~{u2,u4}           T3  C7 + v~{u1,u3} + w~{u3,u5}
      H3  C5 + v~{u1,u3} + w~{u3,u5}           T4  C7 + v~{u1,u3} + w~{u4,u6}
      T0  C7 + pendant                         T5  C7 + v~{u1,u3} + pendant on v
      T1  C7 + two pendants on one vertex      T6  C7 + pendant path of length 2

    v and w are never adjacent.  Each wiring is pinned by the reference
    spectra in GALLERY_SPECTRA (attachment choices that the case analysis
    leaves open were settled by spectral match; see tests).
    """
    if pid is PatternId.H1:
        return _c5_plus((0,))
    if pid is PatternId.H2:
        return _c5_plus((0, 2), (1, 3))
    if pid is PatternId.H3:
        return _c5_plus((0, 2), (2, 4))
    if pid is PatternId.T0:
        return _c7_plus((0,))
    if pid is PatternId.T1:
        return _c7_plus((0,), (0,))
    if pid is PatternId.T2:
        return _c7_plus((0, 2), (1, 3))
    if pid is PatternId.T3:
        return _c7_plus((0, 2), (2, 4))
    if pid is PatternId.T4:
        return _c7_plus((0, 2), (3, 5))
    if pid is PatternId.T5:
        return _c7_plus((0, 2), chain=True)
    if pid is PatternId.T6:
        return _c7_plus((0,), chain=True)
    raise GraphError(f"unknown pattern {pid!r}")


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


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    seen = 0
    comps = []
    for s in range(g.n):
        if seen >> s & 1:
            continue
        comp = 1 << s
        frontier = 1 << s
        while frontier:
            nxt = 0
            f = frontier
            while f:
                v = (f & -f).bit_length() - 1
                f &= f - 1
                nxt |= g.mask(v)
            frontier = nxt & ~comp
            comp |= frontier
        seen |= comp
        comps.append(tuple(v for v in range(g.n) if comp >> v & 1))
    return comps


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) <= 1


def odd_girth(g: Graph) -> float:
    """Length of the shortest odd cycle; math.inf iff bipartite.

    BFS from every vertex: any edge joining two vertices at equal BFS depth
    closes an odd walk, and the minimum such closure over all roots is the
    shortest odd cycle.
    """
    best = math.inf
    for root in range(g.n):
        dist = [-1] * g.n
        dist[root] = 0
        queue = [root]
        while queue:
            nxt = []
            for v in queue:
                mv = g.mask(v)
                while mv:
                    u = (mv & -mv).bit_length() - 1
                    mv &= mv - 1
                    if dist[u] < 0:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            queue = nxt
        for u, v in g.edges:
            if dist[u] >= 0 and dist[u] == dist[v]:
                best = min(best, 2 * dist[u] + 1)
    return best


def is_bipartite(g: Graph) -> bool:
    return odd_girth(g) == math.inf


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
    # path u-a-b-c-v of distinct vertices avoiding the edge itself
    for a in range(g.n):
        if a == v or not g.has_edge(u, a):
            continue
        for c in range(g.n):
            if c == u or c == a or not g.has_edge(v, c):
                continue
            mid = g.mask(a) & g.mask(c) & ~(1 << u) & ~(1 << v)
            mid &= ~(1 << a) & ~(1 << c)
            if mid:
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


def _refine_colors(n: int, masks: tuple[int, ...]) -> list[int]:
    """Iterative color refinement by (color, multiset of neighbor colors).

    Color ids are assigned by sorted signature, so corresponding vertices of
    isomorphic graphs always receive identical colors.
    """
    color = [masks[v].bit_count() for v in range(n)]
    ids = {d: i for i, d in enumerate(sorted(set(color)))}
    color = [ids[c] for c in color]
    while True:
        sig = []
        for v in range(n):
            nb = []
            mv = masks[v]
            while mv:
                u = (mv & -mv).bit_length() - 1
                mv &= mv - 1
                nb.append(color[u])
            nb.sort()
            sig.append((color[v], tuple(nb)))
        ids = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [ids[s] for s in sig]
        if new == color:
            return color
        color = new


def _canon_connected_perm(n: int, masks: tuple[int, ...]) -> list[int]:
    """Ordering (position -> vertex) maximizing the adjacency bit string,
    searched within refinement color classes (high-degree classes first)
    with prefix pruning and twin-candidate collapsing."""
    if n == 1:
        return [0]
    color = _refine_colors(n, masks)
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(color):
        by_color.setdefault(c, []).append(v)
    class_order = sorted(by_color, reverse=True)
    if len(by_color) == n:
        # discrete partition: the ordering is forced
        return [by_color[c][0] for c in class_order]
    pos_class: list[int] = []
    for c in class_order:
        pos_class.extend([c] * len(by_color[c]))

    best_cols: list[int] | None = None
    best_perm: list[int] | None = None
    cur_cols = [0] * n
    cur_perm = [0] * n
    codes = [0] * n  # adjacency code of v against the placed prefix
    full = (1 << n) - 1

    def dfs(t: int, used: int, state_eq: bool) -> None:
        nonlocal best_cols, best_perm
        if t == n:
            if best_cols is None or cur_cols > best_cols:
                best_cols = cur_cols.copy()
                best_perm = cur_perm.copy()
            return
        unplaced = full & ~used
        cands = []
        seen_n: set[tuple[int, int]] = set()
        seen_a: set[tuple[int, int]] = set()
        for v in by_color[pos_class[t]]:
            if used >> v & 1:
                continue
            code = codes[v]
            # candidates that are twins of an already-listed one lead to the
            # same subtree maximum (swap them by an automorphism), so skip
            key_n = (code, masks[v] & unplaced)
            key_a = (code, (masks[v] | 1 << v) & unplaced)
            if key_n in seen_n or key_a in seen_a:
                continue
            seen_n.add(key_n)
            seen_a.add(key_a)
            cands.append((code, v))
        cands.sort(reverse=True)
        for code, v in cands:
            eq = state_eq
            if best_cols is not None and eq:
                if code < best_cols[t]:
                    break  # descending order: the rest are worse
                if code > best_cols[t]:
                    eq = False
            cur_cols[t] = code
            cur_perm[t] = v
            mv = masks[v]
            rest = unplaced & ~(1 << v)
            r = rest
            while r:
                w = (r & -r).bit_length() - 1
                r &= r - 1
                codes[w] = codes[w] << 1 | (mv >> w & 1)
            dfs(t + 1, used | 1 << v, eq)
            r = rest
            while r:
                w = (r & -r).bit_length() - 1
                r &= r - 1
                codes[w] >>= 1

    dfs(0, 0, True)
    assert best_perm is not None
    return best_perm


def _canon_component(g: Graph) -> Graph:
    order = _canon_connected_perm(g.n, g._masks)
    # order[t] = original vertex at position t; relabel wants old -> new
    perm = [0] * g.n
    for t, v in enumerate(order):
        perm[v] = t
    return g.relabel(perm)


@lru_cache(maxsize=1 << 18)
def canonical_graph(g: Graph) -> Graph:
    """Canonically relabeled copy; equal results iff isomorphic inputs."""
    if g.n > CANONICAL_MAX_N:
        raise SizeLimitError(f"canonical form limited to n <= {CANONICAL_MAX_N}")
    comps = connected_components(g)
    if len(comps) <= 1:
        return _canon_component(g)
    pieces = sorted(
        (_canon_component(g.induced(c)) for c in comps),
        key=lambda h: (h.n, h.edges),
    )
    out = pieces[0]
    for piece in pieces[1:]:
        out = disjoint_union(out, piece)
    return out


def canonical_form(g: Graph) -> bytes:
    """Canonical byte string: the graph6 encoding of the canonical relabeling."""
    return to_graph6(canonical_graph(g)).encode("ascii")


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------


def to_graph6(g: Graph) -> str:
    """Standard graph6: header byte 63+n, upper-triangle bits in column order
    packed six per byte, each byte offset by 63."""
    if g.n > GRAPH6_MAX_N:
        raise SizeLimitError(f"graph6 writer limited to n <= {GRAPH6_MAX_N}")
    out = [chr(63 + g.n)]
    bits = 0
    nbits = 0
    for j in range(1, g.n):
        for i in range(j):
            bits = bits << 1 | (1 if g.has_edge(i, j) else 0)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + bits))
                bits = nbits = 0
    if nbits:
        out.append(chr(63 + (bits << (6 - nbits))))
    return "".join(out)


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
