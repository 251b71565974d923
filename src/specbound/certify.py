"""Exhaustive enumeration of small graphs up to isomorphism and desk-scale
certification of the spectral extremal theorems.

Both enumerations use canonical augmentation (B. D. McKay, "Isomorph-free
exhaustive generation", J. Algorithms 1998): a graph is accepted only from its
canonical parent, the graph left by deleting its canonical last piece, so each
isomorphism class is generated once and the parents of a level are
independent shards.  The edge-indexed enumeration adds one edge at a time (no
isolated vertices ever appear); hereditary class constraints (triangle-free,
C5-free, bounded odd girth) prune during growth, which is exact for a
hereditary class.  A non-bipartite class is grown on its own, from the odd
cycles its pruning allows, with the edges whose deletion leaves an odd
cycle as the pieces, so no bipartite class is ever built.  A connected class
is grown on its own too, from K2 (or the odd cycles, or K1 for the
vertex-indexed levels), with the pieces whose deletion leaves it connected.
So every growth builds exactly its class, and no filter runs after it: a
certifier enumerates, computes spectra and gives its verdict.  Each piece
test reads the child's neighbour bitmasks and answers with at most one
breadth-first search per component, `graphs._search`.  Mantel and Erdos
checks use the vertex-indexed enumeration, which adds one vertex at a
time.  Both take the orbit step of the construction with the automorphisms
the labelling search meets: a parent is augmented once per orbit of its
automorphism group, and a tied piece in the new piece's orbit is never
deleted to test the child (McKay & Piperno, "Practical graph isomorphism
II", J. Symb. Comput. 2014, for automorphisms read off the search).  All
their levels live in one store, `_LEVELS`, built by one loop,
`_levels_up_to`.  A level is labelled (its classes keyed by canonical form,
in canonical-form order) when something reads its forms: the growth of the
next level, or a caller of the enumerators, which always return labelled
levels.  A certifier reads only graphs and level sizes, through
`_certifier_level` and `_graph_levels`, so the top level of its request
keeps unlabelled the classes that need no form to be accepted once (see
`_children`) until such a reader comes.

The extremal graphs of the non-bipartite, Mantel and Erdos certifiers are
connected, so those certifiers build only the connected levels and count
the whole class as multisets of connected classes, by the Euler transform
(Harary & Palmer, "Graphical Enumeration", 1973).  The tests compare every
growth with a reference generator that deduplicates every augmentation by
canonical form, or with the full levels filtered by `ClassFilter.admits`.

One function, `_verdict`, decides every certifier but Erdos: no graph may
pass the bound, and those at it must be the theorem's equality set.  Erdos
has no characterized equality set (at n = 10 three classes attain the bound,
two of them constructions), so it asks only that a construction attains it.
One function, `_report`, builds every certifier's report.
"""

from __future__ import annotations

import atexit
import json
import math
import os
import time
from bisect import bisect_right
from dataclasses import asdict, dataclass
from functools import lru_cache, partial
from itertools import chain, islice, repeat
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from . import bounds
from . import spectra
from .graphs import (
    Edge,
    Graph,
    GraphError,
    automorphism_generators,
    canonical_form,
    complete_bipartite,
    cycle,
    disjoint_union,
    erdos_extremal,
    is_bipartite,
    is_connected,
    is_triangle_free,
    contains_c5,
    booksize,
    odd_girth,
    path,
    blow_up,
    sk,
    s_odd,
    _edge_on_c5,
    _search,
    _two_colourable,
)

EDGE_BUDGET = 12  # full levels; see edge_budget for the non-bipartite ones
VERTEX_BUDGET = 8
EQUALITY_TOL = 1e-7
MAXIMIZER_TOL = 1e-9


class BudgetError(GraphError):
    pass


@dataclass(frozen=True)
class ClassFilter:
    """Names a graph class: `describe` gives the reports' class string,
    the hereditary flags pick the pruning of the growth, `non_bipartite`
    the growth from odd cycles, and `connected` the growth of connected
    classes only.  That growth is the class, so `enumerate_graphs` never
    asks `admits`; it is the reference predicate the tests compare the
    growths against."""

    connected: bool = False
    triangle_free: bool = False
    c5_free: bool = False
    non_bipartite: bool = False
    odd_girth_min: int | None = None

    def describe(self) -> str:
        parts = []
        if self.connected:
            parts.append("connected")
        if self.triangle_free:
            parts.append("triangle-free")
        if self.c5_free:
            parts.append("C5-free")
        if self.non_bipartite:
            parts.append("non-bipartite")
        if self.odd_girth_min:
            parts.append(f"odd-girth>={self.odd_girth_min}")
        return " ".join(parts) if parts else "all"

    def admits(self, g: Graph) -> bool:
        if self.connected and not is_connected(g):
            return False
        if self.triangle_free and not is_triangle_free(g):
            return False
        if self.c5_free and contains_c5(g):
            return False
        if self.non_bipartite and is_bipartite(g):
            return False
        if self.odd_girth_min and odd_girth(g) < self.odd_girth_min:
            return False
        return True


# ---------------------------------------------------------------------------
# canonical augmentation
# ---------------------------------------------------------------------------

_Piece = TypeVar("_Piece")


def _children(parents: Iterable[tuple[bytes | None, Graph]],
              grow: Callable[[Graph], Iterable[tuple[int, tuple, list]]],
              delete: Callable[[Graph, _Piece], Graph],
              allowed: Callable[[Sequence[int], _Piece], bool],
              top: bool = False
              ) -> tuple[list[bytes], list[tuple[bytes | None, Graph]]]:
    """The canonical forms of the given (canonical form, g) parents, in
    order, and (canonical form, h) for every child h = g + piece whose
    canonical parent is g.  A parent that comes with None for its form is
    labelled here, as it must be for its generators anyway.  With `top`,
    the form of a child whose allowed tied pieces all lie in the new
    piece's orbit by swaps of twins (untied children among them) is not
    computed and reads None.

    Pieces are ranked by an isomorphism invariant, `allowed(masks, f)`
    says whether deleting piece f from the graph with these neighbour
    bitmasks leaves a graph of the class being grown (also an invariant),
    and leaves the masks unchanged; `delete(h, f)` is the graph left by
    removing piece f.  The canonical parent of h is the greatest canonical
    form among the deletions of its least-ranked allowed pieces, so h is
    kept only when no allowed piece ranks below the piece just added (which
    every parent makes allowed) and no tied allowed piece leaves a greater
    parent.
    `grow(g)` applies the first test: it yields (n, edges, ties) for every
    h that passes it, with the other pieces of h that tie with the new one.
    The new piece is the last edge of an edge child and the last vertex of
    a vertex child.

    The orbit step of the construction uses the automorphisms the labelling
    search met (graphs.automorphism_generators).  Of the augmentations in
    one Aut(g)-orbit of added edges only the first is kept: the others give
    isomorphic children with the same outcome of both tests.  A tied piece
    in the new piece's Aut(h)-orbit leaves a copy of g, which cannot beat
    g's own form, so it is not deleted.  Two qualifying tied pieces may
    still lie in different orbits, so the tied children of one parent are
    also deduplicated by canonical form.  A child whose allowed tied
    pieces all lie in the new piece's Aut(h)-orbit needs no form: it is
    accepted, and an isomorphism onto it from another child of g maps that
    child's new piece to an allowed piece of least rank (both tests are
    invariant), so into the orbit; composed with an automorphism of
    h it maps new piece onto new piece and restricts to an automorphism of
    g, whose orbit step has already skipped one of the two.  Without a
    labelling, the orbit is known to hold a tied piece when swaps of twins
    carry the new piece onto it (_twin_swap); an untied child qualifies
    with no swap.
    """
    forms: list[bytes] = []
    out: list[tuple[bytes | None, Graph]] = []
    for parent_key, g in parents:
        if parent_key is None:
            parent_key = canonical_form(g)
        forms.append(parent_key)
        kids: dict[bytes, Graph] = {}
        # new vertices are fixed
        gens = [p + bytes((g.n, g.n + 1)) for p in automorphism_generators(g)]
        seen: set[frozenset] = set()  # added edges of the orbits met so far
        for n, edges, ties in grow(g):
            if gens:
                added = frozenset(edges[g.m:])
                if added in seen:
                    continue
                seen |= _orbit(added, gens, _moved_edges)
            h = Graph(n, edges)
            if top and all(_twin_swap(h._masks, edges, f) for f in ties
                           if allowed(h._masks, f)):
                out.append((None, h))
                continue
            key = canonical_form(h)  # also labels h for its generators
            if ties:
                new = n - 1 if type(ties[0]) is int else edges[-1]
                copies = _orbit(new, automorphism_generators(h), _moved)
                if any(f not in copies and allowed(h._masks, f)
                       and canonical_form(delete(h, f)) > parent_key
                       for f in ties):
                    continue
            kids.setdefault(key, h)
        out.extend(kids.items())
    return forms, out


def _twin_swap(masks: Sequence[int], edges: tuple, piece) -> bool:
    """Whether swaps of twins carry the new piece of the child with these
    masks and edges (its last vertex, or its last edge for an edge piece)
    onto the piece.  Twins x, y have N(x) - y = N(y) - x, so swapping them
    is an automorphism.  Being twins is an equivalence relation, and every
    permutation that keeps each of its classes is an automorphism, so the
    two ends of an edge can be sent to twins of their own at once."""
    def twins(x: int, y: int) -> bool:
        return x == y or masks[x] & ~(1 << y) == masks[y] & ~(1 << x)

    if type(piece) is int:
        return twins(piece, len(masks) - 1)
    (a, b), (c, d) = edges[-1], piece
    return twins(a, c) and twins(b, d) or twins(a, d) and twins(b, c)


def _moved(p: bytes, piece):
    """The image of a piece, a vertex or an edge, under the vertex
    permutation p."""
    if type(piece) is int:
        return p[piece]
    u, v = p[piece[0]], p[piece[1]]
    return (u, v) if u < v else (v, u)


def _moved_edges(p: bytes, edges: frozenset) -> frozenset:
    return frozenset(_moved(p, e) for e in edges)


def _orbit(x, gens: Iterable[bytes], act: Callable) -> set:
    """The orbit of x under the group that gens generate, acting by act."""
    orbit = {x}
    stack = [x]
    while stack:
        y = stack.pop()
        for p in gens:
            z = act(p, y)
            if z not in orbit:
                orbit.add(z)
                stack.append(z)
    return orbit


def _every_piece(masks: Sequence[int], piece) -> bool:
    return True


def _union(kids: Iterable[tuple[bytes, Graph]]) -> dict[bytes, Graph]:
    """One labelled level from its parents' children, in canonical-form
    order."""
    level: dict[bytes, Graph] = {}
    for cform, h in kids:
        if cform in level:
            # every class has exactly one canonical parent
            raise RuntimeError(f"class {cform.decode()} came from two parents")
        level[cform] = h
    return dict(sorted(level.items()))


# A vertex ranks by its (degree, sum of neighbour degrees), packed as
# degree << _NDS_BITS | sum so that int order is tuple order (the sum is at
# most n(n-1) < 2^_NDS_BITS for n <= 40), and an edge by the (lower,
# higher) ranks of its ends, packed as lower << 32 | higher.  Adding an edge
# or a vertex never lowers a vertex's rank, so no old piece ranks lower in a
# child than in its parent: step 1 ranks the parent's pieces once, updates
# only the vertices an augmentation touches, and stops its scan at the first
# piece whose rank in the parent passes the new piece's.
_NDS_BITS = 16
_DEG_ONE = 1 << _NDS_BITS


def _vertex_ranks(g: Graph) -> list[int]:
    deg = g.degrees()
    nds = [0] * g.n
    for u, v in g.edges:
        nds[u] += deg[v]
        nds[v] += deg[u]
    return [d << _NDS_BITS | s for d, s in zip(deg, nds)]


def _edge_rank(x: int, y: int) -> int:
    return x << 32 | y if x < y else y << 32 | x


# ---------------------------------------------------------------------------
# edge-indexed enumeration
# ---------------------------------------------------------------------------

_PruneKey = tuple[bool, bool, int | None]


def _prune_key(f: ClassFilter) -> _PruneKey:
    """One key per pruned class, so equal classes share their levels.  Odd
    girth >= g forbids the odd cycles shorter than g: g >= 5 is triangle-free
    and g >= 7 is also C5-free.  From g = 9 (rounded up to odd) the walk test
    alone forbids C3 and C5 as well."""
    g = (f.odd_girth_min or 0) | 1
    if g >= 9:
        return (False, False, g)
    return (f.triangle_free or g >= 5, f.c5_free or g >= 7, None)


def _edge_allowed(g: Graph, u: int, v: int, key: _PruneKey) -> bool:
    tf, c5f, ogm = key
    if tf and g.mask(u) & g.mask(v):
        return False
    if c5f and _edge_on_c5(g, u, v):
        return False
    if ogm:
        # an even u-v walk of length <= ogm-3 would close an odd cycle < ogm
        reach = 1 << u
        target = 1 << v
        for step in range(1, ogm - 2):
            nxt = 0
            r = reach
            while r:
                w = (r & -r).bit_length() - 1
                r &= r - 1
                nxt |= g.mask(w)
            reach = nxt
            if step % 2 == 0 and reach & target:
                return False
    return True


def _edge_growth(g: Graph, key: _PruneKey,
                 allowed: Callable[[Sequence[int], Edge], bool],
                 connected: bool = False
                 ) -> Iterator[tuple[int, tuple, list[Edge]]]:
    """(n, edges, ties) for every h = g + e, e = (a, b), in which no allowed
    edge ranks below e; ties are the other edges that rank with e, in edge
    order.  A connected growth never adds e as a new K2 component.  In h,
    a and b each gain a neighbour, and the neighbour-degree sum of each of
    their old neighbours rises by one.  The masks of h are built when
    `allowed` is first asked about one of its edges."""
    n = g.n
    masks = g._masks + (0, 0)
    inv = _vertex_ranks(g) + [0, 0]
    ranked = sorted((_edge_rank(inv[u], inv[v]), u, v) for u, v in g.edges)
    ranks = [r for r, _, _ in ranked]
    pairs = chain(
        ((u, v) for u in range(n) for v in range(u + 1, n)
         if not masks[u] >> v & 1 and _edge_allowed(g, u, v, key)),
        ((u, n) for u in range(n)),
        () if connected else ((n, n + 1),))
    for a, b in pairs:
        ma, mb = masks[a], masks[b]
        ia = inv[a] + _DEG_ONE + mb.bit_count() + 1
        ib = inv[b] + _DEG_ONE + ma.bit_count() + 1
        mine = _edge_rank(ia, ib)
        nh = max(n, b + 1)
        ties = []
        child = None
        for r, u, v in islice(ranked, bisect_right(ranks, mine)):
            iu = ia if u == a else ib if u == b else (
                inv[u] + (ma >> u & 1) + (mb >> u & 1))
            iv = ia if v == a else ib if v == b else (
                inv[v] + (ma >> v & 1) + (mb >> v & 1))
            r = _edge_rank(iu, iv)
            if r < mine:
                if child is None:
                    child = list(masks[:nh])
                    child[a] |= 1 << b
                    child[b] |= 1 << a
                if allowed(child, (u, v)):
                    break
            if r == mine:
                ties.append((u, v))
        else:
            yield nh, g.edges + ((a, b),), sorted(ties)


def _drop_edge(h: Graph, e: Edge) -> Graph:
    """h - e without the isolated vertices it leaves: the ends of e that
    have no other neighbour."""
    lost = [v for v in e if h.degree(v) == 1]
    if lost:
        return h.induced(v for v in range(h.n) if v not in lost)
    return Graph(h.n, tuple(f for f in h.edges if f != e))


def _without_edge(masks: Sequence[int], e: Edge) -> list[int]:
    """A copy of the masks with the edge e cleared."""
    u, v = e
    rest = list(masks)
    rest[u] &= ~(1 << v)
    rest[v] &= ~(1 << u)
    return rest


def _pendant(masks: Sequence[int], e: Edge) -> bool:
    u, v = e
    return masks[u] == 1 << v or masks[v] == 1 << u


def _keeps_odd_cycle(masks: Sequence[int], e: Edge) -> bool:
    """Whether the graph with these masks is still non-bipartite without
    the edge e."""
    return not _two_colourable(_without_edge(masks, e))


def _keeps_connected(masks: Sequence[int], e: Edge) -> bool:
    """Whether the connected graph with these masks (and no isolated
    vertex) stays connected without the edge e, once an end that e leaves
    isolated is dropped: e is pendant or not a bridge."""
    u, v = e
    return _pendant(masks, e) or bool(
        _search(_without_edge(masks, e), u)[0] >> v & 1)


def _keeps_connected_odd_cycle(masks: Sequence[int], e: Edge) -> bool:
    """`_keeps_connected` and `_keeps_odd_cycle` of a connected
    non-bipartite graph, in one search.  A pendant edge lies on no cycle,
    so it passes both."""
    if _pendant(masks, e):
        return True
    comp, inner = _search(_without_edge(masks, e), e[0])
    return inner > 0 and comp == (1 << len(masks)) - 1


# ---------------------------------------------------------------------------
# vertex-indexed enumeration (Mantel / Erdos)
# ---------------------------------------------------------------------------


def _vertex_growth(g: Graph, triangle_free: bool,
                   allowed: Callable[[Sequence[int], int], bool]
                   = _every_piece,
                   connected: bool = False
                   ) -> Iterator[tuple[int, tuple, list[int]]]:
    """(n, edges, ties) for every h = g + vertex k joined to a set S, in
    which no allowed vertex ranks below k; ties are the other vertices that
    rank with k.  A connected growth never takes S empty.  In h, each vertex
    of S gains the neighbour k of degree |S|, and the neighbour-degree sum
    of every old vertex rises by its number of neighbours in S.  The masks
    of h are built when `allowed` is first asked about one of its
    vertices."""
    k = g.n
    masks = g._masks
    inv = _vertex_ranks(g)
    ranked = sorted(zip(inv, range(k)))
    ranks = [r for r, _ in ranked]
    # the rank of k is a sum over S, so each S extends S minus its lowest
    # vertex; -1 marks an S with an edge inside when that makes a triangle
    new_rank = [0] * (1 << k)
    for nb in range(1, 1 << k):
        v = (nb & -nb).bit_length() - 1
        rest = new_rank[nb & (nb - 1)]
        new_rank[nb] = -1 if rest < 0 or triangle_free and masks[v] & nb \
            else rest + _DEG_ONE + masks[v].bit_count() + 1
    for nb, mine in enumerate(new_rank):
        if mine < 0 or connected and not nb:
            continue
        size = mine >> _NDS_BITS
        ties = []
        child = None
        for r, v in islice(ranked, bisect_right(ranks, mine)):
            if nb >> v & 1:
                r += _DEG_ONE + size
            r += (masks[v] & nb).bit_count()
            if r < mine:
                if child is None:
                    child = [mv | (nb >> w & 1) << k
                             for w, mv in enumerate(masks)] + [nb]
                if allowed(child, v):
                    break
            if r == mine:
                ties.append(v)
        else:
            added = tuple((v, k) for v in range(k) if nb >> v & 1)
            yield k + 1, g.edges + added, sorted(ties)


def _drop_vertex(h: Graph, v: int) -> Graph:
    return h.induced(w for w in range(h.n) if w != v)


def _not_a_cut_vertex(masks: Sequence[int], v: int) -> bool:
    """Whether the connected graph with these masks stays connected
    without v.  The search from another vertex does not pass through v
    once v has no neighbours, and it still reaches v from a neighbour
    exactly when the rest is connected."""
    n = len(masks)
    if n == 1:
        return True
    rest = list(masks)
    rest[v] = 0
    return _search(rest, (v + 1) % n)[0] == (1 << n) - 1


# ---------------------------------------------------------------------------
# levels: one store and one growth loop for both enumerations
# ---------------------------------------------------------------------------

# growth -> levels.  A growth is ("edge", prune key) for the full pruned
# class, ("odd", prune key) for its non-bipartite classes, grown from odd
# cycles, ("vertex", triangle_free) for the vertex-indexed levels, or one of
# these with "-conn" for its connected classes ("conn" for "edge").
# levels[k] maps canonical form -> graph with k edges (k vertices for
# "vertex"), in canonical-form order: the union of the children that the
# classes of level k-1 accept as their canonical parent, and of the roots
# of level k.  A level is labelled, and stored here, once anything reads
# its forms: the growth of the next level, whose parents need them, or a
# caller of the enumerators.  Until then the top level of a certifier's
# request is kept in `top` (see _Levels).
_Growth = tuple[str, object]


class _Levels(list):
    """The labelled levels 0..k-1 of a growth and, in `top`, level k when
    a certifier built it as the top of its request and nothing has read its
    forms since (None otherwise): its graphs keyed by the order they were
    built in, since some of its classes were never labelled."""
    top: dict[int, Graph] | None = None


_LEVELS: dict[_Growth, _Levels] = {}

# kind -> the pieces whose deletion leaves a graph of the growth's class.
# Every connected graph but K2 and K1 has such an edge and vertex (a leaf of
# a spanning tree, or an edge off it), and every connected non-bipartite one
# but an odd cycle such an edge (take a spanning tree that holds all of one
# odd cycle but one edge).
_PIECES: dict[str, Callable[[Sequence[int], object], bool]] = {
    "edge": _every_piece,
    "odd": _keeps_odd_cycle,
    "conn": _keeps_connected,
    "odd-conn": _keeps_connected_odd_cycle,
    "vertex": _every_piece,
    "vertex-conn": _not_a_cut_vertex,
}


def _grow(growth: _Growth, parents: list[tuple[bytes | None, Graph]],
          top: bool = False
          ) -> tuple[list[bytes], list[tuple[bytes | None, Graph]]]:
    """The forms of a block of parents and the children that accept them
    (see _children)."""
    kind, arg = growth
    allowed = _PIECES[kind]
    connected = kind.endswith("conn")
    if kind.startswith("vertex"):
        return _children(
            parents, lambda g: _vertex_growth(g, arg, allowed, connected),
            _drop_vertex, allowed, top)
    return _children(
        parents, lambda g: _edge_growth(g, arg, allowed, connected),
        _drop_edge, allowed, top)


def _roots(growth: _Growth, k: int) -> list[tuple[bytes, Graph]]:
    """The classes of level k that have no canonical parent: K2 (edge) or
    K1 (vertex) at k = 1, and the odd cycle C_k (non-bipartite) when the key
    allows closing the path P_k into it.

    Every non-bipartite class other than an odd cycle has an edge whose
    deletion leaves it non-bipartite (any edge off one odd cycle), so those
    edges are its pieces and its canonical parent is non-bipartite."""
    kind, arg = growth
    if kind.startswith("odd"):
        closes = k >= 3 and k % 2 and _edge_allowed(path(k), 0, k - 1, arg)
        roots = [cycle(k)] if closes else []
    elif k == 1:
        roots = [Graph(1, ()) if kind.startswith("vertex") else path(2)]
    else:
        roots = []
    return [(canonical_form(g), g) for g in roots]


@lru_cache(maxsize=1)
def _start_pool(jobs: int):
    """The process's one pool, of `jobs` workers (another count drops it).
    `concurrent.futures` is imported here, so that importing specbound, or
    a jobs=1 run, never loads `multiprocessing`."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=jobs)


# drop the pool at exit while `multiprocessing` is still loaded
atexit.register(_start_pool.cache_clear)


def _levels_up_to(m: int, growth: _Growth, jobs: int = 1,
                  top: bool = False) -> _Levels:
    """The stored levels of the growth, built on until they hold levels
    0..m, labelled; the pool grows each level that has at least 4 parents
    per job.  With `top`, a level m that the call builds, or that an
    earlier such call left, stays in `top` (see _graph_levels).  A level
    kept there is labelled when the next level grows from it, which labels
    its graphs for their generators anyway (in the workers, with a pool),
    or when a call without `top` asks for it."""
    levels = _LEVELS.setdefault(growth, _Levels([{}]))
    while len(levels) + (levels.top is not None) <= m:
        below = levels.top
        k = len(levels) + (below is not None)
        parents = (list(levels[-1].items()) if below is None
                   else [(None, g) for g in below.values()])
        last = top and k == m
        grow = partial(_grow, top=True) if last else _grow
        if jobs > 1 and len(parents) >= 4 * jobs:
            from concurrent.futures.process import BrokenProcessPool
            try:
                blocks = list(_start_pool(jobs).map(
                    grow, repeat(growth), ([p] for p in parents),
                    chunksize=len(parents) // (4 * jobs)))
            except BrokenProcessPool:
                _start_pool.cache_clear()  # the next build starts a new pool
                raise
        else:
            blocks = [grow(growth, parents)]
        if below is not None:
            levels.append(_union(zip(
                chain.from_iterable(f for f, _ in blocks), below.values())))
            levels.top = None
        kids = chain(chain.from_iterable(c for _, c in blocks),
                     _roots(growth, k))
        if last:
            levels.top = dict(enumerate(h for _, h in kids))
        else:
            levels.append(_union(kids))
    if not top and len(levels) == m:
        levels.append(_union((canonical_form(g), g)
                             for g in levels.top.values()))
        levels.top = None
    return levels


def _graph_levels(m: int, growth: _Growth, jobs: int = 1
                  ) -> list[dict[object, Graph]]:
    """Levels 0..m of the growth, as a certifier reads them, which is by
    their graphs and sizes alone: a level m that this builds, or that an
    earlier such call left, is keyed by the order its graphs were built in,
    and not every class of it is labelled."""
    levels = _levels_up_to(m, growth, jobs, top=True)
    return levels[:m + 1] if len(levels) > m else levels + [levels.top]


def _certifier_level(m: int, growth: _Growth, jobs: int) -> list[Graph]:
    """The graphs of level m of the growth, as `_graph_levels` builds them.
    Every certifier reads its level through this one function, and labels
    only the graphs its report names."""
    return list(_graph_levels(m, growth, jobs)[m].values())


def edge_budget(filt: ClassFilter) -> int:
    """Largest m that `enumerate_graphs` accepts for this filter.

    Non-bipartite classes grow from odd cycles, and the longer the shortest
    odd cycle their pruning allows, the smaller their levels, so triangle-
    free, {C3,C5}-free and odd girth >= 9 classes go further than
    EDGE_BUDGET.  Every other filter builds full levels and keeps it."""
    if not filt.non_bipartite:
        return EDGE_BUDGET
    triangle_free, c5_free, odd_girth_min = _prune_key(filt)
    if odd_girth_min:
        return 15
    if triangle_free:
        return 14 if c5_free else 13
    return EDGE_BUDGET


def _checked_growth(m: int, filt: ClassFilter, jobs: int) -> _Growth:
    """The growth that builds the filter's class, once m and jobs are
    checked; the budget error names the filter."""
    if m < 1:
        raise GraphError("enumeration needs m >= 1")
    if jobs < 1:
        raise GraphError(f"jobs must be >= 1, got {jobs}")
    budget = edge_budget(filt)
    if m > budget:
        raise BudgetError(
            f"edge budget is m <= {budget} for {filt.describe()}")
    kind = "odd" if filt.non_bipartite else "edge"
    if filt.connected:
        kind = "odd-conn" if filt.non_bipartite else "conn"
    return kind, _prune_key(filt)


def _checked_vertex_growth(n: int, triangle_free: bool,
                           connected: bool) -> _Growth:
    """The vertex-indexed growth of the class, once n is checked."""
    if n < 1:
        raise GraphError("needs n >= 1")
    if n > VERTEX_BUDGET:
        raise BudgetError(f"vertex budget is n <= {VERTEX_BUDGET}")
    return "vertex-conn" if connected else "vertex", triangle_free


def enumerate_graphs(m: int, filt: ClassFilter = ClassFilter(),
                     jobs: int = 1) -> Iterator[Graph]:
    """All isomorphism classes with m edges and no isolated vertices in
    the filter's class, in canonical-form order: the stored level of the
    growth the filter picks, built (and the arguments checked) by the call,
    and labelled."""
    growth = _checked_growth(m, filt, jobs)
    return iter(_levels_up_to(m, growth, jobs)[m].values())


def graphs_on_vertices(n: int, triangle_free: bool = True,
                       connected: bool = False) -> list[Graph]:
    """All isomorphism classes on exactly n labeled-off vertices (isolated
    vertices allowed unless connected), grown one vertex at a time, in
    canonical-form order, labelled as in enumerate_graphs."""
    growth = _checked_vertex_growth(n, triangle_free, connected)
    return list(_levels_up_to(n, growth)[n].values())


# ---------------------------------------------------------------------------
# class counts from the connected levels
# ---------------------------------------------------------------------------


def _euler(c: list[int]) -> list[int]:
    """The Euler transform a of c: a[n] is the number of multisets of
    connected classes whose sizes add up to n, when c[k] classes have size
    k (c[0] is ignored).  n a[n] = sum_k b[k] a[n-k], with b[k] the sum of
    d c[d] over the divisors d of k (Harary & Palmer, "Graphical
    Enumeration", 1973)."""
    b = [sum(d * c[d] for d in range(1, k + 1) if k % d == 0)
         for k in range(len(c))]
    a = [1]
    for n in range(1, len(c)):
        a.append(sum(b[k] * a[n - k] for k in range(1, n + 1)) // n)
    return a


def _bipartite_sizes(levels: list[dict[object, Graph]]) -> list[int]:
    return [sum(map(is_bipartite, level.values())) for level in levels]


def _non_bipartite_count(m: int, key: _PruneKey) -> int:
    """The number of non-bipartite classes with m edges and no isolated
    vertex of the pruned class, from its connected levels: at least one
    component is non-bipartite, so it is [x^m] (E(c_nb) - 1) E(c_b) for the
    connected non-bipartite and bipartite counts c_nb and c_b.  The first
    non-bipartite class has g edges, so c_b is needed only up to m - g."""
    odd = [len(level) for level in _graph_levels(m, ("odd-conn", key))]
    g = next((k for k, size in enumerate(odd) if size), m + 1)
    if g > m:
        return 0
    # small levels: m - g edges is at most m - 3, and no pool is started
    bip = _euler(_bipartite_sizes(_graph_levels(m - g, ("conn", key))))
    odd = _euler(odd)
    return sum(odd[k] * bip[m - k] for k in range(g, m + 1))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertificationReport:
    theorem: str
    m: int
    filter: str
    graphs_examined: int
    max_lambda: float
    bound: float
    maximizers: tuple[str, ...]
    verdict: str  # HOLDS | HOLDS_WITH_EQUALITY | VIOLATED
    wall_time: float
    counterexamples: tuple[str, ...] = ()
    conjecture: bool = False

    def render_text(self) -> str:
        tag = "CONJECTURE " if self.conjecture else ""
        lines = [
            f"theorem          {self.theorem}",
            f"parameter        {self.m}",
            f"class            {self.filter}",
            f"graphs examined  {self.graphs_examined}",
            f"max value        {self.max_lambda:.10f}",
            f"bound            {self.bound:.10f}",
            f"maximizers       {' '.join(self.maximizers) or '-'}",
            f"verdict          {tag}{self.verdict}",
            f"wall time        {self.wall_time:.3f}s",
        ]
        if self.counterexamples:
            lines.append(f"counterexamples  {' '.join(self.counterexamples)}")
        return "\n".join(lines)


def report_to_json(report: CertificationReport | BooksizeReport,
                   path: str | os.PathLike) -> None:
    with open(path, "w") as fh:
        json.dump(asdict(report), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


# ---------------------------------------------------------------------------
# certifier core
# ---------------------------------------------------------------------------


def _named(graphs: Sequence[Graph], vals: Sequence[float],
           keep: Callable[[float], bool]) -> tuple[str, ...]:
    """Canonical forms, sorted, of the graphs whose value `keep` accepts."""
    return tuple(sorted(canonical_form(g).decode()
                        for g, v in zip(graphs, vals) if keep(v)))


def _forms(*graphs: Graph) -> set[str]:
    return {canonical_form(g).decode() for g in graphs}


# (max value, maximizers, verdict, counterexamples)
_Decision = tuple[float, tuple[str, ...], str, tuple[str, ...]]


def _verdict(graphs: Sequence[Graph], vals: Sequence[float], bound: float,
             expected_equality: set[str]) -> _Decision:
    """The decision on a bound whose equality set is exactly
    `expected_equality`, from the examined graphs and their values.  The
    graphs above the bound violate it; otherwise the claimants, the graphs
    at the bound, must be the expected set."""
    max_val = max(vals, default=0.0)
    maximizers = _named(graphs, vals, lambda v: v >= max_val - MAXIMIZER_TOL)
    violators = _named(graphs, vals, lambda v: v > bound + EQUALITY_TOL)
    claimants = set(_named(graphs, vals,
                           lambda v: abs(v - bound) <= EQUALITY_TOL))
    if violators:
        return max_val, maximizers, "VIOLATED", violators
    if claimants == expected_equality:
        verdict = "HOLDS_WITH_EQUALITY" if claimants else "HOLDS"
        return max_val, maximizers, verdict, ()
    # numerics nominated an equality set that structure rejects
    return (max_val, maximizers, "VIOLATED",
            tuple(sorted(claimants ^ expected_equality)))


def _report(theorem: str, m: int, filt: str, start: float, examined: int,
            bound: float, decision: _Decision,
            conjecture: bool = False) -> CertificationReport:
    """The report of a certifier that started at `start` (perf_counter)
    and reached `decision`."""
    max_val, maximizers, verdict, counter = decision
    return CertificationReport(
        theorem=theorem, m=m, filter=filt, graphs_examined=examined,
        max_lambda=max_val, bound=bound, maximizers=maximizers,
        verdict=verdict, wall_time=time.perf_counter() - start,
        counterexamples=counter, conjecture=conjecture)


def _lambda_certify(theorem: str, m: int, filt: ClassFilter,
                    bound_and_equality: Callable[[], tuple[float, set[str]]],
                    quantity: Callable[[Graph], float], jobs: int,
                    conjecture: bool = False) -> CertificationReport:
    """Certify `quantity` <= bound on the filter's m-edge classes, with
    the bound and its equality set from `bound_and_equality()`.  That is
    called only once m is checked against the filter's edge budget, so an
    m past it builds no extremal graph and no bound.  Only the graphs the
    verdict names are labelled at level m."""
    start = time.perf_counter()
    # a budget error names the class certified
    kind, key = _checked_growth(m, filt, jobs)
    # Gluing the components of a non-bipartite graph at a vertex keeps m and
    # every cycle and raises lambda (Perron-Frobenius), so its connected
    # classes hold every maximizer; the others are only counted.
    graphs = _certifier_level(
        m, ("odd-conn" if kind == "odd" else kind, key), jobs)
    examined = _non_bipartite_count(m, key) if kind == "odd" else len(graphs)
    bound, expected = bound_and_equality()
    decision = _verdict(graphs, [quantity(g) for g in graphs], bound,
                        expected)
    return _report(theorem, m, filt.describe(), start, examined, bound,
                   decision, conjecture)


# ---------------------------------------------------------------------------
# theorem certifiers
# ---------------------------------------------------------------------------


def certify_nosal(m: int, jobs: int = 1) -> CertificationReport:
    """Triangle-free with m edges: lambda <= sqrt(m), equality exactly at the
    complete bipartite graphs."""
    if m < 1:
        raise GraphError("needs m >= 1")
    return _lambda_certify(
        "nosal", m, ClassFilter(triangle_free=True),
        lambda: (math.sqrt(m), _blowup_equality(m, (path(2),))),
        spectra.spectral_radius, jobs,
    )


def _blowup_equality(m: int, bases: Sequence[Graph]) -> set[str]:
    """Canonical forms of all m-edge blow-ups (sizes >= 1) of the bases.

    The blow-ups of P2 are the K_{s,t} with st = m, Nosal's equality set;
    those of P2, 2P2, P4 and P5 are the equality graphs for the
    top-two-eigenvalue bound once isolated vertices are dropped.
    """
    out: set[str] = set()
    for base in bases:
        k = base.n
        sizes = [0] * k

        def rec(i: int) -> None:
            if i == k:
                count = sum(sizes[u] * sizes[v] for u, v in base.edges)
                if count == m:
                    out.add(canonical_form(blow_up(base, sizes)).decode())
                return
            for s in range(1, m + 1):
                sizes[i] = s
                partial = sum(
                    sizes[u] * sizes[v] for u, v in base.edges
                    if u <= i and v <= i
                )
                if partial > m:
                    break
                rec(i + 1)

        rec(0)
    return out


def certify_lnw_sum(m: int, jobs: int = 1) -> CertificationReport:
    """Triangle-free with m edges: lambda_1^2 + lambda_2^2 <= m, equality
    exactly at blow-ups of P2, 2P2, P4, P5 (isolated vertices ignored).

    Needs m >= 2: the single-edge graph K2 has lambda_2 = -1, so the bound
    only holds for it after appending the isolated vertex this enumeration
    never emits.
    """
    if m < 2:
        raise GraphError("needs m >= 2 (K2 alone has lambda_2 = -1)")
    return _lambda_certify(
        "lnw", m, ClassFilter(triangle_free=True),
        lambda: (float(m), _blowup_equality(
            m, (path(2), disjoint_union(path(2), path(2)), path(4), path(5)))),
        spectra.top_two_squares, jobs,
    )


def certify_thm15(m: int, jobs: int = 1) -> CertificationReport:
    """Triangle-free non-bipartite: lambda <= sqrt(m-1), equality only at
    (m, G) = (5, C_5)."""
    if m < 1:
        raise GraphError("needs m >= 1")
    filt = ClassFilter(triangle_free=True, non_bipartite=True)
    return _lambda_certify(
        "thm15", m, filt,
        lambda: (math.sqrt(m - 1), _forms(sk(2, 2)) if m == 5 else set()),
        spectra.spectral_radius, jobs)


def certify_zhai_shu(m: int, jobs: int = 1) -> CertificationReport:
    """Triangle-free non-bipartite: lambda <= beta(m), equality iff m odd and
    G = SK_{2,(m-1)/2}."""
    if m < 5:
        raise GraphError("needs m >= 5")
    filt = ClassFilter(triangle_free=True, non_bipartite=True)
    return _lambda_certify(
        "zhai-shu", m, filt,
        lambda: (bounds.beta(m),
                 _forms(sk(2, (m - 1) // 2)) if m % 2 == 1 else set()),
        spectra.spectral_radius, jobs)


def certify_main(m: int, jobs: int = 1) -> CertificationReport:
    """{C3,C5}-free non-bipartite: lambda <= gamma(m), equality iff m odd and
    G = S_3(K_{2,(m-3)/2})."""
    if m < 7:
        raise GraphError("needs m >= 7")
    filt = ClassFilter(triangle_free=True, c5_free=True, non_bipartite=True)
    return _lambda_certify(
        "main", m, filt,
        lambda: (bounds.gamma(m),
                 _forms(s_odd(2, (m - 3) // 2, 2)) if m % 2 == 1 else set()),
        spectra.spectral_radius, jobs)


def certify_conj51(m: int, k: int, jobs: int = 1) -> CertificationReport:
    """Exploratory: {C3,...,C_{2k+1}}-free non-bipartite classes against
    lambda(S_{2k-1}(K_{2,(m-2k+1)/2})).  Evidence, not a theorem."""
    if m % 2 == 0:
        raise GraphError("the conjectured extremal graph needs odd m")
    if k < 1 or m < 2 * k + 3:
        raise GraphError("needs k >= 1 and m >= 2k+3")

    def bound_and_equality() -> tuple[float, set[str]]:
        extremal = s_odd(2, (m - 2 * k + 1) // 2, k)
        return spectra.spectral_radius(extremal), _forms(extremal)

    filt = ClassFilter(non_bipartite=True, odd_girth_min=2 * k + 3)
    return _lambda_certify(f"conj51[k={k}]", m, filt, bound_and_equality,
                           spectra.spectral_radius, jobs, conjecture=True)


def certify_mantel(n: int) -> CertificationReport:
    """Triangle-free on n vertices: at most floor(n^2/4) edges, with the
    balanced complete bipartite graph as unique maximizer."""
    if n < 2:
        raise GraphError("needs n >= 2")
    start = time.perf_counter()
    # an edge joining two components closes no cycle, so the maximizers are
    # connected; the other classes are multisets of connected ones
    growth = _checked_vertex_growth(n, triangle_free=True, connected=True)
    gs = _certifier_level(n, growth, 1)
    sizes = [len(level) for level in _graph_levels(n, growth)]
    bound = float(n * n // 4)
    decision = _verdict(gs, [float(g.m) for g in gs], bound,
                        _forms(complete_bipartite(n // 2, (n + 1) // 2)))
    return _report("mantel", n, "triangle-free (n-vertex)", start,
                   _euler(sizes)[n], bound, decision)


def certify_erdos(n: int) -> CertificationReport:
    """Triangle-free non-bipartite on n vertices: at most
    floor((n-1)^2/4) + 1 edges; the bound is attained (not uniquely) and the
    two-part construction must be among the maximizers."""
    if n < 5:
        raise GraphError("needs n >= 5")
    start = time.perf_counter()
    # the maximizers are connected, as for Mantel; the count is that of all
    # classes less the bipartite ones
    growth = _checked_vertex_growth(n, triangle_free=True, connected=True)
    gs = [g for g in _certifier_level(n, growth, 1) if not is_bipartite(g)]
    levels = _graph_levels(n, growth)
    examined = (_euler([len(level) for level in levels])[n]
                - _euler(_bipartite_sizes(levels))[n])
    bound = float((n - 1) ** 2 // 4 + 1)
    sizes = [float(g.m) for g in gs]
    max_m = max(sizes)
    maximizers = _named(gs, sizes, lambda v: v == max_m)
    constructions = _forms(*(erdos_extremal(n, k) for k in range(1, n // 2)))
    if max_m == bound and constructions & set(maximizers):
        decision = (max_m, maximizers, "HOLDS_WITH_EQUALITY", ())
    else:
        decision = (max_m, maximizers, "VIOLATED", maximizers)
    return _report("erdos", n, "triangle-free non-bipartite (n-vertex)",
                   start, examined, bound, decision)


# ---------------------------------------------------------------------------
# booksize exploration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BooksizeRow:
    graph6: str
    spectral_radius: float
    booksize: int


@dataclass(frozen=True)
class BooksizeReport:
    m: int
    graphs_examined: int
    rows: tuple[BooksizeRow, ...]
    min_booksize: int
    min_ratio: float  # min booksize / sqrt(m); 0 when there are no rows
    nikiforov_floor: float  # (1/12) m^(1/4)
    nikiforov_ok: bool
    wall_time: float

    def render_text(self) -> str:
        lines = [
            f"booksize survey, m = {self.m}: graphs with spectral radius >= "
            f"sqrt(m) that are not complete bipartite",
            f"{'graph6':<16} {'lambda':>12} {'booksize':>9}",
        ]
        for r in self.rows:
            lines.append(f"{r.graph6:<16} {r.spectral_radius:>12.6f} "
                         f"{r.booksize:>9}")
        lines.append(f"graphs examined    {self.graphs_examined}")
        lines.append(f"min booksize       {self.min_booksize}")
        lines.append(f"min bk / sqrt(m)   {self.min_ratio:.6f}")
        lines.append(f"floor m^(1/4)/12   {self.nikiforov_floor:.6f} "
                     f"({'all above' if self.nikiforov_ok else 'BELOW'})")
        lines.append(f"wall time          {self.wall_time:.3f}s")
        return "\n".join(lines)


def explore_booksize(m: int, jobs: int = 1) -> BooksizeReport:
    """Evidence table: every non-complete-bipartite m-edge class with
    lambda >= sqrt(m), its booksize, and the worst bk/sqrt(m) ratio."""
    start = time.perf_counter()
    graphs = _certifier_level(m, _checked_growth(m, ClassFilter(), jobs), jobs)
    vals = [spectra.spectral_radius(g) for g in graphs]
    cut = math.sqrt(m) - 1e-9
    nosal_equality = _blowup_equality(m, (path(2),))  # K_{s,t}, st = m
    rows = []
    for g, lam in zip(graphs, vals):
        if lam >= cut:
            form = canonical_form(g).decode()
            if form not in nosal_equality:
                rows.append(BooksizeRow(form, lam, booksize(g)))
    rows.sort(key=lambda r: (r.booksize, r.graph6))
    floor = m ** 0.25 / 12.0
    min_bk = min((r.booksize for r in rows), default=0)
    return BooksizeReport(
        m=m,
        graphs_examined=len(graphs),
        rows=tuple(rows),
        min_booksize=min_bk,
        min_ratio=min_bk / math.sqrt(m),
        nikiforov_floor=floor,
        nikiforov_ok=all(r.booksize > floor for r in rows),
        wall_time=time.perf_counter() - start,
    )
