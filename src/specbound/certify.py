"""Exhaustive enumeration of small graphs up to isomorphism and desk-scale
certification of the spectral extremal theorems.

Edge-indexed enumeration grows graphs one edge at a time (no isolated
vertices ever appear), deduplicating by canonical form; hereditary class
constraints (triangle-free, C5-free, bounded odd girth) prune during growth,
non-hereditary ones (connected, non-bipartite) filter at the end.  Mantel and
Erdos checks use a separate vertex-indexed enumeration.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from typing import Callable, Iterator

from . import bounds
from . import spectra
from .graphs import (
    Graph,
    GraphError,
    canonical_form,
    canonical_graph,
    complete_bipartite,
    connected_components,
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
    to_graph6,
    _edge_on_c5,
)

EDGE_BUDGET = 12
VERTEX_BUDGET = 8
EQUALITY_TOL = 1e-7
MAXIMIZER_TOL = 1e-9


class BudgetError(GraphError):
    pass


@dataclass(frozen=True)
class ClassFilter:
    """Composable graph-class predicate.  The hereditary flags also prune
    during generation; `connected` and `non_bipartite` only filter."""

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
        og = None
        if self.non_bipartite or self.odd_girth_min:
            og = odd_girth(g)
        if self.non_bipartite and og == math.inf:
            return False
        if self.odd_girth_min and og < self.odd_girth_min:
            return False
        return True


# ---------------------------------------------------------------------------
# edge-indexed enumeration
# ---------------------------------------------------------------------------

_PruneKey = tuple[bool, bool, int | None]

# prune key -> levels; levels[k] maps canonical form -> graph with k edges
_LEVELS: dict[_PruneKey, list[dict[bytes, Graph]]] = {}


def _prune_key(f: ClassFilter) -> _PruneKey:
    return (f.triangle_free, f.c5_free, f.odd_girth_min)


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


def _augmentations(g: Graph, key: _PruneKey) -> list[Graph]:
    out = []
    n = g.n
    for u in range(n):
        for v in range(u + 1, n):
            if not g.has_edge(u, v) and _edge_allowed(g, u, v, key):
                out.append(Graph(n, g.edges + ((u, v),)))
    for u in range(n):
        out.append(Graph(n + 1, g.edges + ((u, n),)))
    out.append(Graph(n + 2, g.edges + ((n, n + 1),)))
    return out


def _augment_chunk(args) -> list[tuple[bytes, int, tuple]]:
    key, glist = args
    out = []
    for n, edges in glist:
        g = Graph(n, edges)
        for h in _augmentations(g, key):
            out.append((canonical_form(h), h.n, h.edges))
    return out


def _chunks(items: list, size: int) -> list[list]:
    return [items[i:i + size] for i in range(0, len(items), size)]


def _levels_up_to(m: int, key: _PruneKey, jobs: int = 1) -> list[dict[bytes, Graph]]:
    levels = _LEVELS.setdefault(key, [
        {},
        {canonical_form(path(2)): path(2)},
    ])
    while len(levels) <= m:
        prev = levels[-1]
        parents = [prev[c] for c in sorted(prev)]
        merged: dict[bytes, Graph] = {}
        if jobs > 1 and len(parents) >= 4 * jobs:
            payload = [(g.n, g.edges) for g in parents]
            with ProcessPoolExecutor(max_workers=jobs) as ex:
                size = max(1, len(payload) // (4 * jobs))
                for block in ex.map(_augment_chunk,
                                    [(key, c) for c in _chunks(payload, size)]):
                    for cform, n, edges in block:
                        if cform not in merged:
                            merged[cform] = Graph(n, edges)
        else:
            for g in parents:
                for h in _augmentations(g, key):
                    cform = canonical_form(h)
                    if cform not in merged:
                        merged[cform] = h
        levels.append({c: merged[c] for c in sorted(merged)})
    return levels


def enumerate_graphs(m: int, filt: ClassFilter = ClassFilter(),
                     jobs: int = 1) -> Iterator[Graph]:
    """All isomorphism classes with m edges and no isolated vertices that
    satisfy the filter, in canonical-form order."""
    if m < 1:
        raise GraphError("enumeration needs m >= 1")
    if m > EDGE_BUDGET:
        raise BudgetError(f"edge budget is m <= {EDGE_BUDGET}")
    levels = _levels_up_to(m, _prune_key(filt), jobs)
    for cform in sorted(levels[m]):
        g = levels[m][cform]
        if filt.admits(g):
            yield g


# ---------------------------------------------------------------------------
# vertex-indexed enumeration (Mantel / Erdos)
# ---------------------------------------------------------------------------

_VERTEX_LEVELS: dict[bool, list[dict[bytes, Graph]]] = {}


def graphs_on_vertices(n: int, triangle_free: bool = True) -> list[Graph]:
    """All isomorphism classes on exactly n labeled-off vertices (isolated
    vertices allowed), grown one vertex at a time."""
    if n < 1:
        raise GraphError("needs n >= 1")
    if n > VERTEX_BUDGET:
        raise BudgetError(f"vertex budget is n <= {VERTEX_BUDGET}")
    levels = _VERTEX_LEVELS.setdefault(
        triangle_free, [{}, {canonical_form(Graph(1, ())): Graph(1, ())}]
    )
    while len(levels) <= n:
        k = len(levels) - 1
        merged: dict[bytes, Graph] = {}
        for g in levels[-1].values():
            for nb in range(1 << k):
                if triangle_free:
                    ok = True
                    probe = nb
                    while probe:
                        v = (probe & -probe).bit_length() - 1
                        probe &= probe - 1
                        if g.mask(v) & nb:
                            ok = False
                            break
                    if not ok:
                        continue
                extra = tuple((v, k) for v in range(k) if nb >> v & 1)
                h = Graph(k + 1, g.edges + extra)
                cform = canonical_form(h)
                if cform not in merged:
                    merged[cform] = h
        levels.append({c: merged[c] for c in sorted(merged)})
    return [levels[n][c] for c in sorted(levels[n])]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


class _JsonReport:
    """JSON round-trip derived from the dataclass fields: tuples are written
    as lists and read back as tuples."""

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, d: dict):
        return cls(**{
            f.name: tuple(d[f.name]) if isinstance(d[f.name], list)
            else d[f.name]
            for f in fields(cls)
        })


@dataclass(frozen=True)
class CertificationReport(_JsonReport):
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
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# certifier core
# ---------------------------------------------------------------------------


def _canon_g6(g: Graph) -> str:
    return to_graph6(canonical_graph(g))


def _lambda_certify(theorem: str, m: int, filt: ClassFilter, bound: float,
                    expected_equality: set[str],
                    quantity: Callable[[Graph], float], jobs: int,
                    conjecture: bool = False) -> CertificationReport:
    start = time.perf_counter()
    graphs = list(enumerate_graphs(m, filt, jobs))
    vals = [quantity(g) for g in graphs]
    if graphs:
        max_val = max(vals)
        maximizers = sorted(
            _canon_g6(g) for g, v in zip(graphs, vals)
            if v >= max_val - MAXIMIZER_TOL
        )
    else:
        max_val = 0.0
        maximizers = []
    violators = sorted(
        _canon_g6(g) for g, v in zip(graphs, vals) if v > bound + EQUALITY_TOL
    )
    claimants = {
        _canon_g6(g) for g, v in zip(graphs, vals)
        if abs(v - bound) <= EQUALITY_TOL
    }
    if violators:
        verdict, counter = "VIOLATED", tuple(violators)
    elif claimants == expected_equality:
        counter = ()
        verdict = "HOLDS_WITH_EQUALITY" if claimants else "HOLDS"
    else:
        # numerics nominated an equality set that structure rejects
        verdict = "VIOLATED"
        counter = tuple(sorted(claimants ^ expected_equality))
    return CertificationReport(
        theorem=theorem,
        m=m,
        filter=filt.describe(),
        graphs_examined=len(graphs),
        max_lambda=max_val,
        bound=bound,
        maximizers=tuple(maximizers),
        verdict=verdict,
        wall_time=time.perf_counter() - start,
        counterexamples=counter,
        conjecture=conjecture,
    )


# ---------------------------------------------------------------------------
# theorem certifiers
# ---------------------------------------------------------------------------


def _nosal_equality(m: int) -> set[str]:
    out = set()
    for s in range(1, int(math.isqrt(m)) + 1):
        if m % s == 0:
            out.add(_canon_g6(complete_bipartite(s, m // s)))
    return out


def certify_nosal(m: int, jobs: int = 1) -> CertificationReport:
    """Triangle-free with m edges: lambda <= sqrt(m), equality exactly at the
    complete bipartite graphs."""
    return _lambda_certify(
        "nosal", m, ClassFilter(triangle_free=True), math.sqrt(m),
        _nosal_equality(m), spectra.spectral_radius, jobs,
    )


def _blowup_equality(m: int) -> set[str]:
    """Canonical forms of all m-edge blow-ups (sizes >= 1) of P2, 2P2, P4, P5.

    These are the equality graphs for the top-two-eigenvalue bound once
    isolated vertices are dropped.
    """
    bases = [path(2), disjoint_union(path(2), path(2)), path(4), path(5)]
    out: set[str] = set()
    for base in bases:
        k = base.n
        sizes = [0] * k

        def rec(i: int) -> None:
            if i == k:
                count = sum(sizes[u] * sizes[v] for u, v in base.edges)
                if count == m:
                    out.add(_canon_g6(blow_up(base, sizes)))
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
        "lnw", m, ClassFilter(triangle_free=True), float(m),
        _blowup_equality(m), spectra.top_two_squares, jobs,
    )


def certify_thm15(m: int, jobs: int = 1) -> CertificationReport:
    """Triangle-free non-bipartite: lambda <= sqrt(m-1), equality only at
    (m, G) = (5, C_5)."""
    filt = ClassFilter(triangle_free=True, non_bipartite=True)
    expected = {_canon_g6(sk(2, 2))} if m == 5 else set()
    return _lambda_certify("thm15", m, filt, math.sqrt(m - 1), expected,
                           spectra.spectral_radius, jobs)


def certify_zhai_shu(m: int, jobs: int = 1) -> CertificationReport:
    """Triangle-free non-bipartite: lambda <= beta(m), equality iff m odd and
    G = SK_{2,(m-1)/2}."""
    if m < 5:
        raise GraphError("needs m >= 5")
    filt = ClassFilter(triangle_free=True, non_bipartite=True)
    expected = {_canon_g6(sk(2, (m - 1) // 2))} if m % 2 == 1 else set()
    return _lambda_certify("zhai-shu", m, filt, bounds.beta(m), expected,
                           spectra.spectral_radius, jobs)


def certify_main(m: int, jobs: int = 1) -> CertificationReport:
    """{C3,C5}-free non-bipartite: lambda <= gamma(m), equality iff m odd and
    G = S_3(K_{2,(m-3)/2})."""
    if m < 7:
        raise GraphError("needs m >= 7")
    filt = ClassFilter(triangle_free=True, c5_free=True, non_bipartite=True)
    expected = {_canon_g6(s_odd(2, (m - 3) // 2, 2))} if m % 2 == 1 else set()
    return _lambda_certify("main", m, filt, bounds.gamma(m), expected,
                           spectra.spectral_radius, jobs)


def certify_conj51(m: int, k: int, jobs: int = 1) -> CertificationReport:
    """Exploratory: {C3,...,C_{2k+1}}-free non-bipartite classes against
    lambda(S_{2k-1}(K_{2,(m-2k+1)/2})).  Evidence, not a theorem."""
    if m % 2 == 0:
        raise GraphError("the conjectured extremal graph needs odd m")
    if k < 1 or m < 2 * k + 3:
        raise GraphError("needs k >= 1 and m >= 2k+3")
    extremal = s_odd(2, (m - 2 * k + 1) // 2, k)
    bound = spectra.spectral_radius(extremal)
    filt = ClassFilter(non_bipartite=True, odd_girth_min=2 * k + 3)
    return _lambda_certify(f"conj51[k={k}]", m, filt, bound,
                           {_canon_g6(extremal)}, spectra.spectral_radius, jobs,
                           conjecture=True)


def certify_mantel(n: int) -> CertificationReport:
    """Triangle-free on n vertices: at most floor(n^2/4) edges, with the
    balanced complete bipartite graph as unique maximizer."""
    if n < 2:
        raise GraphError("needs n >= 2")
    start = time.perf_counter()
    gs = graphs_on_vertices(n, triangle_free=True)
    bound = n * n // 4
    max_m = max(g.m for g in gs)
    maximizers = sorted(_canon_g6(g) for g in gs if g.m == max_m)
    expected = [_canon_g6(complete_bipartite(n // 2, (n + 1) // 2))]
    if max_m == bound and maximizers == expected:
        verdict, counter = "HOLDS_WITH_EQUALITY", ()
    else:
        verdict = "VIOLATED"
        counter = tuple(sorted(set(maximizers) ^ set(expected)))
    return CertificationReport(
        theorem="mantel", m=n, filter="triangle-free (n-vertex)",
        graphs_examined=len(gs), max_lambda=float(max_m), bound=float(bound),
        maximizers=tuple(maximizers), verdict=verdict,
        wall_time=time.perf_counter() - start, counterexamples=counter,
    )


def certify_erdos(n: int) -> CertificationReport:
    """Triangle-free non-bipartite on n vertices: at most
    floor((n-1)^2/4) + 1 edges; the bound is attained (not uniquely) and the
    two-part construction must be among the maximizers."""
    if n < 5:
        raise GraphError("needs n >= 5")
    start = time.perf_counter()
    gs = [g for g in graphs_on_vertices(n, triangle_free=True)
          if not is_bipartite(g)]
    bound = (n - 1) ** 2 // 4 + 1
    max_m = max(g.m for g in gs)
    maximizers = sorted(_canon_g6(g) for g in gs if g.m == max_m)
    constructions = {
        _canon_g6(erdos_extremal(n, k)) for k in range(1, n // 2)
    }
    attained = max_m == bound and constructions & set(maximizers)
    verdict = "HOLDS_WITH_EQUALITY" if attained else "VIOLATED"
    counter = () if attained else tuple(maximizers)
    return CertificationReport(
        theorem="erdos", m=n, filter="triangle-free non-bipartite (n-vertex)",
        graphs_examined=len(gs), max_lambda=float(max_m), bound=float(bound),
        maximizers=tuple(maximizers), verdict=verdict,
        wall_time=time.perf_counter() - start, counterexamples=counter,
    )


# ---------------------------------------------------------------------------
# booksize exploration
# ---------------------------------------------------------------------------


def is_complete_bipartite(g: Graph) -> bool:
    if g.n == 0 or not is_connected(g) or not is_bipartite(g):
        return False
    side = [None] * g.n
    side[0] = 0
    stack = [0]
    while stack:
        v = stack.pop()
        for u in g.neighbors(v):
            if side[u] is None:
                side[u] = 1 - side[v]
                stack.append(u)
    s = sum(1 for x in side if x == 0)
    return g.m == s * (g.n - s)


@dataclass(frozen=True)
class BooksizeRow:
    graph6: str
    spectral_radius: float
    booksize: int


@dataclass(frozen=True)
class BooksizeReport(_JsonReport):
    m: int
    graphs_examined: int
    rows: tuple[BooksizeRow, ...]
    min_booksize: int
    min_ratio: float  # min booksize / sqrt(m)
    nikiforov_floor: float  # (1/12) m^(1/4)
    nikiforov_ok: bool
    wall_time: float

    @classmethod
    def from_json_dict(cls, d: dict) -> "BooksizeReport":
        return super().from_json_dict(
            {**d, "rows": [BooksizeRow(**r) for r in d["rows"]]})

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
    graphs = list(enumerate_graphs(m, ClassFilter(), jobs))
    vals = [spectra.spectral_radius(g) for g in graphs]
    cut = math.sqrt(m) - 1e-9
    rows = []
    for g, lam in zip(graphs, vals):
        if lam >= cut and not is_complete_bipartite(g):
            rows.append(BooksizeRow(_canon_g6(g), lam, booksize(g)))
    rows.sort(key=lambda r: (r.booksize, r.graph6))
    floor = m ** 0.25 / 12.0
    min_bk = min((r.booksize for r in rows), default=0)
    return BooksizeReport(
        m=m,
        graphs_examined=len(graphs),
        rows=tuple(rows),
        min_booksize=min_bk,
        min_ratio=(min_bk / math.sqrt(m)) if rows else math.inf,
        nikiforov_floor=floor,
        nikiforov_ok=all(r.booksize > floor for r in rows),
        wall_time=time.perf_counter() - start,
    )
