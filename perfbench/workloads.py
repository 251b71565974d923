"""Workload inputs, timed calls and known-answer checks.

A workload is a list of items.  Each item has a label, a call into
specbound's public API (timed) and a check of its output against a known
answer (run after the timed section).  Inputs and expected answers come only
from the workload name, the seed and the size; the program receives only the
generated inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from specbound import bounds, certify, graphs, spectra


@dataclass
class Item:
    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]


# ---------------------------------------------------------------------------
# certifier sweeps
# ---------------------------------------------------------------------------

# Isomorphism classes examined per certifier call.  Edge-indexed counts are
# pinned to the enumerator's output when this benchmark was written; the
# vertex-indexed ones are OEIS values:
# triangle-free graphs on n vertices (A006785) and, for erdos, those minus
# the bipartite graphs (A033995): 410 - 303 = 107 at n = 8, 38 - 35 = 3 at 6.
CLASSES = {
    ("zhai-shu", 7): 9, ("main", 7): 1,
    ("zhai-shu", 9): 107, ("main", 9): 10,
    ("zhai-shu", 10): 379, ("main", 10): 34,
    ("mantel", 6): 38, ("erdos", 6): 3,
    ("mantel", 8): 410, ("erdos", 8): 107,
}


def _nx_graph(edges):
    import networkx as nx
    g = nx.Graph()
    g.add_edges_from(edges)
    return g


def _k2b_with_path(b: int, inner: int):
    """K_{2,b} with the edge (a0, b0) replaced by a path through `inner` new
    vertices: SK_{2,b} for inner = 1, S_3(K_{2,b}) for inner = 3."""
    edges = [(("a", i), ("b", j)) for i in range(2) for j in range(b)
             if (i, j) != (0, 0)]
    walk = [("a", 0)] + [("p", k) for k in range(inner)] + [("b", 0)]
    return _nx_graph(edges + list(zip(walk, walk[1:])))


def _complete_bipartite(s: int, t: int):
    return _nx_graph((("a", i), ("b", j)) for i in range(s) for j in range(t))


def _isomorphic(graph6: str, expected) -> bool:
    import networkx as nx
    return nx.is_isomorphic(nx.from_graph6_bytes(graph6.encode()), expected)


def _check_report(theorem: str, m: int, classes: int):
    """Known answer for one certifier call, from the theorems themselves."""

    def check(r) -> bool:
        if r.graphs_examined != classes:
            return False
        if theorem == "mantel":
            return (r.verdict == "HOLDS_WITH_EQUALITY"
                    and r.max_lambda == m * m // 4
                    and len(r.maximizers) == 1
                    and _isomorphic(r.maximizers[0],
                                    _complete_bipartite(m // 2, (m + 1) // 2)))
        if theorem == "erdos":
            return (r.verdict == "HOLDS_WITH_EQUALITY"
                    and r.max_lambda == (m - 1) ** 2 // 4 + 1)
        if m % 2 == 0:
            return r.verdict == "HOLDS" and r.max_lambda < r.bound
        extremal = (_k2b_with_path((m - 1) // 2, 1) if theorem == "zhai-shu"
                    else _k2b_with_path((m - 3) // 2, 3))
        return (r.verdict == "HOLDS_WITH_EQUALITY"
                and len(r.maximizers) == 1
                and _isomorphic(r.maximizers[0], extremal))

    return check


def _certify_call(theorem: str, m: int) -> Callable[[], object]:
    # module attributes are looked up at call time, so a traced run sees
    # the wrappers the tracer installed
    if theorem == "zhai-shu":
        return lambda: certify.certify_zhai_shu(m)
    if theorem == "main":
        return lambda: certify.certify_main(m)
    if theorem == "mantel":
        return lambda: certify.certify_mantel(m)
    return lambda: certify.certify_erdos(m)


def _sweep(seed: int, toy: bool) -> list[Item]:
    ms, n = ((7,), 6) if toy else ((9, 10), 8)
    plan = [(t, m) for m in ms for t in ("zhai-shu", "main")]
    plan += [("mantel", n), ("erdos", n)]
    # the seed orders the calls; every order does the same total work
    # because levels and caches are shared across calls in one process
    random.Random(seed).shuffle(plan)
    return [Item(f"{t} {m}", _certify_call(t, m),
                 _check_report(t, m, CLASSES[(t, m)])) for t, m in plan]


# ---------------------------------------------------------------------------
# exact and numeric algebra
# ---------------------------------------------------------------------------

DENSITIES = (0.15, 0.3, 0.5)


def _corpus(seed: int, toy: bool) -> list[graphs.Graph]:
    """Random graphs with a fixed (n, density) schedule and seeded edges, so
    that every seed asks for the same amount of work.  Each graph has exactly
    round(density * n(n-1)/2) edges."""
    rng = random.Random(seed)
    sizes = range(8, 13) if toy else range(8, 33)
    schedule = [(n, p) for n in sizes for p in DENSITIES]
    schedule = schedule[:10] if toy else schedule * 2
    out = []
    for n, p in schedule:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        out.append(graphs.Graph(n, tuple(rng.sample(pairs, round(p * len(pairs))))))
    return out


def _check_spectrum(g: graphs.Graph):
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
    reference = np.linalg.eigvalsh(a)[::-1]
    # Kahan: with orthonormal eigenvectors, each sorted eigenvalue is within
    # the residual's spectral norm <= sqrt(n) * max column residual; the
    # second term covers the reference solver's own rounding
    slack_lapack = 1e-12 * max(1.0, math.sqrt(2.0 * g.m))

    def check(s) -> bool:
        slack = math.sqrt(g.n) * s.abs_residual_bound() + slack_lapack
        return (len(s.values) == g.n
                and float(np.max(np.abs(np.array(s.values) - reference))) <= slack)

    return check


def _check_char_poly(g: graphs.Graph, triangles: int):
    n, m = g.n, g.m

    def check(cp) -> bool:
        c = cp.coeffs
        return (len(c) == n + 1 and c[n] == 1 and c[n - 1] == 0
                and c[n - 2] == -m and c[n - 3] == -2 * triangles)

    return check


def _check_bracket(lo_sq: int, hi_sq: int, bracket_of, m: int, exact: bool):
    """value in the analytic window (sqrt(lo_sq), sqrt(hi_sq)]; on sampled m
    also the bracket's endpoint signs in exact arithmetic."""

    def check(value) -> bool:
        ok = math.sqrt(lo_sq) < value <= math.sqrt(hi_sq)
        if exact:
            b = bracket_of(m)
            ok = ok and b.lo <= value <= b.hi and b.verify_signs_exact()
        return ok

    return check


def _algebra(seed: int, toy: bool) -> list[Item]:
    gs = _corpus(seed, toy)
    max_m = 200 if toy else 10_000
    top = 11 if toy else 45
    pair_top = 3 if toy else 6
    rng = random.Random(seed + 1)
    exact_beta = set(rng.sample(range(5, max_m + 1), 20 if toy else 100))
    exact_gamma = set(rng.sample(range(7, max_m + 1), 20 if toy else 100))

    items = [Item(f"eigenvalues {i}", lambda g=g: spectra.eigenvalues(g),
                  _check_spectrum(g)) for i, g in enumerate(gs)]
    items += [Item(f"char_poly {i}", lambda g=g: spectra.char_poly(g),
                   _check_char_poly(g, graphs.triangle_count(g)))
              for i, g in enumerate(gs)]
    items += [Item(f"identity sk2 {m}",
                   lambda m=m: bounds.charpoly_identity_sk2(m),
                   lambda ok: ok is True) for m in range(5, top + 1, 2)]
    items += [Item(f"identity s3 {m}",
                   lambda m=m: bounds.charpoly_identity_s3(m),
                   lambda ok: ok is True) for m in range(7, top + 1, 2)]
    items += [Item(f"lemma42 {a} {b}", lambda a=a, b=b: bounds.lemma42_check(a, b),
                   lambda r: len(r.cases) == 7 and all(c.margin > 0 for c in r.cases))
              for a in range(2, pair_top + 1) for b in range(a, pair_top + 1)]
    items += [Item(f"beta {m}", lambda m=m: bounds.beta(m),
                   _check_bracket(m - 2, m - 1, bounds.beta_bracket, m,
                                  m in exact_beta))
              for m in range(5, max_m + 1)]
    items += [Item(f"gamma {m}", lambda m=m: bounds.gamma(m),
                   _check_bracket(m - 4, m - 3, bounds.gamma_bracket, m,
                                  m in exact_gamma))
              for m in range(7, max_m + 1)]
    return items


def build(name: str, seed: int, toy: bool) -> list[Item]:
    if name == "sweep":
        return _sweep(seed, toy)
    if name == "algebra":
        return _algebra(seed, toy)
    raise ValueError(f"unknown workload {name!r}")
