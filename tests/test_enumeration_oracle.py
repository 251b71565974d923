"""Reference generator for the canonical-augmentation enumerators.

The reference grows every augmentation of every class one level up and
deduplicates by canonical form in one dictionary per level, the method the
enumerators used before canonical augmentation.  It shares only the pruning
rule (`_edge_allowed`) and `canonical_form` with them, so equal canonical-form
sets check the acceptance rule independently.
"""

import pytest

from specbound import certify
from specbound.certify import ClassFilter, _edge_allowed, _prune_key
from specbound.graphs import Graph, canonical_form, path

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


@pytest.mark.parametrize("filt", [
    ClassFilter(),
    ClassFilter(c5_free=True),
    ClassFilter(triangle_free=True),
    ClassFilter(triangle_free=True, c5_free=True),
    ClassFilter(odd_girth_min=7),
    ClassFilter(odd_girth_min=9),
], ids=lambda f: f.describe())
def test_edge_levels_match_reference(filt):
    key = _prune_key(filt)
    levels = certify._levels_up_to(MAX_M, key)
    for m, want in enumerate(reference_edge_levels(MAX_M, key)):
        assert list(levels[m]) == sorted(want)
        assert all(canonical_form(g) == c for c, g in levels[m].items())


@pytest.mark.parametrize("triangle_free", [True, False])
def test_vertex_levels_match_reference(triangle_free):
    want = reference_vertex_levels(MAX_N, triangle_free)
    for n in range(1, MAX_N + 1):
        got = [canonical_form(g) for g in
               certify.graphs_on_vertices(n, triangle_free)]
        assert got == sorted(want[n])
