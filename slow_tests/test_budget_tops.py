"""Checks too slow for tier-1, which collects only tests/; run them with

    PYTHONPATH=src python -m pytest -q slow_tests

A certifier keeps unlabelled the classes of the top level of its request
that need no form to be accepted once: the untied ones, and the tied ones
whose ties are twin swaps of the new piece.  They skip the per-parent
deduplication by canonical form and the "came from two parents" check of
`certify._union`, and they are unique only because
`automorphism_generators` generate the whole automorphism group.  Tier-1
compares such levels with labelled builds up to m = 9..11 edges and n = 7
vertices; here the level each certifier reads at its budget, labelled once
it has been read, must equal a fresh labelled build, and the certifier's
report must not depend on which of the two it read."""

from dataclasses import replace

import pytest

from specbound import certify


@pytest.fixture
def fresh_levels(monkeypatch):
    """An empty `certify._LEVELS`; calling the fixture's value empties it
    again.  The store the module had is restored after the test."""
    def reset():
        monkeypatch.setattr(certify, "_LEVELS", {})

    reset()
    return reset


def as_lists(levels):
    return [[(c, g.n, g.edges) for c, g in level.items()] for level in levels]


@pytest.mark.parametrize("certifier, args, growth", [
    (certify.certify_nosal, (12,), ("edge", (True, False, None))),
    (certify.certify_thm15, (13,), ("odd-conn", (True, False, None))),
    (certify.certify_main, (14,), ("odd-conn", (True, True, None))),
    (certify.certify_conj51, (15, 3), ("odd-conn", (False, False, 9))),
    (certify.certify_erdos, (8,), ("vertex-conn", True)),
], ids=["nosal-12", "thm15-13", "main-14", "conj51-15-k3", "erdos-8"])
def test_the_top_at_the_budget_equals_a_labelled_build(
        fresh_levels, certifier, args, growth):
    m = args[0]
    report = certifier(*args)
    top = certify._LEVELS[growth].top
    assert top
    later = certify._levels_up_to(m, growth)
    fresh_levels()
    built = certify._levels_up_to(m, growth)
    assert len(top) == len(built[m])
    assert as_lists(later) == as_lists(built)
    # the certifier now reads the labelled level
    assert replace(certifier(*args), wall_time=0.0) \
        == replace(report, wall_time=0.0)
