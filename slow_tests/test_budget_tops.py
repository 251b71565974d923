"""Checks too slow for tier-1, which collects only tests/; run them with

    PYTHONPATH=src python -m pytest -q slow_tests

Every level is grown with no form for the classes that need none to be
accepted once: the untied ones, and the tied ones whose ties are twin
swaps of the new piece.  They skip the per-parent deduplication by
canonical form, and they are unique only because `automorphism_generators`
generate the whole automorphism group.  Every level below the newest is
labelled when the next one grows, and `certify._union` checks then that
each class came from one parent; the newest level, a certifier's top, is
checked only once a reader labels it.  Tier-1 compares such levels with
the growth that labels every child (`certify._needs_no_form` always False)
up to m = 9..11 edges and n = 7 vertices; here the level each certifier
reads at its budget, labelled once it has been read, must equal a fresh
build by that growth, and the certifier's report must not depend on which
of the two it read."""

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
    return [[(c, g.n, g.edges) for c, g in level] for level in levels]


@pytest.mark.parametrize("certifier, args, growth", [
    (certify.certify_nosal, (12,), ("edge", (5, False))),
    (certify.certify_thm15, (13,), ("odd-conn", (5, False))),
    (certify.certify_main, (15,), ("odd-conn", (7, False))),
    (certify.certify_conj51, (15, 3), ("odd-conn", (9, False))),
    (certify.certify_erdos, (8,), ("vertex-conn", (5, False))),
], ids=["nosal-12", "thm15-13", "main-15", "conj51-15-k3", "erdos-8"])
def test_the_top_at_the_budget_equals_a_labelled_build(
        monkeypatch, fresh_levels, certifier, args, growth):
    m = args[0]
    report = certifier(*args)
    top = list(certify._LEVELS[growth][m])  # the labelled read replaces it
    assert top
    later = certify._levels_up_to(m, growth)
    fresh_levels()
    with monkeypatch.context() as patch:
        patch.setattr(certify, "_needs_no_form", lambda *a: False)
        built = certify._levels_up_to(m, growth)
    assert len(top) == len(built[m])
    assert as_lists(later) == as_lists(built)
    # the certifier now reads the labelled level
    assert replace(certifier(*args), wall_time=0.0) \
        == replace(report, wall_time=0.0)
