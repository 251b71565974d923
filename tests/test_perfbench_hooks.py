"""The benchmark's span tracer (perfbench/tracer.py) patches specbound from
outside: it replaces the module attributes named in its TARGETS and reads the
statistics of a few caches.  A renamed attribute, a dropped cache or a call
that stops going through a module global would break the benchmark or make a
layer silently untimed, so these tests load the tracer as it is and check
its hooks against the code.

The certifiers read their levels through one module global,
`certify._certifier_level`, not through the public enumerators
`enumerate_graphs` and `graphs_on_vertices`.  The tracer's `certify.enumerate`
and `certify.vertex_enum` targets still name the public enumerators, so on a
certifier run those layers read 0 and the level reads count in the
certifier's own self time, until the targets name `_certifier_level`."""

import importlib.util
from itertools import chain
from pathlib import Path
from types import SimpleNamespace

import pytest

from specbound import bounds, certify, graphs, spectra

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = {"certify": certify, "graphs": graphs, "spectra": spectra,
           "bounds": bounds}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer_module = load_tracer()


@pytest.mark.parametrize("mod, attr, layer", tracer_module.TARGETS)
def test_every_target_exists(mod, attr, layer):
    assert callable(getattr(MODULES[mod], attr))
    assert layer in tracer_module.SELF_TIME_METRICS


def test_install_reads_every_cache():
    # install on copies of the module namespaces, so specbound is untouched
    copies = {name: SimpleNamespace(**vars(mod))
              for name, mod in MODULES.items()}
    tracer = tracer_module.Tracer("hooks")
    tracer.install(copies)
    assert set(tracer.cache_counts()) == {"canonical_graph", "eigenvalues",
                                          "beta_bracket", "gamma_bracket"}
    for mod, attr, _ in tracer_module.TARGETS:
        assert getattr(copies[mod], attr) is not getattr(MODULES[mod], attr)


@pytest.mark.parametrize("certifier, arg", [
    (certify.certify_zhai_shu, 9),
    (certify.certify_main, 9),
    (certify.certify_mantel, 6),
    (certify.certify_erdos, 6),
], ids=["zhai-shu", "main", "mantel", "erdos"])
def test_certifiers_call_through_module_globals(monkeypatch, fresh_levels,
                                                certifier, arg):
    calls = {name: 0 for name in ("_certifier_level", "enumerate_graphs",
                                  "graphs_on_vertices", "canonical_form")}
    for name in calls:
        real = getattr(certify, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(certify, name, counting)
    report = certifier(arg)
    # one level read, and none through the public enumerators
    assert calls["_certifier_level"] == 1
    assert calls["enumerate_graphs"] == calls["graphs_on_vertices"] == 0
    assert report.graphs_examined > 0
    # a cold build labels every class it keeps, not only the named ones
    kept = sum(map(len, chain.from_iterable(certify._LEVELS.values())))
    assert calls["canonical_form"] >= kept


@pytest.mark.parametrize("reader", ["labelled read", "next level"])
def test_a_certifiers_top_is_labelled_through_the_module_global(
        monkeypatch, fresh_levels, reader):
    # a certifier leaves classes of its top level unlabelled;
    # whichever reader labels them later calls canonical_form through the
    # module global, so a traced run times that labelling too
    certify.certify_zhai_shu(9)
    growth = ("odd-conn", (True, False, None))
    top = certify._LEVELS[growth].top
    assert top
    labelled = []
    real = certify.canonical_form

    def counting(g):
        labelled.append(g)
        return real(g)

    monkeypatch.setattr(certify, "canonical_form", counting)
    certify._levels_up_to(9 if reader == "labelled read" else 10, growth)
    assert {id(g) for g in top.values()} <= {id(g) for g in labelled}
