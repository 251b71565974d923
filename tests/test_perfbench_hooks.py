"""The benchmark's span tracer (perfbench/tracer.py) patches specbound from
outside: it replaces the module attributes named in its TARGETS and reads the
statistics of a few caches.  A renamed attribute, a dropped cache or a call
that stops going through a module global would break the benchmark or make a
layer silently untimed, so these tests load the tracer as it is and check
its hooks against the code."""

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


@pytest.mark.parametrize("certifier, arg, enumerator", [
    (certify.certify_zhai_shu, 9, "enumerate_graphs"),
    (certify.certify_main, 9, "enumerate_graphs"),
    (certify.certify_mantel, 6, "graphs_on_vertices"),
    (certify.certify_erdos, 6, "graphs_on_vertices"),
], ids=["zhai-shu", "main", "mantel", "erdos"])
def test_certifiers_call_through_module_globals(monkeypatch, fresh_levels,
                                                certifier, arg, enumerator):
    calls = {name: 0 for name in ("enumerate_graphs", "graphs_on_vertices",
                                  "canonical_form")}
    for name in calls:
        real = getattr(certify, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(certify, name, counting)
    report = certifier(arg)
    assert calls[enumerator] == 1
    assert report.graphs_examined > 0
    # a cold build labels every class it keeps, not only the named ones
    kept = sum(map(len, chain.from_iterable(certify._LEVELS.values())))
    assert calls["canonical_form"] >= kept
    other = ({"enumerate_graphs", "graphs_on_vertices"} - {enumerator}).pop()
    assert calls[other] == 0
