"""Span tracing of specbound's layer boundaries, installed from outside.

The tracer replaces module attributes of specbound with wrappers that record
one span per call: (layer, start, end, parent span, run id).  Spans are kept
in memory and written out once the run is over; per-layer self times are
derived from them afterwards.  No source file of specbound is edited.

Every per-layer time is a self time: the part of a span's interval that no
traced child span covers.  The timed section itself is the root span
`bench.run`, so the self times of all layers plus the root's self time
(`trace.unattributed_s`) add up to the traced wall time exactly.
"""

from __future__ import annotations

import json
import time

ROOT = "bench.run"

# (module, attribute, layer).  Attributes are patched in the module that
# calls them, so both the benchmark's own calls and calls from one specbound
# layer into another pass through the wrapper.
TARGETS = (
    ("certify", "certify_zhai_shu", "certify.verdict"),
    ("certify", "certify_main", "certify.verdict"),
    ("certify", "certify_mantel", "certify.verdict"),
    ("certify", "certify_erdos", "certify.verdict"),
    ("certify", "enumerate_graphs", "certify.enumerate"),
    ("certify", "graphs_on_vertices", "certify.vertex_enum"),
    ("certify", "canonical_form", "graphs.canonical_form"),
    ("spectra", "spectral_radius", "spectra.spectral_radius"),
    ("spectra", "eigenvalues", "spectra.eigenvalues"),
    ("spectra", "char_poly", "spectra.char_poly"),
    ("bounds", "beta_bracket", "bounds.bracket"),
    ("bounds", "gamma_bracket", "bounds.bracket"),
    ("bounds", "charpoly_identity_sk2", "bounds.identity"),
    ("bounds", "charpoly_identity_s3", "bounds.identity"),
    ("bounds", "lemma42_check", "bounds.lemma42_check"),
)

# Layers whose self time the per-layer table reports, with the metric name.
SELF_TIME_METRICS = {
    "certify.verdict": "certify.verdict.self_s",
    "certify.enumerate": "certify.enumerate.self_s",
    "certify.vertex_enum": "certify.vertex_enum.self_s",
    "graphs.canonical_form": "graphs.canonical_form.s",
    "spectra.spectral_radius": "spectra.spectral_radius.s",
    "spectra.eigenvalues": "spectra.eigenvalues.s",
    "spectra.char_poly": "spectra.char_poly.s",
    "bounds.bracket": "bounds.bracket.s",
    "bounds.identity": "bounds.identity.self_s",
    "bounds.lemma42_check": "bounds.lemma42_check.self_s",
    ROOT: "trace.unattributed_s",
}

CALL_METRICS = {
    "graphs.canonical_form": "graphs.canonical_form.calls",
    "spectra.spectral_radius": "spectra.spectral_radius.calls",
    "spectra.eigenvalues": "spectra.eigenvalues.calls",
    "spectra.char_poly": "spectra.char_poly.calls",
}


class Tracer:
    """Records spans for one run; `install` patches specbound in place."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # completed spans as (id, layer, start, end, parent id), in order of
        # completion; tuples of atoms, so the cyclic GC soon stops scanning them
        self.spans: list[tuple[int, str, float, float, int]] = []
        self._open: list[tuple[int, str]] = []
        self.classes = 0
        self.forms: set[bytes] = set()
        self._caches: dict[str, object] = {}

    def span(self, layer: str, fn, *args, **kwargs):
        stack = self._open
        parent = stack[-1][0] if stack else -1
        idx = len(self.spans) + len(stack)
        stack.append((idx, layer))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((idx, layer, start, end, parent))

    def _wrap(self, layer: str, fn):
        span, stack = self.span, self._open
        if layer == "certify.enumerate":
            def traced(*args, **kwargs):
                # the generator is drained inside the span so that the
                # enumeration is timed, not just its creation
                out = span(layer, lambda: list(fn(*args, **kwargs)))
                self.classes += len(out)
                return out
        elif layer == "graphs.canonical_form":
            forms = self.forms

            def traced(*args, **kwargs):
                out = span(layer, fn, *args, **kwargs)
                forms.add(out)
                return out
        elif layer == "spectra.eigenvalues":
            def traced(*args, **kwargs):
                # spectral_radius -> eigenvalues stays inside the spectra
                # layer; only calls from outside it get their own span
                if stack and stack[-1][1] == "spectra.spectral_radius":
                    return fn(*args, **kwargs)
                return span(layer, fn, *args, **kwargs)
        else:
            def traced(*args, **kwargs):
                return span(layer, fn, *args, **kwargs)
        return traced

    def install(self, modules: dict) -> None:
        """Patch every target; `modules` maps short names to modules."""
        self._caches = {
            "canonical_graph": modules["graphs"].canonical_graph,
            "eigenvalues": modules["spectra"].eigenvalues,
            "beta_bracket": modules["bounds"].beta_bracket,
            "gamma_bracket": modules["bounds"].gamma_bracket,
        }
        for mod, attr, layer in TARGETS:
            setattr(modules[mod], attr,
                    self._wrap(layer, getattr(modules[mod], attr)))

    def cache_counts(self) -> dict[str, tuple[int, int]]:
        out = {}
        for name, fn in self._caches.items():
            info = fn.cache_info()
            out[name] = (info.hits, info.misses)
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for idx, layer, start, end, parent in sorted(self.spans):
                fh.write(json.dumps({"id": idx, "name": layer, "start": start,
                                     "end": end, "parent": parent,
                                     "run": self.run_id}) + "\n")


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, caches_before: dict, caches_after: dict
                  ) -> dict[str, float]:
    """Per-layer self times, call counts and cache ratios of one traced run."""
    spans = tracer.spans
    self_time = [0.0] * len(spans)
    for idx, _, start, end, parent in spans:
        self_time[idx] += end - start
        if parent >= 0:
            self_time[parent] -= end - start
    out = {name: 0.0 for name in SELF_TIME_METRICS.values()}
    calls = dict.fromkeys(CALL_METRICS, 0)
    for idx, layer, _, _, _ in spans:
        out[SELF_TIME_METRICS[layer]] += self_time[idx]
        if layer in calls:
            calls[layer] += 1
    for layer, name in CALL_METRICS.items():
        out[name] = calls[layer]
    root = [end - start for _, layer, start, end, _ in spans if layer == ROOT]
    out["trace.wall_s"] = sum(root)
    out["certify.enumerate.classes"] = tracer.classes
    out["graphs.canonical_form.distinct_ratio"] = _ratio(
        len(tracer.forms), calls["graphs.canonical_form"])

    def delta(name):
        (h0, m0), (h1, m1) = caches_before[name], caches_after[name]
        return h1 - h0, m1 - m0

    hits, misses = delta("canonical_graph")
    out["graphs.canonical_graph.hit_ratio"] = _ratio(hits, hits + misses)
    hits, misses = delta("eigenvalues")
    out["spectra.eigenvalues.hit_ratio"] = _ratio(hits, hits + misses)
    out["bounds.bracket.calls"] = delta("beta_bracket")[1] + delta("gamma_bracket")[1]
    return out
