import json
import os
import random
import subprocess
import sys
from itertools import combinations

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

import specbound
from specbound import certify, spectra
from specbound.graphs import Graph

settings.register_profile(
    "suite",
    max_examples=60,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = tuple(
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    )
    return Graph(n, edges)


def seeded_graphs(seed: int, count: int, max_n: int,
                  ps=(0.2, 0.35, 0.5, 0.7)) -> list[Graph]:
    rng = random.Random(seed)
    return [
        random_graph(rng, rng.randint(1, max_n), rng.choice(ps))
        for _ in range(count)
    ]


@st.composite
def graphs_st(draw, min_n: int = 1, max_n: int = 9):
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    flags = draw(st.lists(st.booleans(), min_size=len(pairs),
                          max_size=len(pairs)))
    return Graph(n, tuple(p for p, f in zip(pairs, flags) if f))


def run_child(code: str, **blas):
    """The JSON that `code` prints, run in a fresh interpreter that imports
    this checkout's specbound, with every BLAS thread variable removed from
    the environment and then `blas` set."""
    env = {k: v for k, v in os.environ.items()
           if k not in spectra._BLAS_THREAD_VARS}
    src = os.path.dirname(os.path.dirname(specbound.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env.update(blas)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60, env=env)
    return json.loads(out.stdout)


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def fresh_levels(monkeypatch):
    """An empty `certify._LEVELS`, so that the test builds every level it
    reads; calling the fixture's value empties it again.  The store the
    module had is restored after the test."""
    def reset():
        monkeypatch.setattr(certify, "_LEVELS", {})

    reset()
    return reset


@pytest.fixture
def pool_starts():
    """The number of enumeration pools started during the test, a callable;
    a build that drops a broken pool restarts the count.  The test starts
    without a pool, and the pool it leaves is dropped after it, so that a
    pool forked under one test's monkeypatches never serves another test;
    the pools themselves are real."""
    certify._start_pool.cache_clear()
    yield lambda: certify._start_pool.cache_info().misses
    certify._start_pool.cache_clear()
