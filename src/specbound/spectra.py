"""Dense symmetric eigensolution and exact characteristic polynomials.

Spectra come from one LAPACK call (`numpy.linalg.eigh`) per graph.  Each
spectrum carries a residual certificate computed from the returned
eigenvectors, max ||A v - lambda v|| / ||A||_F, so every float eigenvalue
comes with an error bound that callers can check.  Characteristic
polynomials are computed exactly over Python integers via the
Faddeev-LeVerrier recurrence, because the factorization identities
downstream must hold with zero tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graphs import Graph, GraphError, SizeLimitError

CHARPOLY_MAX_N = 32


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted descending.

    `tol` is the achieved residual bound relative to the Frobenius norm:
    every eigenpair satisfies ||A v - lambda v|| <= tol * ||A||_F.
    """

    values: tuple[float, ...]
    tol: float

    @property
    def n(self) -> int:
        return len(self.values)

    def abs_residual_bound(self) -> float:
        norm = math.sqrt(sum(v * v for v in self.values))
        return self.tol * max(norm, 1.0)


def adjacency_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
    return a


@lru_cache(maxsize=1 << 16)
def eigenvalues(g: Graph) -> Spectrum:
    """Full spectrum of the adjacency matrix, descending."""
    if g.n < 1:
        raise GraphError("eigenvalues need n >= 1")
    a = adjacency_matrix(g)
    vals, vecs = np.linalg.eigh(a)
    norm = math.sqrt(2.0 * g.m)
    if norm == 0.0:
        achieved = 0.0
    else:
        resid = a @ vecs - vecs * vals
        achieved = float(np.max(np.linalg.norm(resid, axis=0))) / norm
    return Spectrum(tuple(float(v) for v in vals[::-1]), achieved)


def spectral_radius(g: Graph) -> float:
    """Largest eigenvalue; for adjacency matrices this is the spectral radius."""
    return eigenvalues(g).values[0]


def top_two_squares(g: Graph) -> float:
    """lambda_1^2 + lambda_2^2 (0 for a single vertex)."""
    s = eigenvalues(g)
    if s.n == 1:
        return s.values[0] ** 2
    return s.values[0] ** 2 + s.values[1] ** 2


def cycle_spectrum_closed_form(n: int) -> Spectrum:
    """Eigenvalues of C_n: 2 cos(2 pi k / n) for k = 0..n-1."""
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    vals = sorted((2.0 * math.cos(2.0 * math.pi * k / n) for k in range(n)),
                  reverse=True)
    return Spectrum(tuple(vals), 0.0)


# ---------------------------------------------------------------------------
# exact characteristic polynomial
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CharPoly:
    """Exact integer coefficients c_0..c_n of det(xI - A), c_n = 1."""

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def char_poly(g: Graph) -> CharPoly:
    """Faddeev-LeVerrier recurrence over exact integers (divisions exact)."""
    n = g.n
    if n > CHARPOLY_MAX_N:
        raise SizeLimitError(f"char_poly limited to n <= {CHARPOLY_MAX_N}")
    if n == 0:
        return CharPoly((1,))
    a = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        a[u][v] = a[v][u] = 1
    c = [0] * (n + 1)
    c[n] = 1
    mk = [row[:] for row in a]  # M_1 = A
    for k in range(1, n + 1):
        if k > 1:
            shift = c[n - k + 1]
            b = [[mk[i][j] + (shift if i == j else 0) for j in range(n)]
                 for i in range(n)]
            mk = [
                [sum(a[i][l] * b[l][j] for l in range(n) if a[i][l])
                 for j in range(n)]
                for i in range(n)
            ]
        tr = sum(mk[i][i] for i in range(n))
        q, r = divmod(-tr, k)
        assert r == 0, "Faddeev-LeVerrier division must be exact"
        c[n - k] = q
    return CharPoly(tuple(c))


# ---------------------------------------------------------------------------
# spectral identities
# ---------------------------------------------------------------------------


def triangle_count_trace(s: Spectrum) -> float:
    """t(G) = (1/6) sum lambda_i^3 (closed 3-walk count)."""
    return sum(v ** 3 for v in s.values) / 6.0


def triangle_count_lemma(s: Spectrum, m: int) -> float:
    """Triangle count from the size and the full spectrum:

        t = (1/6) sum_{i>=2} (l1 + l_i) l_i^2 + (1/3)(l1^2 - m) l1

    Algebraically identical to the trace formula given sum l_i^2 = 2m.
    """
    l1 = s.values[0]
    tail = sum((l1 + v) * v * v for v in s.values[1:])
    return tail / 6.0 + (l1 * l1 - m) * l1 / 3.0


def verify_interlacing(host: Spectrum, sub: Spectrum,
                       slack: float | None = None) -> bool:
    """Cauchy interlacing for a principal submatrix spectrum:
    lambda_{n-s+i}(host) <= lambda_i(sub) <= lambda_i(host) for i = 1..s."""
    n, s = host.n, sub.n
    if s > n:
        raise ValueError("sub spectrum larger than host")
    if slack is None:
        slack = 2.0 * max(host.abs_residual_bound(),
                          sub.abs_residual_bound(), 1e-12)
    for i in range(s):
        if sub.values[i] > host.values[i] + slack:
            return False
        if sub.values[i] < host.values[n - s + i] - slack:
            return False
    return True


@dataclass(frozen=True)
class ClassicalBounds:
    rayleigh_lower: float
    sqrt_2m: float
    hong: float
    sqrt_m: float


def classical_bounds(g: Graph) -> ClassicalBounds:
    """Reference values 2m/n, sqrt(2m), sqrt(2m-n+1), sqrt(m) for comparison
    against the spectral radius.  Hong's bound needs no isolated vertices."""
    if g.n == 0:
        raise GraphError("empty graph")
    if any(g.degree(v) == 0 for v in range(g.n)):
        raise GraphError("isolated vertices break Hong's bound")
    m = g.m
    return ClassicalBounds(
        rayleigh_lower=2.0 * m / g.n,
        sqrt_2m=math.sqrt(2.0 * m),
        hong=math.sqrt(2.0 * m - g.n + 1),
        sqrt_m=math.sqrt(m),
    )
