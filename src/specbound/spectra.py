"""Dense symmetric eigensolution, the exact polynomial type, and exact
characteristic polynomials.

Spectra come from one LAPACK call (`numpy.linalg.eigh`) per graph.  Each
spectrum carries a residual certificate computed from the returned
eigenvectors, max ||A v - lambda v|| / ||A||_F, so every float eigenvalue
comes with an error bound that callers can check.

`IntPoly` is the one exact polynomial type: `char_poly` returns it, and the
polynomial families and root brackets in `bounds` are built from it, so a
characteristic polynomial compares and factors against them directly.

Characteristic polynomials are exact, because the factorization identities
downstream must hold with zero tolerance.  The Faddeev-LeVerrier recurrence
runs modulo one prime p < 2**46 at a time in float64 arrays, so BLAS forms
the products.  Entries are reduced lazily into [-p, 2p), and a row of A
holds at most 31 ones, so every sum BLAS forms is an integer below
93 p < 2**53 and exact.  Every coefficient is bounded by
max_k C(n, k) (2m/n)^(k/2) (Maclaurin's inequality and sum lambda^2 = 2m),
so enough primes are taken that their product exceeds twice that bound,
one or two at n <= 32, and the Chinese remainder theorem then recovers
each coefficient exactly.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from functools import lru_cache

# OpenBLAS starts one thread per core when it loads, and after an `eigh` at
# n >= 26 its helper thread spins on for about 0.13 s, doubling the CPU time
# of these small kernels for no gain in wall time.  So numpy is loaded with
# one BLAS thread, unless it is loaded already or the user has set a thread
# count.  OpenBLAS reads the variable only when it loads, so it is removed
# again and the process and its children keep the user's environment.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                     "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" in sys.modules or any(v in os.environ for v in _BLAS_THREAD_VARS):
    import numpy as np
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as np
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

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
# exact polynomials and the characteristic polynomial
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class IntPoly:
    """Dense univariate polynomial with exact int or Fraction coefficients,
    coeffs[i] multiplying x**i."""

    coeffs: tuple

    def __post_init__(self):
        c = self.coeffs
        if type(c) is tuple and c and c[-1] != 0:
            return  # already normal: the families' per-m set-up
        c = list(c) or [0]
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(tuple(out))

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly(tuple(out))

    def shift_x(self, k: int) -> "IntPoly":
        """Multiply by x**k."""
        return IntPoly((0,) * k + self.coeffs)

    def strip_x(self) -> tuple["IntPoly", int]:
        """Factor out the largest power of x; returns (quotient, power)."""
        k = 0
        c = self.coeffs
        while k < len(c) - 1 and c[k] == 0:
            k += 1
        return IntPoly(c[k:]), k

    def as_integer(self) -> tuple[int, ...]:
        """Coefficients scaled by a positive common denominator; an int
        polynomial's own coefficients."""
        # a sum with any Fraction term is a Fraction, so an int sum means
        # every coefficient is an int
        if type(sum(self.coeffs)) is int:
            return self.coeffs
        den = math.lcm(*(c.denominator for c in self.coeffs))
        return tuple(int(c * den) for c in self.coeffs)


# The two largest primes below 2**46.  Entries of the lazily reduced matrix
# lie in [-p, 3p), and a row of A holds at most CHARPOLY_MAX_N - 1 ones, so
# every product entry and every partial sum of it is an integer of absolute
# value below 3 * (CHARPOLY_MAX_N - 1) * p < 2**53, exact in float64; each
# prime exceeds CHARPOLY_MAX_N, so every k <= n is invertible mod p.  Their
# product exceeds 2 * _coefficient_bound(32, 496), the bound for K_32 and
# the largest at n <= CHARPOLY_MAX_N.
_PRIMES = (70368744177643, 70368744177607)


def _coefficient_bound(n: int, m: int) -> int:
    """An integer bound on every |c_k| of a graph with n >= 1 vertices and
    m edges: the largest C(n, k) (2m/n)^(k/2) over k, rounded down."""
    return max(math.isqrt(math.comb(n, k) ** 2 * (2 * m) ** k // n ** k)
               for k in range(n + 1))


def _moduli(bound: int) -> tuple[int, ...]:
    """The fewest leading primes whose product exceeds 2 * bound."""
    prod = 1
    for r, p in enumerate(_PRIMES, 1):
        prod *= p
        if prod > 2 * bound:
            return _PRIMES[:r]
    raise ArithmeticError(f"primes too few for coefficients up to {bound}")


def _crt(residues: list[list[int]], primes: tuple[int, ...]) -> list[int]:
    """For each list of residues mod `primes`, the integer of least absolute
    value that has them."""
    prod = math.prod(primes)
    weights = [prod // p * pow(prod // p, -1, p) for p in primes]
    out = []
    for rs in residues:
        x = sum(r * w for r, w in zip(rs, weights)) % prod
        out.append(x - prod if x > prod // 2 else x)
    return out


def char_poly(g: Graph) -> IntPoly:
    """Exact det(xI - A) by Faddeev-LeVerrier modulo primes.

    M_1 = A, M_k = A (M_{k-1} + c_{n-k+1} I), c_{n-k} = -tr(M_k) / k, run
    one prime at a time on float64 arrays, so BLAS forms the products;
    division by k is multiplication by its inverse mod p, in Python ints.

    Exactness.  Each step reduces x = A (M + cI) lazily, M = x - floor(x/p) p
    with x/p computed as x * (1/p): the floor is off by at most one, so M
    lies in [-p, 2p) and M + cI, with c in [0, p), in [-p, 3p).  A row of A
    has at most n - 1 <= 31 ones, so every entry of x and every partial sum
    of it, in any summation order, is an integer below 93 p < 2**53, and the
    trace of M is below 64 p: float64 holds them all exactly for p < 2**46.

    Prime count.  c_{n-k} = (-1)^k e_k(lambda), and sum lambda_i^2 = 2m, so
        |e_k(lambda)| <= e_k(|lambda|)                  (triangle inequality)
                      <= C(n, k) (sum |lambda_i| / n)^k        (Maclaurin)
                      <= C(n, k) (2m / n)^(k/2)               (power means).
    Residues modulo primes whose product exceeds twice the largest of these
    determine each coefficient by the Chinese remainder theorem.
    """
    n = g.n
    if n > CHARPOLY_MAX_N:
        raise SizeLimitError(f"char_poly limited to n <= {CHARPOLY_MAX_N}")
    if n == 0:
        return IntPoly((1,))
    primes = _moduli(_coefficient_bound(n, g.m))
    a = adjacency_matrix(g)
    x = np.empty_like(a)
    residues = []  # per prime: c_n, c_{n-1}, ..., c_0
    for p in primes:
        inv = 1.0 / p
        mk = a.copy()  # M_1 = A
        diag = mk.reshape(-1)[::n + 1]  # a view of mk's diagonal
        cs = [1]
        for k in range(1, n + 1):
            if k > 1:
                diag += cs[-1]
                np.matmul(a, mk, out=x)
                np.multiply(x, inv, out=mk)
                np.floor(mk, out=mk)
                mk *= p
                np.subtract(x, mk, out=mk)
            cs.append(-int(diag.sum()) * pow(k, -1, p) % p)
        residues.append(cs)
    return IntPoly(tuple(_crt(list(zip(*residues))[::-1], primes)))


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


def verify_interlacing(host: Spectrum, sub: Spectrum) -> bool:
    """Cauchy interlacing for a principal submatrix spectrum:
    lambda_{n-s+i}(host) <= lambda_i(sub) <= lambda_i(host) for i = 1..s,
    up to twice the larger residual bound of the two spectra."""
    n, s = host.n, sub.n
    if s > n:
        raise ValueError("sub spectrum larger than host")
    slack = 2.0 * max(host.abs_residual_bound(), sub.abs_residual_bound(),
                      1e-12)
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
