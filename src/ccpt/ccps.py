"""Cosine-pair sequences, their circulant matrices, and the two-column basis.

A cosine-pair sequence of period N and index k is the real sequence

    c(n) = 2 * M * cos(2*pi*k*n / N),   M = 1/2 for N in {1, 2}, else 1,

formed by summing a conjugate pair of complex exponentials of exact period
N. The sequence and its one circular downshift span a two-dimensional
subspace for N >= 3 (one-dimensional for N in {1, 2}); pairs with distinct
(N, k) are mutually orthogonal, which is the oracle implemented by
`inner_product_closed_form`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .numtheory import coprime_half_set, lcm

__all__ = [
    "CcpsSequence",
    "CirculantMatrix",
    "CcsBasis",
    "ccps",
    "circulant",
    "factorize",
    "ccs_basis",
    "ccps_inner_product",
    "inner_product_closed_form",
]


def scale_factor(n: int) -> float:
    """Amplitude normalizer: 1/2 when the conjugate pair degenerates (N<=2)."""
    return 0.5 if n <= 2 else 1.0


def _check_index(n: int, k: int) -> None:
    if k not in coprime_half_set(n):
        raise ValueError(
            f"k={k} is not a valid subspace index for period {n}: "
            f"need 1 <= k <= floor(n/2) with gcd(k, n) = 1"
        )


def _samples(n: int, k) -> np.ndarray:
    """One period of c(n) for index k, or one row per index when k is an array."""
    return 2.0 * scale_factor(n) * np.cos(np.multiply.outer(2.0 * np.pi * k, np.arange(n)) / n)


@dataclass(frozen=True)
class CcpsSequence:
    """One real cosine-pair sequence with its parameters."""

    period: int
    k: int
    scale: float
    samples: np.ndarray

    def __len__(self):
        return self.period

    def tiled(self, length: int) -> np.ndarray:
        """Repeat the period to `length` samples, truncating the last copy."""
        reps = -(-length // self.period)
        return np.tile(self.samples, reps)[:length]


def ccps(n: int, k: int) -> CcpsSequence:
    """The cosine-pair sequence c(n) = 2*M*cos(2*pi*k*n/N) of period n."""
    _check_index(n, k)
    return CcpsSequence(period=n, k=k, scale=scale_factor(n), samples=_samples(n, k))


@dataclass(frozen=True)
class CirculantMatrix:
    """N x N circulant whose column j is the j-fold downshift of column 0."""

    matrix: np.ndarray
    generator: CcpsSequence

    @property
    def rank(self) -> int:
        """Numerical rank; 2 for periods >= 3, 1 for periods 1 and 2."""
        return int(np.linalg.matrix_rank(self.matrix))


def circulant(n: int, k: int) -> CirculantMatrix:
    seq = ccps(n, k)
    cols = [np.roll(seq.samples, j) for j in range(n)]
    return CirculantMatrix(matrix=np.column_stack(cols), generator=seq)


def factorize(n: int, k: int) -> np.ndarray:
    """N x 2 complex matrix B with columns e^{+j2pikn/N} and e^{-j2pikn/N}.

    B @ B^H reproduces the circulant of (n, k) entrywise. Only defined for
    n >= 3 where the two exponentials are distinct.
    """
    if n < 3:
        raise ValueError("factorization needs n >= 3 (single-exponential case otherwise)")
    _check_index(n, k)
    w = np.exp(2j * np.pi * k * np.arange(n) / n)
    return np.column_stack([w, w.conj()])


@dataclass(frozen=True)
class CcsBasis:
    """The sequence and its one downshift as columns (one column for N<=2)."""

    period: int
    k: int
    columns: np.ndarray


def ccs_basis(n: int, k: int) -> CcsBasis:
    seq = ccps(n, k)
    if n <= 2:
        cols = seq.samples[:, None]
    else:
        cols = np.column_stack([seq.samples, np.roll(seq.samples, 1)])
    return CcsBasis(period=n, k=k, columns=cols)


def ccps_inner_product(n1: int, k1: int, l1: int, n2: int, k2: int, l2: int) -> float:
    """Inner product of two shifted sequences by direct summation.

    Sums c1(n - l1) * c2(n - l2) over one common period lcm(n1, n2),
    evaluating the cosines at the shifted arguments directly.
    """
    _check_index(n1, k1)
    _check_index(n2, k2)
    period = lcm([n1, n2])
    idx = np.arange(period)
    a = 2.0 * scale_factor(n1) * np.cos(2.0 * np.pi * k1 * (idx - l1) / n1)
    b = 2.0 * scale_factor(n2) * np.cos(2.0 * np.pi * k2 * (idx - l2) / n2)
    return float(a @ b)


def inner_product_closed_form(n1: int, k1: int, l1: int, n2: int, k2: int, l2: int) -> float:
    """Orthogonality oracle: the exact value of `ccps_inner_product`.

    Zero unless (n1, k1) == (n2, k2); otherwise
    2 * N * M^2 * cos(2*pi*k1*(l1 - l2)/n1) with N = lcm(n1, n2), doubled
    for n in {1, 2} where both exponentials of the pair coincide and the
    cross terms no longer cancel.
    """
    _check_index(n1, k1)
    _check_index(n2, k2)
    if n1 != n2 or k1 != k2:
        return 0.0
    n = lcm([n1, n2])
    m = scale_factor(n1)
    value = 2.0 * n * m * m * math.cos(2.0 * math.pi * k1 * (l1 - l2) / n1)
    if n1 <= 2:
        value *= 2.0
    return value
