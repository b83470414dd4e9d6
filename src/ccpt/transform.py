"""Nested periodic synthesis matrix, forward/inverse transform, strengths.

The synthesis matrix for length N stacks one basis block per divisor p of
N, in ascending divisor order. A block holds totient(p) columns: for each
pair index k (ascending) the tiled cosine-pair sequence and, for p >= 3,
its one circular downshift. Blocks of distinct periods are mutually
orthogonal, the matrix is square and invertible, and the forward transform
is the linear solve beta = T^-1 x (LU, factored once and cached).
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .ccps import _samples
from .errors import NoPeriodicContent, NumericalError
from .numtheory import coprime_half_set, divisors, lcm, totient

DEFAULT_THRESHOLD = 0.05
CONDITION_LIMIT = 1e12
RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class BasisBlock:
    """All period-p columns of a length-N synthesis matrix.

    labels holds one (k, shift) pair per column; k is None for blocks
    whose columns are plain shifts of a single generator sequence.
    """

    length: int
    period: int
    labels: tuple[tuple, ...]
    matrix: np.ndarray

    @property
    def width(self) -> int:
        return self.matrix.shape[1]


def _shifted_tilings(table: np.ndarray, shifts, n: int) -> np.ndarray:
    """Each column of a p-row table downshifted circularly and tiled to n rows.

    Entry (i, j) is table[(i - shifts[j]) mod p, j]; the last repetition is
    truncated when p does not divide n.
    """
    rows = (np.arange(n)[:, None] - np.asarray(shifts)) % table.shape[0]
    return np.take_along_axis(table, rows, axis=0)


def _ccpt_columns(n: int, p: int) -> tuple[tuple, np.ndarray]:
    """Labels (k, shift) and the tiled cosine-pair columns of period p >= 1."""
    shifts = (0,) if p <= 2 else (0, 1)
    labels = tuple((k, l) for k in coprime_half_set(p) for l in shifts)
    ks, ls = zip(*labels)
    return labels, _shifted_tilings(_samples(p, np.array(ks)).T, ls, n)


def basis_block(n: int, p: int) -> BasisBlock:
    """Block of tiled cosine-pair columns for divisor p of n."""
    if n % p != 0:
        raise ValueError(f"period {p} does not divide length {n}")
    labels, matrix = _ccpt_columns(n, p)
    block = BasisBlock(length=n, period=p, labels=labels, matrix=matrix)
    assert block.width == totient(p)
    return block


@dataclass(frozen=True)
class PeriodStrengthProfile:
    """Energy per candidate period; the decision artifact for estimation."""

    periods: tuple[int, ...]
    strengths: np.ndarray
    total: float

    def fractions(self) -> np.ndarray:
        """Strengths as fractions of the profile total (zeros if empty)."""
        if self.total <= 0.0:
            return np.zeros_like(self.strengths)
        return self.strengths / self.total

    def as_dict(self) -> dict[int, float]:
        return {p: float(s) for p, s in zip(self.periods, self.strengths)}

    def significant(self, threshold: float = DEFAULT_THRESHOLD) -> tuple[int, ...]:
        """Periods whose strength reaches `threshold` times the peak strength."""
        peak = float(self.strengths.max(initial=0.0))
        if peak <= 0.0:
            return ()
        return tuple(
            int(p) for p, s in zip(self.periods, self.strengths) if s >= threshold * peak
        )


@dataclass(frozen=True)
class CoefficientVector:
    """Transform coefficients, addressable by period block."""

    n: int
    values: np.ndarray
    spans: dict[int, slice] = field(repr=False)

    def block(self, p: int) -> np.ndarray:
        return self.values[self.spans[p]]

    def block_energy(self, p: int) -> float:
        b = self.block(p)
        return float(np.real(b @ b.conj()))

    def energy(self) -> float:
        return float(np.real(self.values @ self.values.conj()))


class NestedPeriodicMatrix:
    """Square synthesis matrix assembled from per-period basis blocks.

    Immutable after construction; the LU factorization and condition
    estimate are computed once on first use, so a shared instance can
    serve concurrent read-only transforms.
    """

    def __init__(self, blocks: list[BasisBlock], kind: str = "ccpt"):
        if not blocks:
            raise ValueError("need at least one basis block")
        n = blocks[0].length
        if any(b.length != n for b in blocks):
            raise ValueError("all blocks must share the ambient length")
        self.kind = kind
        self.n = n
        self.blocks = tuple(sorted(blocks, key=lambda b: b.period))
        self.matrix = np.concatenate([b.matrix for b in self.blocks], axis=1)
        if self.matrix.shape != (n, n):
            raise ValueError(
                f"blocks supply {self.matrix.shape[1]} columns for length {n}; "
                "expected one block per divisor"
            )
        self.spans: dict[int, slice] = {}
        self.labels: tuple[tuple, ...] = ()
        labels = []
        start = 0
        for b in self.blocks:
            self.spans[b.period] = slice(start, start + b.width)
            labels.extend((b.period, k, l) for k, l in b.labels)
            start += b.width
        self.labels = tuple(labels)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self._lu = None
        self._cond = None

    @property
    def divisors(self) -> tuple[int, ...]:
        return tuple(b.period for b in self.blocks)

    def column_index(self, p: int, k, l: int) -> int:
        return self.index[(p, k, l)]

    def block_span(self, p: int) -> slice:
        return self.spans[p]

    def condition(self) -> float:
        if self._cond is None:
            self._cond = float(np.linalg.cond(self.matrix))
        return self._cond

    def _factorization(self):
        if self._lu is None:
            self._lu = scipy.linalg.lu_factor(self.matrix)
        return self._lu

    def forward(self, x) -> CoefficientVector:
        """Coefficients beta with matrix @ beta == x (solved, never inverted).

        Complex input is handled by solving the real system once for the
        real part and once for the imaginary part.
        """
        x = np.asarray(x)
        if x.shape != (self.n,):
            raise ValueError(f"signal length {x.shape} does not match matrix size {self.n}")
        cond = self.condition()
        if not np.isfinite(cond) or cond > CONDITION_LIMIT:
            raise NumericalError(
                f"synthesis matrix for N={self.n} too ill-conditioned to invert "
                f"(condition estimate {cond:.3e})"
            )
        lu = self._factorization()
        if np.iscomplexobj(x):
            parts = scipy.linalg.lu_solve(lu, np.column_stack([x.real, x.imag]))
            values = parts[:, 0] + 1j * parts[:, 1]
        else:
            values = scipy.linalg.lu_solve(lu, x.astype(float)) + 0j
        norm_x = np.linalg.norm(x)
        if norm_x > 0.0:
            residual = np.linalg.norm(self.matrix @ values - x) / norm_x
            if residual > RESIDUAL_TOL:
                raise NumericalError(
                    f"forward solve residual {residual:.3e} exceeds {RESIDUAL_TOL}"
                )
        return CoefficientVector(n=self.n, values=values, spans=self.spans)

    def inverse(self, beta) -> np.ndarray:
        """Synthesis: plain matrix-vector product."""
        values = beta.values if isinstance(beta, CoefficientVector) else np.asarray(beta)
        if values.shape != (self.n,):
            raise ValueError(f"coefficient length {values.shape} does not match {self.n}")
        return self.matrix @ values


def build_ccpt_matrix(n: int) -> NestedPeriodicMatrix:
    """The length-n synthesis matrix with one cosine-pair block per divisor."""
    return NestedPeriodicMatrix([basis_block(n, p) for p in divisors(n)], kind="ccpt")


def divisor_strengths(beta: CoefficientVector, matrix: NestedPeriodicMatrix) -> PeriodStrengthProfile:
    """Absolute square sum of each block's coefficients, one entry per divisor."""
    periods = matrix.divisors
    strengths = np.array([beta.block_energy(p) for p in periods])
    return PeriodStrengthProfile(periods=periods, strengths=strengths, total=float(strengths.sum()))


def frequency_labels(matrix: NestedPeriodicMatrix, frame: float | None = None) -> dict[int, float]:
    """Map column index -> frequency of that column's exponential pair.

    A column of block (p, k) carries normalized frequency (k mod p)/p
    cycles per sample, scaled by `frame` (samples per unit time). The
    default frame is N, i.e. labels in cycles per N samples.
    """
    if matrix.kind != "ccpt":
        raise ValueError(f"frequency labels are undefined for {matrix.kind!r} bases")
    if frame is None:
        frame = float(matrix.n)
    return {
        i: (k % p) / p * frame
        for i, (p, k, l) in enumerate(matrix.labels)
    }


def estimate_period(profile: PeriodStrengthProfile, threshold: float = DEFAULT_THRESHOLD) -> int:
    """lcm of the periods whose strength clears the threshold policy."""
    periods = profile.significant(threshold)
    if not periods:
        raise NoPeriodicContent("no periodic content: no block strength above threshold")
    return lcm(periods)
