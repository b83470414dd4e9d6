"""Nested periodic synthesis matrix, forward/inverse transform, strengths.

The synthesis matrix T for length N stacks one basis block per divisor p of
N, in ascending divisor order. A block holds totient(p) columns: for each
pair index k (ascending) the tiled cosine-pair sequence and, for p >= 3,
its one circular downshift. T is square and invertible.

The forward transform solves T beta = x without forming T. Block p tiles one
period and spans only exponentials of exact period p, so it meets only the
DFT bins (N/p) r with gcd(r, p) = 1, which no other block meets. With
X = fft(x)/N and W the rows r of fft(table_p)/p, block p solves
W beta_p = X[(N/p) r], a real totient(p)-square system inverted once.
"""

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

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
    whose columns are plain shifts of a single generator sequence. table
    holds one period (p rows) of every column; the columns tile it.
    """

    length: int
    period: int
    labels: tuple[tuple, ...]
    table: np.ndarray

    @property
    def width(self) -> int:
        return self.table.shape[1]

    @property
    def matrix(self) -> np.ndarray:
        """The N x totient(p) block, built on each call."""
        return np.tile(self.table, (self.length // self.period, 1))


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
    labels, table = _ccpt_columns(p, p)
    block = BasisBlock(length=n, period=p, labels=labels, table=table)
    assert block.width == totient(p)
    return block


@dataclass(frozen=True)
class PeriodStrengthProfile:
    """Energy per candidate period; the decision artifact for estimation."""

    periods: tuple[int, ...]
    strengths: np.ndarray
    total: float

    def __post_init__(self):
        if not np.isfinite(self.total):
            raise NumericalError(f"period strengths overflow float64 (total {self.total})")

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

    Holds only the blocks' one-period tables. The per-block DFT maps and the
    condition number are computed once, on the first condition() call, so a
    shared instance can serve concurrent read-only transforms.
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
        starts = list(accumulate((b.width for b in self.blocks), initial=0))
        if starts[-1] != n:
            raise ValueError(f"blocks supply {starts[-1]} columns for length {n}; expected one block per divisor")
        self.spans = {b.period: slice(a, z) for b, a, z in zip(self.blocks, starts, starts[1:])}
        self.labels = tuple((b.period, k, l) for b in self.blocks for k, l in b.labels)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self._maps = None
        self._cond = None

    @property
    def matrix(self) -> np.ndarray:
        """The dense N x N matrix, built on each call."""
        return np.concatenate([b.matrix for b in self.blocks], axis=1)

    @property
    def divisors(self) -> tuple[int, ...]:
        return tuple(b.period for b in self.blocks)

    def column_index(self, p: int, k, l: int) -> int:
        return self.index[(p, k, l)]

    def block_span(self, p: int) -> slice:
        return self.spans[p]

    def condition(self) -> float:
        """Ratio of the extreme singular values of the matrix.

        The first call builds R = [Re W; Im W] per block (R = W for p <= 2) and keeps
        inv(R) if the gate passes. The unitary DFT maps block p to sqrt(N) W, and
        W^H W = c R^T R, c = 2 for p >= 3 (rows r and p - r are conjugate).
        """
        if self._cond is None:
            systems, squares = [], []
            for b in self.blocks:
                p = b.period
                r = np.array(coprime_half_set(p).residues) % p
                w = np.fft.fft(b.table, axis=0)[r] / p
                bins = r * (self.n // p)
                rows = np.concatenate([bins, bins + self.n])[: b.width]
                system = np.vstack([w.real, w.imag])[: b.width]
                systems.append((rows, system))
                squares.append(self.n * (2 if p >= 3 else 1) * np.linalg.eigvalsh(system.T @ system))
            s = np.sqrt(np.clip(np.concatenate(squares), 0.0, None))
            cond = float(s.max() / s.min()) if s.min() > 0.0 else np.inf
            if cond <= CONDITION_LIMIT:  # set before _cond, which marks the maps ready
                self._maps = [(rows, np.linalg.inv(system)) for rows, system in systems]
            self._cond = cond
        return self._cond

    def forward(self, x) -> CoefficientVector:
        """Coefficients beta with matrix @ beta == x, solved block by block.

        R's rows take (X[m] + X[-m])/2 and (X[m] - X[-m])/2j: Re X[m], Im X[m] for real x.
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
        spectrum = np.fft.fft(x) / self.n
        if np.iscomplexobj(x):
            mirror = spectrum[-np.arange(self.n) % self.n]
            pairs = np.concatenate([(spectrum + mirror) / 2, (spectrum - mirror) / 2j])
        else:
            pairs = np.concatenate([spectrum.real, spectrum.imag])
        values = np.concatenate([inv @ pairs[rows] for rows, inv in self._maps]) + 0j
        norm_x = np.linalg.norm(x)
        if norm_x > 0.0:
            residual = np.linalg.norm(self.inverse(values) - x) / norm_x
            if residual > RESIDUAL_TOL:
                raise NumericalError(f"forward solve residual {residual:.3e} exceeds {RESIDUAL_TOL}")
        return CoefficientVector(n=self.n, values=values, spans=self.spans)

    def inverse(self, beta) -> np.ndarray:
        """Synthesis: each block's table times its coefficients, tiled over N."""
        values = beta.values if isinstance(beta, CoefficientVector) else np.asarray(beta)
        if values.shape != (self.n,):
            raise ValueError(f"coefficient length {values.shape} does not match {self.n}")
        out = np.zeros(self.n, dtype=np.result_type(values, float))
        for b in self.blocks:
            out.reshape(-1, b.period)[:] += b.table @ values[self.spans[b.period]]
        return out


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
