"""Nested periodic synthesis matrix, forward/inverse transform, strengths.

The synthesis matrix T for length N stacks one basis block per divisor p of
N, in ascending divisor order. A block holds totient(p) columns: for each
pair index k (ascending) the tiled cosine-pair sequence and, for p >= 3,
its one circular downshift. T is square and invertible.

Transforms never form T. Block p tiles one period and spans only
exponentials of exact period p, so it meets only the DFT bins (N/p) r with
gcd(r, p) = 1, which no other block meets. Let X = fft(x)/N.

- CCPT (build_ccpt_matrix) is solved in closed form. The pair (p, k) lives
  on bins m = kN/p and N - m alone, and its coefficients alpha, beta on the
  sequence and its downshift satisfy X[m] = alpha + beta e^{-j theta} and
  X[N-m] = alpha + beta e^{j theta}, theta = 2 pi k / p. So a transform is
  one FFT plus this two-term map per pair, and the singular values of T are
  sqrt(N) for p <= 2 and sqrt(2N(1 -+ cos theta)) for p >= 3.
- RPT (baselines.build_rpt_matrix) is solved block by block: with W the
  rows r of fft(table_p)/p, block p solves W beta_p = X[(N/p) r] through
  the normal equations T_p beta_p = W^H X[(N/p) r], T_p[l, l'] =
  c_p(l - l'), which reduce exactly to one small Ramanujan-sum Toeplitz
  core per odd squarefree radical (see baselines._RptMatrix).
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

from .ccps import _samples
from .errors import NoPeriodicContent, NumericalError
from .numtheory import _check_positive, coprime_half_set, lcm, totient

DEFAULT_THRESHOLD = 0.05
CONDITION_LIMIT = 1e12
RESIDUAL_TOL = 1e-9
MAX_BASIS_BYTES = 512 * 2**20  # largest dense float64 matrix `ccpt basis` or an RPT core may take


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


def _relative_residual(approx, x) -> float:
    """||approx - x|| / ||x|| on both scaled by the power of two nearest 1 / max|x|.

    So no norm overflows, and a finite result rounds as the unscaled ratio
    would; the exponent is clipped so that the scale stays a finite float.
    0 for x = 0; nan when x or approx holds a non-finite value.
    """
    peak = np.abs(x).max(initial=0.0)
    if peak == 0.0:
        return 0.0
    scale = 2.0 ** -np.clip(np.frexp(peak)[1], -1000, 1000)
    return float(np.linalg.norm((approx - x) * scale) / np.linalg.norm(x * scale))


class NestedPeriodicMatrix:
    """Square synthesis matrix assembled from per-period basis blocks.

    This class holds the layout: spans, labels, column index, and the
    dense matrix on request. The bases' subclasses solve it through three
    hooks: _singular_values (all singular values, or at least the extreme
    ones), _solve (coefficients from X = fft(x)/N) and _synthesize (the
    matrix times coefficients). condition() runs the first hook once, so a
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
        self._cond = None

    @property
    def matrix(self) -> np.ndarray:
        """The dense N x N matrix, built on each call."""
        return np.concatenate([b.matrix for b in self.blocks], axis=1)

    @property
    def divisors(self) -> tuple[int, ...]:
        return tuple(self.spans)

    @cached_property
    def index(self) -> dict[tuple, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def column_index(self, p: int, k, l: int) -> int:
        return self.index[(p, k, l)]

    def block_span(self, p: int) -> slice:
        return self.spans[p]

    def condition(self) -> float:
        """Ratio of the extreme singular values of the matrix, computed once."""
        if self._cond is None:
            s = self._singular_values()
            self._cond = float(s.max() / s.min()) if s.min() > 0.0 else np.inf
        return self._cond

    def forward(self, x) -> CoefficientVector:
        """Coefficients beta with matrix @ beta == x, solved on the DFT of x.

        The reconstruction is checked against x on x / max|x|, and anything but
        a residual within RESIDUAL_TOL (nan from non-finite input included)
        raises NumericalError.
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
        with np.errstate(invalid="ignore", over="ignore"):  # non-finite values fail the check below
            values = self._solve(np.fft.fft(x) / self.n, np.iscomplexobj(x))
            residual = _relative_residual(self.inverse(values), x)
        if not residual <= RESIDUAL_TOL:
            raise NumericalError(f"forward solve residual {residual:.3e} exceeds {RESIDUAL_TOL}")
        return CoefficientVector(n=self.n, values=values, spans=self.spans)

    def inverse(self, beta) -> np.ndarray:
        """Synthesis: the matrix times the coefficients, without forming the matrix."""
        values = beta.values if isinstance(beta, CoefficientVector) else np.asarray(beta)
        if values.shape != (self.n,):
            raise ValueError(f"coefficient length {values.shape} does not match {self.n}")
        return self._synthesize(values)


class _CcptMatrix(NestedPeriodicMatrix):
    """The cosine-pair matrix, solved in closed form from its pair table.

    The table has one row per conjugate pair: period p, index k, DFT bin
    m = kN/p for m = 0..N/2, sorted by (p, k). A row with p >= 3 owns the
    columns (k, 0) and (k, 1) at its offset, any other row one column; the
    rows with p <= 2 come first. Blocks and labels are built only when
    read.
    """

    def __init__(self, n: int):
        n = _check_positive(n)
        m = np.arange(n // 2 + 1)
        g = np.gcd(m, n)
        p, k = n // g, m // g
        k[0] = 1  # bin 0 is the period-1 pair, k = 1
        order = np.lexsort((k, p))
        p, k, m = p[order], k[order], m[order]
        width = np.where(p >= 3, 2, 1)
        offset = np.cumsum(width) - width
        starts = np.flatnonzero(np.diff(p)) + 1  # the rows that open periods after p = 1
        bounds = [0, *offset[starts].tolist(), n]
        single = int(np.count_nonzero(p <= 2))
        half = np.pi * k[single:] / p[single:]  # theta / 2 of each pair
        self.kind = "ccpt"
        self.n = n
        self.spans = {q: slice(a, z) for q, a, z in zip([1, *p[starts].tolist()], bounds, bounds[1:])}
        self._periods, self._ks = p, k
        self._single_bins = m[:single]
        self._pair_bins, self._pair_cols = m[single:], offset[single:]
        self._half, self._cos, self._sin = half, np.cos(2 * half), np.sin(2 * half)
        self._cond = None

    @cached_property
    def blocks(self) -> tuple[BasisBlock, ...]:
        return tuple(basis_block(self.n, p) for p in self.spans)

    @cached_property
    def labels(self) -> tuple[tuple, ...]:
        rows = zip(self._periods.tolist(), self._ks.tolist())
        return tuple((p, k, l) for p, k in rows for l in ((0,) if p <= 2 else (0, 1)))

    def _singular_values(self) -> np.ndarray:
        """sqrt(N) per single column; 2 sqrt(N) sin(theta/2) and 2 sqrt(N) cos(theta/2) per pair."""
        single = np.ones(len(self._single_bins))
        return np.sqrt(self.n) * np.concatenate([single, 2 * np.sin(self._half), 2 * np.cos(self._half)])

    def _solve(self, spectrum: np.ndarray, complex_input: bool) -> np.ndarray:
        """alpha, beta of every pair from X[m] and X[N-m]; the real form for real x."""
        values = np.zeros(self.n, dtype=complex)
        single = spectrum[self._single_bins]
        xm = spectrum[self._pair_bins]
        if complex_input:
            beta = (spectrum[self.n - self._pair_bins] - xm) / (2j * self._sin)
            alpha = xm - beta * (self._cos - 1j * self._sin)
        else:
            single = single.real
            beta = -xm.imag / self._sin
            alpha = xm.real - beta * self._cos
        values[: len(single)] = single
        values[self._pair_cols] = alpha
        values[self._pair_cols + 1] = beta
        return values

    def _synthesize(self, values: np.ndarray) -> np.ndarray:
        """X from the coefficients, then one inverse FFT (a real one for real coefficients)."""
        n = self.n
        alpha, beta = values[self._pair_cols], values[self._pair_cols + 1]
        spectrum = np.zeros(n, dtype=complex)
        spectrum[self._single_bins] = values[: len(self._single_bins)]
        spectrum[self._pair_bins] = alpha + beta * (self._cos - 1j * self._sin)
        dtype = np.result_type(values, float)
        if not np.iscomplexobj(values) or not values.imag.any():
            return (np.fft.irfft(spectrum[: n // 2 + 1], n) * n).astype(dtype, copy=False)
        spectrum[n - self._pair_bins] = alpha + beta * (self._cos + 1j * self._sin)
        return np.fft.ifft(spectrum) * n


def build_ccpt_matrix(n: int) -> NestedPeriodicMatrix:
    """The length-n synthesis matrix with one cosine-pair block per divisor."""
    return _CcptMatrix(n)


def divisor_strengths(beta: CoefficientVector, matrix: NestedPeriodicMatrix) -> PeriodStrengthProfile:
    """Absolute square sum of each block's coefficients, one entry per divisor."""
    periods = matrix.divisors
    starts = [matrix.spans[p].start for p in periods]
    with np.errstate(over="ignore"):  # an overflow reads inf, which the profile refuses
        strengths = np.add.reduceat(np.abs(beta.values) ** 2, starts)
        total = float(strengths.sum())
    return PeriodStrengthProfile(periods=periods, strengths=strengths, total=total)


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
