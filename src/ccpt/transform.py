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
  sqrt(N) for p <= 2 and sqrt(2N(1 -+ cos theta)) for p >= 3. A real x has
  a Hermitian X and real alpha, beta: its transform reads only the N/2 + 1
  bins of rfft(x), and its reconstruction check rebuilds only those bins
  for one irfft. One pair layout (_PairLayout) holds this map: the matrix
  is its one-length case, and the range scan (_truncation_profiles) runs
  the same solve and synthesis over many lengths at once.
- RPT (baselines.build_rpt_matrix) is solved block by block, exactly: the
  bins (N/p) r of block p are the values of the polynomial beta_p of its
  coefficients at the roots of the cyclotomic polynomial Phi_p, so beta_p
  is the remainder modulo Phi_p of the inverse FFT of those bins (see
  baselines._RptMatrix).
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .ccps import _samples
from .errors import NoPeriodicContent, NumericalError
from .numtheory import _check_positive, coprime_half_set, lcm, totient

DEFAULT_THRESHOLD = 0.05
CONDITION_LIMIT = 1e12
RESIDUAL_TOL = 1e-9
MAX_BASIS_BYTES = 512 * 2**20  # largest dense float64 matrix `ccpt basis` or an RPT condition estimate may take


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
        if not math.isfinite(self.total):
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
        peak = self.strengths.max(initial=0.0)
        if peak <= 0.0:
            return ()
        return tuple(np.asarray(self.periods)[self.strengths >= threshold * peak].tolist())


@dataclass(frozen=True)
class CoefficientVector:
    """Transform coefficients, addressable by period block."""

    n: int
    values: np.ndarray
    spans: dict[int, slice] = field(repr=False)

    def block(self, p: int) -> np.ndarray:
        return self.values[self.spans[p]]


def _relative_residual(approx, x) -> float:
    """||approx - x|| / ||x|| on both scaled by the power of two nearest 1 / max|x|.

    So no norm overflows, and a finite result rounds as the unscaled ratio
    would; the exponent is clipped so that the scale stays a finite float.
    0 for x = 0; nan when x or approx holds a non-finite value.
    """
    peak = np.abs(x).max(initial=0.0)
    if peak == 0.0:
        return 0.0
    scale = _unit_scale(peak)
    error, x = (approx - x) * scale, x * scale
    return float(np.sqrt(np.vdot(error, error).real / np.vdot(x, x).real))


def _unit_scale(peak):
    """The power of two nearest 1 / peak, its exponent clipped to [-1000, 1000] so that it stays a finite float."""
    return 2.0 ** -np.maximum(np.minimum(np.frexp(peak)[1], 1000), -1000)


_SOLVE_BLOCK = 64  # most rows of a diagonal block of a Cholesky factor that _cho_factor inverts


def _cho_factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factor L of the real SPD a, and the inverses of L's diagonal blocks.

    The blocks are s = min(_SOLVE_BLOCK, the power of two >= n) rows each,
    the last one padded with the identity, so that a solve is a few matrix
    products per block. Raises np.linalg.LinAlgError when a is not
    numerically positive definite.
    """
    lower = np.linalg.cholesky(a)
    n = len(lower)
    size = min(_SOLVE_BLOCK, 1 << (n - 1).bit_length())
    blocks = np.broadcast_to(np.eye(size), (-(-n // size), size, size)).copy()
    for block, start in zip(blocks, range(0, n, size)):
        stop = min(start + size, n)
        block[: stop - start, : stop - start] = lower[start:stop, start:stop]
    return lower, _lower_inverses(blocks)


def _lower_inverses(blocks: np.ndarray) -> np.ndarray:
    """Invert a stack of lower-triangular s x s blocks in place, s a power of two, and return it.

    Split as [[A, 0], [B, C]], a block has the inverse [[A^-1, 0], [-C^-1 B A^-1, C^-1]].
    Starting from 1 / diagonal, each pass turns every 2h x 2h diagonal
    sub-block into its inverse from the inverses of its h x h halves. For
    64-row blocks np.linalg.inv, a full LU, takes two to four times as long.
    """
    count, s, _ = blocks.shape
    diagonal = np.einsum("kii->ki", blocks)  # a writeable view
    diagonal[:] = 1.0 / diagonal
    stride, row, col = blocks.strides
    h = 1
    while h < s:
        # tiles[:, j] is the j-th 2h x 2h diagonal sub-block of every block
        tiles = as_strided(blocks, (count, s // (2 * h), 2 * h, 2 * h), (stride, 2 * h * (row + col), row, col))
        tiles[..., h:, :h] = -(tiles[..., h:, h:] @ tiles[..., h:, :h]) @ tiles[..., :h, :h]
        h *= 2
    return blocks


def _cho_solve(factor: tuple[np.ndarray, np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """a^-1 rhs for a 1-D or 2-D rhs, with factor = _cho_factor(a).

    Block forward substitution with L, then block back substitution with
    L^T, each block through its inverted diagonal block. A complex rhs is
    solved as its real and imaginary parts.
    """
    if np.iscomplexobj(rhs):
        parts = _cho_solve(factor, np.column_stack([rhs.real, rhs.imag]))
        half = parts.shape[1] // 2
        return (parts[:, :half] + 1j * parts[:, half:]).reshape(rhs.shape)
    lower, inverses = factor
    n, size = len(lower), inverses.shape[1]
    cuts = [(start, min(start + size, n), inv) for start, inv in zip(range(0, n, size), inverses)]
    y = np.array(rhs, dtype=float)
    for a, z, inv in cuts:
        y[a:z] = inv[: z - a, : z - a] @ (y[a:z] - lower[a:z, :a] @ y[:a])
    for a, z, inv in reversed(cuts):
        y[a:z] = inv[: z - a, : z - a].T @ (y[a:z] - lower[z:, a:z].T @ y[z:])
    return y


def _residual_error(residual: float) -> NumericalError:
    return NumericalError(f"forward solve residual {residual:.3e} exceeds {RESIDUAL_TOL}")


class NestedPeriodicMatrix:
    """Square synthesis matrix laid out as one basis block per divisor of N.

    The bases' subclasses set kind, n, spans (divisor p -> its columns) and
    _block_starts (each block's first column, in divisor order), build
    blocks and labels when read, and solve the matrix through three
    hooks: _singular_values (all singular values, or at least the extreme
    ones), _solve (coefficients from X = fft(x)/N, or rfft(x)/N for real x)
    and _synthesize (the matrix times coefficients, on the half spectrum when
    they are real). This class gives the column index, the dense matrix on
    request, and condition, forward and inverse. condition() runs the first
    hook once, so a shared instance can serve concurrent read-only transforms.
    """

    _cond = None

    @property
    def matrix(self) -> np.ndarray:
        """The dense N x N matrix, built on each call."""
        return np.concatenate([b.matrix for b in self.blocks], axis=1)

    @cached_property
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
        if not cond <= CONDITION_LIMIT:  # nan and inf included
            raise NumericalError(
                f"synthesis matrix for N={self.n} too ill-conditioned to invert (condition estimate {cond:.3e})"
            )
        complex_input = np.iscomplexobj(x)
        with np.errstate(invalid="ignore", over="ignore"):  # non-finite values fail the check below
            spectrum = np.fft.fft(x) if complex_input else np.fft.rfft(x)
            values = self._solve(spectrum / self.n, complex_input)
            residual = _relative_residual(self._synthesize(values, complex_input), x)
        if not residual <= RESIDUAL_TOL:
            raise _residual_error(residual)
        return CoefficientVector(n=self.n, values=values, spans=self.spans)

    def inverse(self, beta) -> np.ndarray:
        """Synthesis: the matrix times the coefficients, without forming the matrix."""
        values = beta.values if isinstance(beta, CoefficientVector) else np.asarray(beta)
        if values.shape != (self.n,):
            raise ValueError(f"coefficient length {values.shape} does not match {self.n}")
        complex_values = np.iscomplexobj(values) and values.imag.any()
        return self._synthesize(values, complex_values).astype(np.result_type(values, float), copy=False)


def _pair_table(lengths) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One row per conjugate pair of every given length: first the rows with p <= 2, then the others.

    Length N = lengths[i] has a row for each DFT bin m = 0..N/2: with
    g = gcd(m, N), its period is p = N/g and its index k = m/g, except
    k = 1 for bin 0 (the period-1 pair). Each of the two runs is sorted by
    (length, p, k). Returns i, p, k and m per row.
    """
    lengths = np.asarray(lengths)
    counts = lengths // 2 + 1
    which = np.repeat(np.arange(len(lengths)), counts)
    m = np.arange(len(which)) - np.repeat(np.cumsum(counts) - counts, counts)
    n = lengths[which]
    g = np.gcd(m, n)
    p, k = n // g, np.maximum(m // g, 1)
    room = (lengths + 1) ** 2  # a length's rows sort by p (N + 1) + k < (N + 1)^2
    key = np.repeat(np.cumsum(room) - room, counts) + p * (n + 1) + k
    order = np.argsort(key + (p >= 3) * room.sum())  # the pair rows after every length's p <= 2 rows
    return which[order], p[order], k[order], m[order]


class _PairLayout:
    """The closed-form CCPT solve and synthesis of one or more lengths, over one pair table.

    Each _pair_table row is the pair (p, k) of its length N on the DFT bins
    m = kN/p and N - m. The rows with p <= 2 come first and own one
    coefficient each; then each row with p >= 3 owns two side by side,
    alpha and beta, so the alphas sit at every other coefficient from the
    first pair's on. For one length this is the column order of its matrix.
    Length i's bins start at bin_starts[i] in the spectra that _solve reads
    and _spectrum writes: N bins per length for complex x, the half
    spectrum of N/2 + 1 for real x. _block_starts holds the first
    coefficient of every block, one per (length, p), in row order.
    """

    def __init__(self, lengths, bin_starts):
        lengths = np.asarray(lengths)
        which, p, k, m = _pair_table(lengths)
        pos = np.take(bin_starts, which) + m  # each row's bin m
        single = int(np.count_nonzero(p <= 2))
        opens = np.flatnonzero(k == 1)  # a block's rows run by k from k = 1
        self._block_starts = opens + np.maximum(opens - single, 0)  # a pair row before a row adds a column
        self._block_lengths, self._block_periods = which[opens], p[opens]
        self._periods, self._ks = p, k
        self._single_bins, self._pair_bins = pos[:single], pos[single:]
        self._mirror_bins = pos[single:] + (lengths[which] - 2 * m)[single:]  # each pair's bin N - m
        self._half = np.pi * k[single:] / p[single:]  # theta / 2
        self._cos, self._sin = np.cos(2 * self._half), np.sin(2 * self._half)
        self._phase = self._cos - 1j * self._sin  # e^{-j theta}

    def _solve(self, spectrum: np.ndarray, complex_input: bool) -> np.ndarray:
        """alpha, beta of every pair from X[m] and X[N-m]; the real form, from X[m] alone, for real x."""
        single = len(self._single_bins)
        values = np.empty(single + 2 * len(self._pair_bins), dtype=complex)
        xm = spectrum[self._pair_bins]
        if complex_input:
            values[:single] = spectrum[self._single_bins]
            beta = (spectrum[self._mirror_bins] - xm) / (2j * self._sin)
            values[single::2] = xm - beta * self._phase
        else:
            values[:single] = spectrum[self._single_bins].real
            beta = -xm.imag / self._sin
            values[single::2] = xm.real - beta * self._cos
        values[single + 1 :: 2] = beta
        return values

    def _spectrum(self, values: np.ndarray, complex_values: bool, size: int) -> np.ndarray:
        """The size bins that the coefficients synthesize: X[m] = alpha + beta e^{-j theta}, and its conjugate form at N - m for complex ones."""
        single = len(self._single_bins)
        if not complex_values:
            values = values.real
        alpha, beta = values[single::2], values[single + 1 :: 2]
        spectrum = np.empty(size, dtype=complex)  # the rows fill every bin
        spectrum[self._single_bins] = values[:single]
        spectrum[self._pair_bins] = alpha + beta * self._phase
        if complex_values:
            spectrum[self._mirror_bins] = alpha + beta * self._phase.conj()
        return spectrum


class _CcptMatrix(_PairLayout, NestedPeriodicMatrix):
    """The cosine-pair matrix: the pair layout of its one length. Blocks and labels are built only when read."""

    def __init__(self, n: int):
        n = _check_positive(n)
        super().__init__([n], [0])
        bounds = [*self._block_starts.tolist(), n]
        self.kind = "ccpt"
        self.n = n
        self.spans = {p: slice(a, z) for p, a, z in zip(self._block_periods.tolist(), bounds, bounds[1:])}

    @cached_property
    def blocks(self) -> tuple[BasisBlock, ...]:
        return tuple(basis_block(self.n, p) for p in self.spans)

    @cached_property
    def labels(self) -> tuple[tuple, ...]:
        rows = zip(self._periods.tolist(), self._ks.tolist())
        return tuple((p, k, l) for p, k in rows for l in ((0,) if p <= 2 else (0, 1)))

    def _singular_values(self) -> np.ndarray:
        """sqrt(N) per single column, and sqrt(N) times 2 sin(theta / 2) and 2 cos(theta / 2) per pair."""
        single = np.ones(len(self._single_bins))
        return np.sqrt(self.n) * np.concatenate([single, 2 * np.sin(self._half), 2 * np.cos(self._half)])

    def _synthesize(self, values: np.ndarray, complex_values: bool) -> np.ndarray:
        """X from the coefficients, then one inverse FFT: the real one, on bins 0..N/2, for real ones."""
        if complex_values:
            return np.fft.ifft(self._spectrum(values, True, self.n), norm="forward")
        return np.fft.irfft(self._spectrum(values, False, self.n // 2 + 1), self.n, norm="forward")


def build_ccpt_matrix(n: int) -> NestedPeriodicMatrix:
    """The length-n synthesis matrix with one cosine-pair block per divisor."""
    return _CcptMatrix(n)


def divisor_strengths(beta: CoefficientVector, matrix: NestedPeriodicMatrix) -> PeriodStrengthProfile:
    """Absolute square sum of each block's coefficients, one entry per divisor."""
    values = beta.values
    with np.errstate(over="ignore"):  # an overflow reads inf, which the profile refuses
        strengths = np.add.reduceat(values.real**2 + values.imag**2, matrix._block_starts)
        total = float(strengths.sum())
    return PeriodStrengthProfile(periods=matrix.divisors, strengths=strengths, total=total)


def _truncation_profiles(x: np.ndarray, lengths: range) -> list[PeriodStrengthProfile]:
    """Divisor strengths of x[:Ni] for every Ni in lengths, as build_ccpt_matrix(Ni) finds them.

    One _PairLayout covers all the lengths and solves every pair at once,
    and one reduceat sums every block; only the FFT of each truncation and
    the inverse FFT of its reconstruction run per length. Each length keeps
    forward's residual check: its reconstruction against x[:Ni], both
    scaled by the power of two nearest 1 / max|x[:Ni]|. Its condition needs
    no check: it is at most 1/sin(pi/2N), far below CONDITION_LIMIT for
    every N up to MAX_N. The first length that fails raises NumericalError
    naming it, as does one whose strengths overflow. Memory grows with the
    sum of lengths.
    """
    complex_input = np.iscomplexobj(x)
    sizes = np.asarray(lengths)
    starts = np.cumsum(sizes) - sizes  # each truncation's first sample among the concatenated ones
    bins = sizes if complex_input else sizes // 2 + 1  # the full spectrum, or the half of real x
    bin_starts = np.cumsum(bins) - bins
    cuts = list(zip(lengths, starts.tolist(), bin_starts.tolist(), (bin_starts + bins).tolist()))
    layout = _PairLayout(sizes, bin_starts)
    fft, inverse = (np.fft.fft, np.fft.ifft) if complex_input else (np.fft.rfft, np.fft.irfft)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):  # non-finite values fail below
        spectrum = np.empty(int(bins.sum()), dtype=complex)
        for ni, _, a, z in cuts:
            spectrum[a:z] = fft(x[:ni])
        values = layout._solve(spectrum / np.repeat(sizes, bins), complex_input)
        synthesis = layout._spectrum(values, complex_input, len(spectrum))
        approx = np.empty(int(sizes.sum()), dtype=complex if complex_input else float)
        for ni, s, a, z in cuts:
            approx[s : s + ni] = inverse(synthesis[a:z], ni, norm="forward")
        residual = _truncation_residuals(approx, x, sizes, starts).tolist()
        strengths = np.add.reduceat(values.real**2 + values.imag**2, layout._block_starts)
        order = np.argsort(layout._block_lengths, kind="stable")  # each length's blocks, in divisor order
        strengths, periods = strengths[order], layout._block_periods[order].tolist()
        firsts = np.searchsorted(layout._block_lengths[order], np.arange(len(sizes) + 1)).tolist()
        profiles = []
        for i, ni in enumerate(lengths):
            if not residual[i] <= RESIDUAL_TOL:
                raise NumericalError(f"truncation length {ni}: {_residual_error(residual[i])}")
            a, z = firsts[i], firsts[i + 1]
            try:
                profile = PeriodStrengthProfile(tuple(periods[a:z]), strengths[a:z], float(strengths[a:z].sum()))
            except NumericalError as exc:
                raise NumericalError(f"truncation length {ni}: {exc}") from None
            profiles.append(profile)
    return profiles


def _truncation_residuals(approx, x, sizes, starts) -> np.ndarray:
    """_relative_residual of each concatenated reconstruction against its truncation x[:Ni].

    approx holds the reconstructions of the sizes back to back, from
    starts; 0 for an all-zero truncation, nan for one with a non-finite value.
    """
    truth = x[np.arange(len(approx)) - np.repeat(starts, sizes)]
    peaks = np.maximum.accumulate(np.abs(x[: sizes.max()]))[sizes - 1]
    scale = np.repeat(_unit_scale(peaks), sizes)
    error = np.add.reduceat(np.abs((approx - truth) * scale) ** 2, starts)
    norm = np.add.reduceat(np.abs(truth * scale) ** 2, starts)
    return np.where(peaks == 0.0, 0.0, np.sqrt(error / norm))


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
