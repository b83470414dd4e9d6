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
  for one irfft. The range scan (_truncation_profiles) applies the same
  pair formulas to many lengths at once, from one pair table.
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


def _condition_error(n: int, cond: float) -> NumericalError:
    return NumericalError(
        f"synthesis matrix for N={n} too ill-conditioned to invert (condition estimate {cond:.3e})"
    )


def _residual_error(residual: float) -> NumericalError:
    return NumericalError(f"forward solve residual {residual:.3e} exceeds {RESIDUAL_TOL}")


class NestedPeriodicMatrix:
    """Square synthesis matrix laid out as one basis block per divisor of N.

    The bases' subclasses set kind, n and spans (divisor p -> its columns),
    build blocks and labels when read, and solve the matrix through three
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
    def _block_starts(self) -> np.ndarray:
        """Each block's first column, in divisor order."""
        return np.array([span.start for span in self.spans.values()])

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
            raise _condition_error(self.n, cond)
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
    """One row per conjugate pair of every given length, sorted by (length, p, k).

    Length N = lengths[i] has a row for each DFT bin m = 0..N/2: with
    g = gcd(m, N), its period is p = N/g and its index k = m/g, except
    k = 1 for bin 0 (the period-1 pair). Returns i, p, k and m per row.
    """
    lengths = np.asarray(lengths)
    counts = lengths // 2 + 1
    which = np.repeat(np.arange(len(lengths)), counts)
    m = np.arange(len(which)) - np.repeat(np.cumsum(counts) - counts, counts)
    n = lengths[which]
    g = np.gcd(m, n)
    p, k = n // g, np.maximum(m // g, 1)
    room = (lengths + 1) ** 2  # a length's rows sort by p (N + 1) + k < (N + 1)^2
    order = np.argsort(np.repeat(np.cumsum(room) - room, counts) + p * (n + 1) + k)
    return which[order], p[order], k[order], m[order]


def _pair_angles(p, k) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """theta / 2 = pi k / p of each pair, then cos theta and sin theta."""
    half = np.pi * k / p
    return half, np.cos(2 * half), np.sin(2 * half)


def _pair_solve(xm, xn, cos, sin) -> tuple[np.ndarray, np.ndarray]:
    """alpha, beta of each pair from X[m] and X[N - m]; xn None takes the real form for real x."""
    if xn is None:
        beta = -xm.imag / sin
        return xm.real - beta * cos, beta
    beta = (xn - xm) / (2j * sin)
    return xm - beta * (cos - 1j * sin), beta


def _pair_spectrum(alpha, beta, phase) -> np.ndarray:
    """Each pair's bin X[m] = alpha + beta phase for phase = e^{-j theta}; its conjugate gives X[N - m]."""
    return alpha + beta * phase


def _pair_singular_values(half) -> tuple[np.ndarray, np.ndarray]:
    """The pairs' singular values over sqrt(N): 2 sin(theta / 2) and 2 cos(theta / 2)."""
    return 2 * np.sin(half), 2 * np.cos(half)


class _CcptMatrix(NestedPeriodicMatrix):
    """The cosine-pair matrix, solved in closed form from its pair table.

    The table (_pair_table) has one row per conjugate pair: period p, index
    k, DFT bin m = kN/p for m = 0..N/2, sorted by (p, k). The rows with
    p <= 2 come first and own one column each; then each row with p >= 3
    owns the columns (k, 0) and (k, 1), alpha and beta, so the alphas sit
    at every other column from the first pair's on. Blocks and labels are
    built only when read.
    """

    def __init__(self, n: int):
        n = _check_positive(n)
        _, p, k, m = _pair_table([n])
        width = np.where(p >= 3, 2, 1)
        offset = np.cumsum(width) - width
        starts = np.flatnonzero(np.diff(p)) + 1  # the rows that open periods after p = 1
        bounds = [0, *offset[starts].tolist(), n]
        single = int(np.count_nonzero(p <= 2))
        self.kind = "ccpt"
        self.n = n
        self.spans = {q: slice(a, z) for q, a, z in zip([1, *p[starts].tolist()], bounds, bounds[1:])}
        self._periods, self._ks = p, k
        self._single_bins, self._pair_bins = m[:single], m[single:]
        self._half, self._cos, self._sin = _pair_angles(p[single:], k[single:])
        self._phase = self._cos - 1j * self._sin

    @cached_property
    def blocks(self) -> tuple[BasisBlock, ...]:
        return tuple(basis_block(self.n, p) for p in self.spans)

    @cached_property
    def labels(self) -> tuple[tuple, ...]:
        rows = zip(self._periods.tolist(), self._ks.tolist())
        return tuple((p, k, l) for p, k in rows for l in ((0,) if p <= 2 else (0, 1)))

    def _singular_values(self) -> np.ndarray:
        """sqrt(N) per single column, and the pairs' closed forms times sqrt(N)."""
        single = np.ones(len(self._single_bins))
        return np.sqrt(self.n) * np.concatenate([single, *_pair_singular_values(self._half)])

    def _solve(self, spectrum: np.ndarray, complex_input: bool) -> np.ndarray:
        """alpha, beta of every pair from X[m] and X[N-m]; the real form, from X[m] alone, for real x."""
        single = len(self._single_bins)
        values = np.empty(self.n, dtype=complex)
        xn = spectrum[self.n - self._pair_bins] if complex_input else None
        values[:single] = spectrum[self._single_bins] if complex_input else spectrum[self._single_bins].real
        values[single::2], values[single + 1 :: 2] = _pair_solve(spectrum[self._pair_bins], xn, self._cos, self._sin)
        return values

    def _synthesize(self, values: np.ndarray, complex_values: bool) -> np.ndarray:
        """X from the coefficients, then one inverse FFT: the real one, on bins 0..N/2, for real ones."""
        n, single = self.n, len(self._single_bins)
        if not complex_values:
            values = values.real
        alpha, beta = values[single::2], values[single + 1 :: 2]
        spectrum = np.empty(n if complex_values else n // 2 + 1, dtype=complex)  # the pairs fill every bin
        spectrum[self._single_bins] = values[:single]
        spectrum[self._pair_bins] = _pair_spectrum(alpha, beta, self._phase)
        if not complex_values:
            return np.fft.irfft(spectrum, n, norm="forward")
        spectrum[n - self._pair_bins] = _pair_spectrum(alpha, beta, self._phase.conj())
        return np.fft.ifft(spectrum, norm="forward")


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

    One pair table covers all the lengths, every pair is solved at once,
    and one reduceat sums every block; only the FFT of each truncation and
    the inverse FFT of its reconstruction run per length. Each length is
    checked as forward checks it: the closed-form condition, then the
    residual of its reconstruction against x[:Ni], both scaled by the
    power of two nearest 1 / max|x[:Ni]|. The first length that fails
    raises NumericalError naming it, as does one whose strengths overflow.
    Memory grows with the sum of lengths.
    """
    complex_input = np.iscomplexobj(x)
    sizes = np.asarray(lengths)
    starts = np.cumsum(sizes) - sizes  # each truncation's first sample among the concatenated ones
    bins = sizes if complex_input else sizes // 2 + 1  # the full spectrum, or the half of real x
    bin_starts = np.cumsum(bins) - bins
    row_starts = np.cumsum(sizes // 2 + 1) - (sizes // 2 + 1)
    cuts = list(zip(lengths, starts.tolist(), bin_starts.tolist(), (bin_starts + bins).tolist()))
    which, p, k, m = _pair_table(sizes)
    n = sizes[which]
    pos = bin_starts[which] + m
    pair = p >= 3
    width = np.where(pair, 2, 1)
    column = np.cumsum(width) - width  # each row's first coefficient; a pair's beta is the next
    half, cos, sin = _pair_angles(p[pair], k[pair])
    phase = cos - 1j * sin
    fft = np.fft.fft if complex_input else np.fft.rfft  # the bins forward solves from
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):  # non-finite values fail below
        spectrum = np.empty(int(bins.sum()), dtype=complex)
        for ni, _, a, z in cuts:
            spectrum[a:z] = fft(x[:ni])
        xm = spectrum[pos] / n
        coef, xn = xm.real, None
        if complex_input:
            mirror = (pos + n - 2 * m)[pair]  # bin N - m of each pair
            coef, xn = xm, spectrum[mirror] / n[pair]
        alpha, beta = _pair_solve(xm[pair], xn, cos, sin)
        synthesis = np.zeros_like(spectrum)
        synthesis[pos] = coef
        synthesis[pos[pair]] = _pair_spectrum(alpha, beta, phase)
        if complex_input:
            synthesis[mirror] = _pair_spectrum(alpha, beta, phase.conj())
        approx = np.empty(int(sizes.sum()), dtype=synthesis.dtype if complex_input else float)
        inverse = np.fft.ifft if complex_input else np.fft.irfft
        for ni, s, a, z in cuts:
            approx[s : s + ni] = inverse(synthesis[a:z], ni, norm="forward")
        residual = _truncation_residuals(approx, x, sizes, starts)
        sv_sin, sv_cos = _pair_singular_values(half)
        high, low = np.ones(len(p)), np.ones(len(p))
        high[pair], low[pair] = np.maximum(sv_sin, sv_cos), np.minimum(sv_sin, sv_cos)
        cond = np.maximum.reduceat(high, row_starts) / np.minimum.reduceat(low, row_starts)

        # the coefficients in column order, so each block sums as divisor_strengths sums it
        values = np.empty(len(approx), dtype=complex)
        values[column] = coef
        values[column[pair]], values[column[pair] + 1] = alpha, beta
        opens = np.flatnonzero((np.diff(p, prepend=0) != 0) | (np.diff(which, prepend=-1) != 0))
        strengths = np.add.reduceat(values.real**2 + values.imag**2, column[opens])
        periods = p[opens].tolist()
        firsts = [*np.searchsorted(opens, row_starts).tolist(), len(opens)]
        passed = ((cond <= CONDITION_LIMIT) & (residual <= RESIDUAL_TOL)).tolist()
        profiles = []
        for i, ni in enumerate(lengths):
            if not passed[i]:
                fault = _condition_error(ni, cond[i])
                if cond[i] <= CONDITION_LIMIT:
                    fault = _residual_error(residual[i])
                raise NumericalError(f"truncation length {ni}: {fault}")
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
