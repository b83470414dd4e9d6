"""Non-divisor period estimation: length scan and penalized dictionary fit.

The scan projects truncations x[0:Ni] onto every divisor subspace of each
Ni in [N1, N]; only divisor periods of some Ni are visible. The lengths
are solved in chunks, each by one batched closed-form CCPT pass over one
pair table, and every length keeps its own residual check and profile: the
subspace of period p is projected once for every Ni that p divides, and
the per-period visit counts record that overlap.

The dictionary route takes the period blocks R_1..R_pmax of a fat
matrix A, biases toward small periods with the diagonal penalty
D_ii = f(p_i) (default p^2), and fits exactly:

    min ||D b||_2  s.t.  x = A b
    b = D^-2 A^H (A D^-2 A^H)^-1 x

A is never formed. The N x N system G = A D^-2 A^H has a closed form in
Ramanujan sums c_p, and A^H y and A b go through folds of the signal and
one length-q FFT per carrier q in (p_max/2, p_max], whose spectrum holds
that of every period dividing q (see _DictionaryOperator). G is factored
once by Cholesky, never inverted.
"""

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd
from typing import Callable

import numpy as np

from .baselines import _rpt_columns
from .errors import NumericalError
from .numtheory import _ramanujan_sums, _totients_and_mobius
from .transform import (
    CONDITION_LIMIT,
    DEFAULT_THRESHOLD,
    PeriodStrengthProfile,
    _ccpt_columns,
    _cho_factor,
    _cho_solve,
    _relative_residual,
    _truncation_profiles,
)

RIDGE_LAMBDA = 1e-10
# the most truncation samples one batched scan solve holds; larger chunks fall out of cache and run slower
_SCAN_CHUNK_SAMPLES = 2**14


@dataclass(frozen=True)
class ScanRecord:
    """Divisor strengths of one truncation length and its detected periods."""

    length: int
    profile: PeriodStrengthProfile
    detected: tuple[int, ...]


@dataclass(frozen=True)
class ScanResult:
    n1: int
    n: int
    records: tuple[ScanRecord, ...]
    subspace_visits: dict[int, int]
    duplicated_projections: int

    def detected_at(self, length: int) -> tuple[int, ...]:
        for rec in self.records:
            if rec.length == length:
                return rec.detected
        raise KeyError(f"no scan record for length {length}")


def range_scan(x, n1: int, threshold: float = DEFAULT_THRESHOLD) -> ScanResult:
    """Divisor-strength profiles of x[0:Ni] for every Ni in [n1, len(x)].

    Consecutive lengths are solved together in chunks of at most
    _SCAN_CHUNK_SAMPLES summed samples (a longer length alone), each by
    one batched closed-form CCPT solve that checks every length's residual
    as forward does. Every length gets its own profile, and the result
    reports how often each period's subspace was visited.
    """
    x = np.asarray(x)
    n = len(x)
    if not 3 <= n1 <= n:
        raise ValueError(f"scan start {n1} must satisfy 3 <= n1 <= {n}")
    records = tuple(
        ScanRecord(length=ni, profile=profile, detected=profile.significant(threshold))
        for lengths in _chunks(n1, n, _SCAN_CHUNK_SAMPLES)
        for ni, profile in zip(lengths, _truncation_profiles(x, lengths))
    )

    visits: dict[int, int] = {}
    for rec in records:
        for p in rec.profile.periods:
            visits[p] = visits.get(p, 0) + 1
    duplicated = sum(c - 1 for c in visits.values() if c > 1)
    return ScanResult(
        n1=n1, n=n, records=records, subspace_visits=visits, duplicated_projections=duplicated
    )


def _chunks(n1: int, n: int, budget: int):
    """Consecutive ranges of lengths covering n1..n, each summing to at most budget or holding one length."""
    start = n1
    while start <= n:
        stop, size = start + 1, start
        while stop <= n and size + stop <= budget:
            size, stop = size + stop, stop + 1
        yield range(start, stop)
        start = stop


def default_p_max(n: int) -> int:
    """Largest hidden period searched by default: min(0.8*N, N-1)."""
    return max(1, min(int(n * 0.8), n - 1))


@dataclass(frozen=True)
class DictionaryModel:
    """Column layout of the fat matrix [R_1 ... R_pmax] with per-column period penalties.

    Block p holds totient(p) columns penalized by f(p), and the solve weighs
    it by weights[p - 1] = f(p)^-2. phi and mu hold phi(0..p_max) and
    mu(0..p_max) from the layout's one sieve. The N x n_hat matrix and the
    column labels are built only when read; no solve forms them.
    """

    n: int
    p_max: int
    basis: str
    column_periods: np.ndarray
    penalties: np.ndarray
    weights: np.ndarray
    spans: dict[int, slice] = field(repr=False)
    phi: np.ndarray = field(repr=False)
    mu: np.ndarray = field(repr=False)

    @property
    def n_hat(self) -> int:
        return len(self.column_periods)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The literal N x n_hat dictionary, built on first read."""
        builder = _BLOCK_BUILDERS[self.basis]
        return np.concatenate([builder(self.n, p)[1] for p in range(1, self.p_max + 1)], axis=1)

    @cached_property
    def labels(self) -> tuple[tuple, ...]:
        """(p, k, shift) of every column; k is None for the Ramanujan basis."""
        return self.block_labels(range(1, self.p_max + 1))

    def block_labels(self, periods) -> tuple[tuple, ...]:
        """The labels of the blocks of the given ascending periods <= p_max only, in column order."""
        p, k, l = _columns(self.basis, np.asarray(periods, dtype=int), self.phi)
        ks = [None] * len(p) if self.basis == "rpt" else k.tolist()
        return tuple(zip(p.tolist(), ks, l.tolist()))


def _farey_columns(n: int, p: int) -> tuple[tuple, np.ndarray]:
    """Labels (k, 0) and the exponentials e^{j2*pi*k*i/p} with gcd(k, p) = 1, 0 <= k < p."""
    ks = [k for k in range(p) if gcd(k, p) == 1]
    return tuple((k, 0) for k in ks), np.exp(2j * np.pi * np.array(ks) * np.arange(n)[:, None] / p)


_BLOCK_BUILDERS = {"ccpt": _ccpt_columns, "farey": _farey_columns, "rpt": _rpt_columns}


def _within(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each count c, concatenated."""
    return np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)


def _columns(basis: str, periods: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Period p, index k and shift l of every column of the given periods' blocks (k = 0 for rpt).

    Each basis keeps its columns from the grid of pairs (p, j), 0 <= j < p:
    farey the exponentials k = j coprime to p, rpt the shifts l = j < phi(p),
    and ccpt the pairs k = j + 1 coprime to p with 2k <= max(p, 2), each
    with the shifts 0 and 1 when p >= 3. phi must cover the largest period.
    """
    p, j = np.repeat(periods, periods), _within(periods)
    if basis == "farey":
        keep = np.gcd(j, p) == 1
        return p[keep], j[keep], np.zeros(int(keep.sum()), dtype=int)
    if basis == "rpt":
        keep = j < phi[p]
        return p[keep], np.zeros(int(keep.sum()), dtype=int), j[keep]
    k = j + 1
    keep = (np.gcd(k, p) == 1) & (2 * k <= np.maximum(p, 2))
    width = np.where(p[keep] >= 3, 2, 1)
    p, k = np.repeat(p[keep], width), np.repeat(k[keep], width)
    return p, k, _within(width)


def build_dictionary(
    n: int,
    p_max: int,
    penalty: Callable[[int], float] | None = None,
    basis: str = "ccpt",
) -> DictionaryModel:
    """Lay out the period dictionary for length-n signals.

    Block p holds the totient(p) basis columns of period p, tiled to
    length n with the final repetition truncated when p does not divide
    n. The penalty defaults to f(p) = p^2. Only the layout and the
    penalties are recorded; the matrix is built when `matrix` is read.
    Raises ValueError naming the first p whose f(p) is not finite and > 0
    (an f(p) that overflows float reads inf) or whose weight f(p)^-2
    overflows; a weight that underflows to 0 is kept.
    """
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    if basis not in _BLOCK_BUILDERS:
        raise ValueError(f"unknown dictionary basis {basis!r}")
    if penalty is None:
        penalty = lambda p: float(p * p)
    periods = range(1, p_max + 1)
    phi, mu = _totients_and_mobius(p_max)
    widths = phi[1:]
    starts = np.concatenate([[0], np.cumsum(widths)]).tolist()
    if starts[-1] < n:
        warnings.warn(
            f"dictionary has only {starts[-1]} columns for length {n}; "
            "the exact-fit constraint may be infeasible",
            stacklevel=2,
        )
    penalties = np.array([_penalty_value(penalty, p) for p in periods])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # refused below
        weights = penalties**-2.0
        bad = np.flatnonzero(~(np.isfinite(penalties) & (penalties > 0) & np.isfinite(weights)))
    if len(bad):
        p = int(bad[0]) + 1
        raise ValueError(f"penalty f({p}) = {penalties[p - 1]:.6g} must be finite and > 0 with a finite f({p})^-2")
    return DictionaryModel(
        n=n,
        p_max=p_max,
        basis=basis,
        column_periods=np.repeat(periods, widths),
        penalties=np.repeat(penalties, widths),
        weights=weights,
        spans={p: slice(a, b) for p, a, b in zip(periods, starts, starts[1:])},
        phi=phi, mu=mu,
    )


def _penalty_value(penalty: Callable[[int], float], p: int) -> float:
    """float(penalty(p)), or inf when computing it overflows a float."""
    try:
        return float(penalty(p))
    except OverflowError:
        return np.inf


def _scatter(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Sum of the values landing on each slot 0..size-1 (a complex sum part by part)."""
    if np.iscomplexobj(values):
        return np.bincount(index, values.real, size) + 1j * np.bincount(index, values.imag, size)
    return np.bincount(index, values, size)


class _DictionaryOperator:
    """A^H y, A b and G = A D^-2 A^H of one dictionary, none of them through A.

    Every column of block p is p-periodic, so A^H y reads y only through
    folds fold_q[r] = sum of y[i] over i = r (mod q), all from one bincount.
    The columns then read the folds through a sparse table of entries
    (column, slot, coefficient):

    - farey and ccpt: the slots are bins of F_q, one length-q FFT of each
      carrier fold, q in (p_max/2, p_max]. p divides the carrier
      q = p (floor(p_max / 2p) + 1) and F_p[k] = F_q[kq/p], so column (p, k)
      of farey reads F_p[k] and column (p, k, l) of ccpt reads
      M (e^{j theta l} F_p[k] + e^{-j theta l} F_p[-k]), theta = 2 pi k / p
      and M = 1/2 for p <= 2, else 1.
    - rpt: c_p(i) = sum over d | p of mu(p/d) d [d | i], so column (p, l)
      reads mu(p/d) d fold_d[l mod d] for each such d, with no FFT.

    Synthesis runs the same table backwards: scatter, a length-q inverse
    FFT per carrier for the spectral bases, then one gather-sum over all
    folds. G is real for every basis and comes from Ramanujan sums c_p (see
    `gram`).
    """

    def __init__(self, model: DictionaryModel):
        n, p_max, basis, phi, mu = model.n, model.p_max, model.basis, model.phi, model.mu
        periods = np.arange(1, p_max + 1)
        folds = periods if basis == "rpt" else periods[p_max // 2 :]
        starts = np.cumsum(folds) - folds  # the fold of folds[i] and its spectrum begin at starts[i]
        self.model, self.periods = model, periods
        self.size = int(starts[-1] + folds[-1])
        self.bounds = list(zip(starts.tolist(), (starts + folds).tolist()))
        self.rows = starts[:, None] + np.arange(n) % folds[:, None]
        self.spectral = basis != "rpt"
        self.real = basis != "farey"
        if basis == "rpt":
            # the divisors d of p with mu(p/d) != 0, each paired with every shift l < phi(p)
            p, d = np.nonzero(periods[:, None] % periods == 0)
            p, d = p + 1, d + 1
            keep = mu[p // d] != 0
            reps = phi[p[keep]]
            p, d = np.repeat(p[keep], reps), np.repeat(d[keep], reps)
            l = _within(reps)
            self.cols = np.cumsum(phi)[p - 1] + l  # block p starts at phi(1) + ... + phi(p - 1)
            self.slots = starts[d - 1] + l % d
            self.coef = mu[p // d] * d
            return
        p, k, l = _columns(basis, periods, phi)
        step = p_max // (2 * p) + 1  # bin k of F_p is bin k * step of its carrier p * step
        start = starts[p * step - folds[0]]
        cols = np.arange(len(p))
        if basis == "farey":
            self.cols, self.slots, self.coef = cols, start + k * step, np.ones(len(p))
            return
        phase = np.exp(2j * np.pi * k * l / p) * np.where(p <= 2, 0.5, 1.0)
        self.cols = np.concatenate([cols, cols])
        self.slots = np.concatenate([start + k % p * step, start + (p - k) % p * step])
        self.coef = np.concatenate([phase, phase.conj()])

    def _per_period(self, values: np.ndarray, transform) -> np.ndarray:
        return np.concatenate([transform(values[a:b]) for a, b in self.bounds])

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """A^H y from the folds of y."""
        slots = _scatter(self.rows.ravel(), np.broadcast_to(y, self.rows.shape).ravel(), self.size)
        if self.spectral:
            slots = self._per_period(slots, np.fft.fft)
        out = _scatter(self.cols, self.coef * slots[self.slots], self.model.n_hat)
        return out.real if self.real and not np.iscomplexobj(y) else out

    def synthesize(self, b: np.ndarray) -> np.ndarray:
        """A b: the adjoint's table transposed, then every fold tiled and summed."""
        slots = _scatter(self.slots, self.coef.conj() * b[self.cols], self.size)
        if self.spectral:
            slots = self._per_period(slots, lambda s: np.fft.ifft(s, norm="forward"))
        out = slots[self.rows].sum(axis=0)
        return out.real if self.real and not np.iscomplexobj(b) else out

    def gram(self) -> np.ndarray:
        """G = A D^-2 A^H = sum_p w_p R_p R_p^H, real symmetric, with w_p = f(p)^-2.

        - farey: the Toeplitz matrix sum_p w_p c_p(m - n).
        - ccpt: Toeplitz plus Hankel, sum_p w_p c_p(m - n) for p <= 2 and
          sum_p w_p [2 c_p(m - n) + c_p(m + n) + c_p(m + n - 2)] for p >= 3.
          Both read lag vectors of `_lag_sums`.
        - rpt: from the displacement G[m+1, n+1] = G[m, n] + sum_p w_p
          [c_p(m+1) c_p(n+1) - c_p(m+1-phi(p)) c_p(n+1-phi(p))], started from
          the row G[0, :] = A (D^-2 a_0), where a_0 is row 0 of A, with every
          c_p read from one table of c_p(0..p-1) laid out as the folds.
        """
        model, periods, w = self.model, self.periods, self.model.weights
        n, phi = model.n, model.phi
        if model.basis == "rpt":
            p, j = np.repeat(periods, periods), _within(periods)
            table = _ramanujan_sums(p, j, phi, model.mu).astype(float)  # c_p(j) at the fold slot of (p, j)
            first = self.synthesize((w[p - 1] * table)[j < phi[p]])  # the columns (p, l < phi(p))
            u = table[self.rows[:, 1:].T] * np.sqrt(w)
            v = table[self.rows[:, 0] + (np.arange(1, n)[:, None] - phi[periods]) % periods] * np.sqrt(w)
            # upper[m, k] = G[m, m + k]: the upper diagonals are the columns of a buffer padded
            # by n entries, so one cumsum adds the displacements down each of them
            buffer = np.zeros(n * n + n)
            gram = buffer[: n * n].reshape(n, n)
            gram[0], gram[1:, 1:] = first, u @ u.T - v @ v.T  # x @ x.T takes BLAS's symmetric product
            upper = np.lib.stride_tricks.as_strided(buffer, (n, n), (8 * n + 8, 8))
            np.cumsum(upper, axis=0, out=upper)
            lower = np.tri(n, k=-1, dtype=bool)
            gram[lower] = gram.T[lower]  # the cumsum ran past each diagonal into the lower triangle
            return gram
        index = np.arange(n)
        if model.basis == "farey":
            return self._lag_sums(w, n)[abs(index[:, None] - index)]
        pairs = w * (periods >= 3)
        lags = self._lag_sums(pairs, 2 * n + 1)  # c_p(-2) = c_p(2): the Hankel reads lags 0..2n
        hankel = lags[: 2 * n - 1] + lags[abs(np.arange(-2, 2 * n - 3))]
        return self._lag_sums(w + pairs, n)[abs(index[:, None] - index)] + hankel[index[:, None] + index]

    def _lag_sums(self, weights: np.ndarray, size: int) -> np.ndarray:
        """L(d) = sum_p weights[p - 1] c_p(d), d = 0..size-1, by c_p(d) = sum over e | (p, d) of mu(p/e) e.

        L(d) sums h(e) = e sum_{m <= p_max/e} mu(m) weights[em - 1] over the e <= p_max dividing d.
        """
        periods, p_max = self.periods, self.model.p_max
        e, m = np.repeat(periods, p_max // periods), _within(p_max // periods) + 1
        h = np.bincount(e - 1, e * self.model.mu[m] * weights[e * m - 1], p_max)
        counts = (size - 1) // periods + 1  # the multiples 0, e, 2e, ... below size
        e = np.repeat(periods, counts)
        return np.bincount(e * _within(counts), h[e - 1], size)


@dataclass(frozen=True)
class DictionarySolution:
    """Penalized minimum-norm coefficients and their fit diagnostics."""

    coefficients: np.ndarray
    residual: float
    condition: float
    ridge: float


def _condition(gram: np.ndarray) -> float:
    """2-norm condition number of the symmetric G from its eigenvalues; inf when singular.

    |eigenvalues| are the singular values. A ratio of 1 / eps or more (eps of
    float64) is rounding on a singular system, and reads inf.
    """
    eig = np.abs(np.linalg.eigvalsh(gram))
    low, high = float(eig.min()), float(eig.max())
    return high / low if low > high * np.finfo(float).eps else np.inf


def _factor_with_ridge(gram: np.ndarray):
    """Cholesky factor of the SPD system, with the ridge fallback.

    A ridge of RIDGE_LAMBDA * trace(G)/n is added when the condition
    estimate of G exceeds CONDITION_LIMIT or G fails to factor. Returns the
    factor, the system it factors, the condition estimate and the ridge.
    """
    cond = _condition(gram)
    if cond <= CONDITION_LIMIT:
        try:
            return _cho_factor(gram), gram, cond, 0.0
        except np.linalg.LinAlgError:
            pass
    n = gram.shape[0]
    ridge = RIDGE_LAMBDA * float(np.trace(gram)) / n
    gram = gram + ridge * np.eye(n)
    try:
        return _cho_factor(gram), gram, cond, ridge
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"dictionary system singular beyond ridge recovery (condition estimate {cond:.3e})"
        ) from exc


def dictionary_solve(model: DictionaryModel, x) -> DictionarySolution:
    """Exact-fit coefficients biased against large periods.

    Stages the closed form as one SPD solve: G y = x with the closed-form
    G = A D^-2 A^H, then b = D^-2 A^H y, all without forming A. If the
    condition estimate of G exceeds the limit or G fails to factor, a ridge
    of RIDGE_LAMBDA * trace(G)/n is added and reported on the solution. The
    residual is that of A b against x; a solve that is not finite in
    float64 (samples near its limit overflow) raises NumericalError.
    """
    x = np.asarray(x)
    if x.shape != (model.n,):
        raise ValueError(f"signal length {x.shape} does not match dictionary length {model.n}")
    operator = _DictionaryOperator(model)
    factor, gram, cond, ridge = _factor_with_ridge(operator.gram())
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite solve fails below
        y = _cho_solve(factor, x)
        # one refinement pass keeps the exact-fit residual near machine level
        y = y + _cho_solve(factor, x - gram @ y)
        coefficients = model.penalties**-2.0 * operator.adjoint(y)
        residual = _relative_residual(operator.synthesize(coefficients), x)
    if not (np.isfinite(residual) and np.isfinite(coefficients).all()):
        raise NumericalError(f"dictionary solve is not finite in float64 (residual {residual:.3e})")
    return DictionarySolution(coefficients=coefficients, residual=residual, condition=cond, ridge=ridge)


def dictionary_strength_profile(
    solution: DictionarySolution, model: DictionaryModel
) -> PeriodStrengthProfile:
    """Absolute square sum of each period block's coefficients, p = 1..p_max."""
    periods = tuple(range(1, model.p_max + 1))
    with np.errstate(over="ignore"):  # an overflow reads inf, which the profile refuses
        energy = np.abs(solution.coefficients) ** 2
        strengths = np.add.reduceat(energy, [model.spans[p].start for p in periods])
        total = float(strengths.sum())
    return PeriodStrengthProfile(periods=periods, strengths=strengths, total=total)
