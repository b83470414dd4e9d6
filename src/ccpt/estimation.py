"""Non-divisor period estimation: length scan and penalized dictionary fit.

The scan projects truncations x[0:Ni] onto every divisor subspace of each
Ni in [N1, N]; only divisor periods of some Ni are visible, and the same
subspace is recomputed for every Ni it divides (the per-period visit
counts record that overlap).

The dictionary route concatenates period blocks R_1..R_pmax into a fat
matrix A, biases toward small periods with the diagonal penalty
D_ii = f(p_i) (default p^2), and fits exactly:

    min ||D b||_2  s.t.  x = A b
    b = D^-2 A^T (A D^-2 A^T)^-1 x

solved by factoring the square system G = A D^-2 A^T once, never forming
the literal inverse.
"""

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import accumulate
from math import gcd
from typing import Callable

import numpy as np
import scipy.linalg

from .baselines import _rpt_columns
from .errors import NumericalError
from .transform import (
    CONDITION_LIMIT,
    DEFAULT_THRESHOLD,
    PeriodStrengthProfile,
    _ccpt_columns,
    build_ccpt_matrix,
    divisor_strengths,
)

RIDGE_LAMBDA = 1e-10


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


def range_scan(x, n1: int, threshold: float = DEFAULT_THRESHOLD, jobs: int = 1) -> ScanResult:
    """Divisor-strength profiles of x[0:Ni] for every Ni in [n1, len(x)].

    Implemented literally: every length gets its own synthesis matrix and
    solve, so divisor subspaces shared between lengths are recomputed; the
    result reports how often each subspace was visited.
    """
    x = np.asarray(x)
    n = len(x)
    if not 3 <= n1 <= n:
        raise ValueError(f"scan start {n1} must satisfy 3 <= n1 <= {n}")
    lengths = range(n1, n + 1)

    def analyze(ni: int) -> ScanRecord:
        matrix = build_ccpt_matrix(ni)
        profile = divisor_strengths(matrix.forward(x[:ni]), matrix)
        return ScanRecord(length=ni, profile=profile, detected=profile.significant(threshold))

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            records = tuple(pool.map(analyze, lengths))
    else:
        records = tuple(analyze(ni) for ni in lengths)

    visits: dict[int, int] = {}
    for rec in records:
        for p in rec.profile.periods:
            visits[p] = visits.get(p, 0) + 1
    duplicated = sum(c - 1 for c in visits.values() if c > 1)
    return ScanResult(
        n1=n1, n=n, records=records, subspace_visits=visits, duplicated_projections=duplicated
    )


def default_p_max(n: int) -> int:
    """Largest hidden period searched by default: min(0.8*N, N-1)."""
    return max(1, min(int(n * 0.8), n - 1))


@dataclass(frozen=True)
class DictionaryModel:
    """Fat synthesis matrix [R_1 ... R_pmax] with per-column period penalties."""

    n: int
    p_max: int
    basis: str
    matrix: np.ndarray
    column_periods: np.ndarray
    penalties: np.ndarray
    spans: dict[int, slice] = field(repr=False)
    labels: tuple[tuple, ...] = field(repr=False)

    @property
    def n_hat(self) -> int:
        return self.matrix.shape[1]


def _farey_columns(n: int, p: int) -> tuple[tuple, np.ndarray]:
    """Labels (k, 0) and the exponentials e^{j2*pi*k*i/p} with gcd(k, p) = 1, 0 <= k < p."""
    ks = [k for k in range(p) if gcd(k, p) == 1]
    return tuple((k, 0) for k in ks), np.exp(2j * np.pi * np.array(ks) * np.arange(n)[:, None] / p)


_BLOCK_BUILDERS = {"ccpt": _ccpt_columns, "farey": _farey_columns, "rpt": _rpt_columns}


def build_dictionary(
    n: int,
    p_max: int,
    penalty: Callable[[int], float] | None = None,
    basis: str = "ccpt",
) -> DictionaryModel:
    """Assemble the period dictionary for lengths-n signals.

    Block p holds the totient(p) basis columns of period p, tiled to
    length n with the final repetition truncated when p does not divide
    n. The penalty defaults to f(p) = p^2.
    """
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    if basis not in _BLOCK_BUILDERS:
        raise ValueError(f"unknown dictionary basis {basis!r}")
    if penalty is None:
        penalty = lambda p: float(p * p)
    periods = range(1, p_max + 1)
    block_labels, blocks = zip(*(_BLOCK_BUILDERS[basis](n, p) for p in periods))
    widths = [block.shape[1] for block in blocks]
    starts = list(accumulate(widths, initial=0))
    matrix = np.concatenate(blocks, axis=1)
    if matrix.shape[1] < n:
        warnings.warn(
            f"dictionary has only {matrix.shape[1]} columns for length {n}; "
            "the exact-fit constraint may be infeasible",
            stacklevel=2,
        )
    return DictionaryModel(
        n=n,
        p_max=p_max,
        basis=basis,
        matrix=matrix,
        column_periods=np.repeat(periods, widths),
        penalties=np.repeat([float(penalty(p)) for p in periods], widths),
        spans={p: slice(a, b) for p, a, b in zip(periods, starts, starts[1:])},
        labels=tuple((p, *label) for p, labels in zip(periods, block_labels) for label in labels),
    )


@dataclass(frozen=True)
class DictionarySolution:
    """Penalized minimum-norm coefficients and their fit diagnostics."""

    coefficients: np.ndarray
    residual: float
    condition: float
    ridge: float


def _solve_spd(factor, rhs: np.ndarray, matrix_is_real: bool) -> np.ndarray:
    if matrix_is_real and np.iscomplexobj(rhs):
        parts = scipy.linalg.cho_solve(factor, np.column_stack([rhs.real, rhs.imag]))
        return parts[:, 0] + 1j * parts[:, 1]
    return scipy.linalg.cho_solve(factor, rhs)


def _factor_with_ridge(gram: np.ndarray):
    """Cholesky factor of the SPD system, with the ridge fallback.

    A ridge of RIDGE_LAMBDA * trace(G)/n is added when the condition
    estimate of G exceeds CONDITION_LIMIT or G fails to factor. Returns the
    factor, the system it factors, the condition estimate and the ridge.
    """
    cond = float(np.linalg.cond(gram))
    if np.isfinite(cond) and cond <= CONDITION_LIMIT:
        try:
            return scipy.linalg.cho_factor(gram), gram, cond, 0.0
        except np.linalg.LinAlgError:
            pass
    n = gram.shape[0]
    ridge = RIDGE_LAMBDA * float(np.real(np.trace(gram))) / n
    gram = gram + ridge * np.eye(n)
    try:
        return scipy.linalg.cho_factor(gram), gram, cond, ridge
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"dictionary system singular beyond ridge recovery (condition estimate {cond:.3e})"
        ) from exc


def dictionary_solve(model: DictionaryModel, x) -> DictionarySolution:
    """Exact-fit coefficients biased against large periods.

    Stages the closed form as one SPD solve: G y = x with
    G = A D^-2 A^H, then b = D^-2 A^H y. If the condition estimate of G
    exceeds the limit or G fails to factor, a ridge of RIDGE_LAMBDA *
    trace(G)/n is added and reported on the solution.
    """
    x = np.asarray(x)
    if x.shape != (model.n,):
        raise ValueError(f"signal length {x.shape} does not match dictionary length {model.n}")
    a = model.matrix
    real_system = not np.iscomplexobj(a)
    weighted = a * model.penalties**-2.0
    gram = weighted @ a.conj().T
    gram = (gram + gram.conj().T) / 2.0
    factor, gram, cond, ridge = _factor_with_ridge(gram)
    y = _solve_spd(factor, x, real_system)
    # one refinement pass keeps the exact-fit residual near machine level
    y = y + _solve_spd(factor, x - gram @ y, real_system)
    coefficients = weighted.conj().T @ y
    norm_x = float(np.linalg.norm(x))
    if norm_x > 0.0:
        residual = float(np.linalg.norm(a @ coefficients - x)) / norm_x
    else:
        residual = 0.0
    return DictionarySolution(coefficients=coefficients, residual=residual, condition=cond, ridge=ridge)


def dictionary_strength_profile(
    solution: DictionarySolution, model: DictionaryModel
) -> PeriodStrengthProfile:
    """Absolute square sum of each period block's coefficients, p = 1..p_max."""
    periods = tuple(range(1, model.p_max + 1))
    energy = np.abs(solution.coefficients) ** 2
    strengths = np.array([float(energy[model.spans[p]].sum()) for p in periods])
    return PeriodStrengthProfile(periods=periods, strengths=strengths, total=float(strengths.sum()))
