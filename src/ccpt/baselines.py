"""DFT and Ramanujan-basis baselines plus analytic multiplication counts.

The Ramanujan matrix shares the nested block layout of the cosine-pair
matrix but spans each period-p block with the integer Ramanujan sequence
and its first totient(p)-1 circular downshifts; its transform is solved on
reduced Ramanujan-sum Toeplitz cores (_RptMatrix). The DFT is computed by
FFT; the multiplication counts stay analytic counts of direct O(N^2)
evaluation, which is what the paper's cost comparison is about.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np
import scipy.linalg

from .errors import NumericalError
from .numtheory import _check_positive, _ramanujan_sums, _totients_and_mobius, divisors, totient
from .transform import (
    MAX_BASIS_BYTES,
    BasisBlock,
    NestedPeriodicMatrix,
    PeriodStrengthProfile,
    _shifted_tilings,
)


@dataclass(frozen=True)
class RamanujanSum:
    """Integer sequence summing all exponentials of exact period q."""

    period: int
    samples: np.ndarray

    def __len__(self):
        return self.period


def ramanujan_sum(q: int) -> RamanujanSum:
    """Sum e^{j2*pi*k*n/q} over k coprime to q, n = 0..q-1, in exact integers (von Sterneck)."""
    return RamanujanSum(period=q, samples=_ramanujan_sums(q, np.arange(q), *_totients_and_mobius(q)))


def _rpt_columns(n: int, p: int) -> tuple[tuple, np.ndarray]:
    """Labels (None, shift) and the tiled Ramanujan columns of period p >= 1."""
    base = ramanujan_sum(p).samples.astype(float)
    width = totient(p)
    table = np.broadcast_to(base[:, None], (p, width))
    return tuple((None, l) for l in range(width)), _shifted_tilings(table, range(width), n)


def ramanujan_block(n: int, p: int) -> BasisBlock:
    """Period-p block: tilings of the Ramanujan sequence shifted l = 0..phi(p)-1."""
    if n % p != 0:
        raise ValueError(f"period {p} does not divide length {n}")
    labels, table = _rpt_columns(p, p)
    return BasisBlock(length=n, period=p, labels=labels, table=table)


class _RptMatrix(NestedPeriodicMatrix):
    """The Ramanujan matrix, solved block by block on reduced Toeplitz cores.

    Column l of block p tiles c_p shifted by l, so W = fft(table_p)/p keeps
    only the rows r coprime to p, W[r, l] = e^{-j2 pi r l / p}, and block p
    alone meets the bins (N/p) r of X = fft(x)/N. With F_p = X[::N/p] zeroed
    off those rows, block p solves T_p beta_p = W^H F_p = (p ifft(F_p))[:phi(p)]
    for the Gram T_p = W^H W, T_p[l, l'] = c_p(l - l'). Three exact
    reductions leave one core T_m per odd squarefree m:

    - p = s rad(p): c_p(d) = s c_rad(d / s) if s | d, else 0, so grouping l
      by l mod s gives T_p = I_s (x) s T_rad(p), s right-hand sides of one solve;
    - rad(p) = 2m with m odd: T_2m = D T_m D, D = diag((-1)^j);
    - m prime: T_m = mI - J, so T_m^-1 = (I + J)/m, with eigenvalues 1 and m.

    A composite core is built from one lag vector, then factored (Cholesky)
    and its extreme eigenvalues taken once per distinct m, on the first
    condition() call; a core above MAX_BASIS_BYTES is refused first. The
    singular values of the matrix are sqrt(N s lambda) over the blocks.
    Blocks and labels are built only when read.
    """

    def __init__(self, n: int):
        n = _check_positive(n)
        periods = divisors(n)
        primes = []
        for d in periods[1:]:
            if all(d % q for q in primes):
                primes.append(d)
        self.kind = "rpt"
        self.n = n
        self._plan, self._cores, widths = [], {}, []
        for p in periods:
            factors = [q for q in primes if p % q == 0]
            odd = tuple(q for q in factors if q != 2)
            m, width = math.prod(odd), math.prod(q - 1 for q in odd)
            s = p // math.prod(factors)
            self._cores[m] = (odd, width)
            self._plan.append((p, s, m, p % 2 == 0, np.gcd(np.arange(p), p) == 1))
            widths.append(s * width)
        starts = list(accumulate(widths, initial=0))
        self.spans = {p: slice(a, z) for p, a, z in zip(periods, starts, starts[1:])}
        self._factors = None
        self._cond = None

    @cached_property
    def blocks(self) -> tuple[BasisBlock, ...]:
        return tuple(ramanujan_block(self.n, p) for p in self.spans)

    @cached_property
    def labels(self) -> tuple[tuple, ...]:
        return tuple((p, None, l) for p, span in self.spans.items() for l in range(span.stop - span.start))

    def _singular_values(self) -> np.ndarray:
        """sqrt(N s lambda) at both ends of each block's core spectrum; factors the composite cores."""
        for p, _, m, _, _ in self._plan:
            odd, width = self._cores[m]
            if len(odd) > 1 and width * width * 8 > MAX_BASIS_BYTES:
                raise NumericalError(
                    f"RPT block p={p} of N={self.n} reduces to a {width}x{width} Ramanujan-sum core "
                    f"(r={m}, {width * width * 8 / 2**20:.1f} MiB); the cap is {MAX_BASIS_BYTES // 2**20} MiB"
                )
        factors, ends = {}, {}
        for m, (odd, width) in self._cores.items():
            if len(odd) <= 1:
                ends[m] = (1.0, float(max(m, 1)))
                continue
            lags = _ramanujan_sums(m, np.arange(width), *_totients_and_mobius(m))
            core = scipy.linalg.toeplitz(lags.astype(float))
            eig = np.linalg.eigvalsh(core)
            ends[m] = (eig[0], eig[-1])
            try:
                factors[m] = scipy.linalg.cho_factor(core, overwrite_a=True)
            except np.linalg.LinAlgError:  # not numerically positive definite: the condition reads inf
                ends[m] = (0.0, eig[-1])
        self._factors = factors
        squares = np.array([s * e for _, s, m, _, _ in self._plan for e in ends[m]])
        return np.sqrt(self.n * np.clip(squares, 0.0, None))

    def _solve(self, spectrum: np.ndarray, complex_input: bool) -> np.ndarray:
        """Each block's right-hand side W^H F_p from its bins, then its reduced solve."""
        n = self.n
        values = []
        for p, s, m, flip, primitive in self._plan:
            bins = spectrum[:: n // p] * primitive
            rhs = p * (np.fft.ifft(bins) if complex_input else np.fft.irfft(bins[: p // 2 + 1], p))
            values.append(self._block_solve(rhs[: self.spans[p].stop - self.spans[p].start], s, m, flip))
        return np.concatenate(values) + 0j

    def _block_solve(self, rhs: np.ndarray, s: int, m: int, flip: bool) -> np.ndarray:
        """T_p^-1 rhs as s columns of one core solve, with D on both sides when rad(p) = 2m."""
        b = rhs.reshape(-1, s) / s
        if flip:
            b[1::2] *= -1
        odd, _ = self._cores[m]
        if len(odd) > 1:
            factor = self._factors[m]
            if np.iscomplexobj(b):
                b = scipy.linalg.cho_solve(factor, b.real) + 1j * scipy.linalg.cho_solve(factor, b.imag)
            else:
                b = scipy.linalg.cho_solve(factor, b)
        elif odd:
            b = (b + b.sum(axis=0)) / m
        if flip:
            b[1::2] *= -1
        return b.ravel()

    def _synthesize(self, values: np.ndarray) -> np.ndarray:
        """X on each block's bins from one length-p FFT of its coefficients, then one inverse FFT."""
        n = self.n
        spectrum = np.zeros(n, dtype=complex)
        for p, _, _, _, primitive in self._plan:
            spectrum[:: n // p][primitive] = np.fft.fft(values[self.spans[p]], p)[primitive]
        if not values.imag.any():
            return np.fft.irfft(spectrum[: n // 2 + 1], n) * n
        return np.fft.ifft(spectrum) * n


def build_rpt_matrix(n: int) -> NestedPeriodicMatrix:
    """Ramanujan analogue of the cosine-pair synthesis matrix."""
    return _RptMatrix(n)


def dft(x) -> np.ndarray:
    """DFT X[k] = sum_n x[n] e^{-j2*pi*k*n/N}, computed by FFT."""
    return np.fft.fft(np.asarray(x))


def idft(spectrum) -> np.ndarray:
    """Inverse of dft: x[n] = (1/N) sum_k X[k] e^{j2*pi*k*n/N}."""
    return np.fft.ifft(np.asarray(spectrum))


def dft_divisor_strengths(spectrum) -> PeriodStrengthProfile:
    """Spectrum energy grouped by the exact period n / gcd(k, n) of each bin k's exponential."""
    spectrum = np.asarray(spectrum)
    n = len(spectrum)
    periods = divisors(n)
    with np.errstate(over="ignore"):  # an overflow reads inf, which the profile refuses
        energy = np.abs(spectrum) ** 2
        bin_periods = n // np.gcd(np.arange(n), n)
        strengths = np.bincount(bin_periods, energy, n + 1)[list(periods)]
        total = float(strengths.sum())
    return PeriodStrengthProfile(periods=periods, strengths=strengths, total=total)


@dataclass(frozen=True)
class ComplexityReport:
    """Analytic multiplication count for one method, never an instrumented one.

    Dictionary methods are counted in units of L, the dictionary-solve
    real-multiplication count, which the comparison only pins up to the
    multiplier; `multiplications` is None for those.
    """

    method: str
    multiplications: int | None
    unit: str
    formula: str
    l_multiplier: int | None = None


def _scan_count(n: int, n1: int) -> int:
    # 2 * sum of m^2 for m in [n1, n], via the exact cube/square closed form
    def cum(m: int) -> int:
        return m * (m + 1) * (2 * m + 1) // 6

    return 2 * (cum(n) - cum(n1 - 1))


SCAN_FORMULA = "2*((N^3-N1^3)/3 + (N^2+N1^2)/2 + (N-N1)/6)"

_SINGLE = {
    "ccpt": (2, "real", "2N^2"),
    "rpt": (2, "real", "2N^2"),
    "dft": (4, "real", "4N^2"),
}
_SCAN_UNIT = {"scan-ccpt": "real", "scan-dft": "complex", "scan-rpt": "real"}
_DICT = {
    "dict-ccpt": (1, "L"),
    "dict-farey": (2, "2L"),
    "dict-rpt": (1, "L"),
}


def complexity_estimate(method: str, n: int, n1: int | None = None) -> ComplexityReport:
    """Closed-form multiplication count for a transform, scan, or dictionary run."""
    key = method.lower()
    if key in _SINGLE:
        factor, unit, formula = _SINGLE[key]
        return ComplexityReport(method=key, multiplications=factor * n * n, unit=unit, formula=formula)
    if key in _SCAN_UNIT:
        if n1 is None:
            raise ValueError(f"{method} needs the scan start length n1")
        if not 1 <= n1 <= n:
            raise ValueError(f"scan range [{n1}, {n}] is invalid")
        return ComplexityReport(
            method=key, multiplications=_scan_count(n, n1), unit=_SCAN_UNIT[key], formula=SCAN_FORMULA
        )
    if key in _DICT:
        mult, formula = _DICT[key]
        return ComplexityReport(
            method=key, multiplications=None, unit="real", formula=formula, l_multiplier=mult
        )
    raise ValueError(f"unknown method {method!r}")
