"""DFT and Ramanujan-basis baselines plus analytic multiplication counts.

The Ramanujan matrix shares the nested block layout of the cosine-pair
matrix but spans each period-p block with the integer Ramanujan sequence
and its first totient(p)-1 circular downshifts; its transform is solved by
exact remainders modulo cyclotomic polynomials (_RptMatrix). The DFT is
computed by FFT; the multiplication counts stay analytic counts of direct
O(N^2) evaluation, which is what the paper's cost comparison is about.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, combinations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def _cyclotomic_series(times, over, length: int) -> np.ndarray:
    """prod (1 - z^d), d in times, over prod (1 - z^d), d in over, mod z^length; exact int64.

    Each division is exact as a power series: a cumulative sum with stride d.
    All products come first, so when the quotient is a polynomial every
    partial result is one too, and its coefficients stay small.
    """
    series = np.zeros(length, dtype=np.int64)
    series[0] = 1
    for d in times:
        series[d:] = series[d:] - series[:-d]
    for d in over:
        padded = np.concatenate([series, np.zeros(-length % d, dtype=np.int64)])
        series = padded.reshape(-1, d).cumsum(axis=0).ravel()[:length]
    return series


class _RptMatrix(NestedPeriodicMatrix):
    """The Ramanujan matrix, solved block by block by exact cyclotomic remainders.

    Column l of block p tiles c_p shifted by l, so block p alone meets the
    bins (N/p) r, gcd(r, p) = 1, of X = fft(x)/N, and there X[(N/p) r] =
    beta_p(z_r), with beta_p the polynomial of the block's phi(p)
    coefficients and z_r = e^{-j2 pi r/p} the roots of the cyclotomic
    polynomial Phi_p. With F_p = X[::N/p] zeroed off those bins, h = ifft(F_p)
    takes the same values there, and deg beta_p < phi(p) = deg Phi_p, so
    beta_p = h mod Phi_p exactly. Three reductions leave one remainder modulo
    Phi_m per odd squarefree m:

    - p = s rad(p): Phi_p(z) = Phi_rad(z^s), so the s columns of h grouped by
      l mod s are reduced one by one modulo Phi_rad;
    - rad(p) = 2m with m odd: Phi_2m(w) = Phi_m(-w), and Phi_m divides w^m - 1;
    - m prime: Phi_m = 1 + w + ... + w^{m-1}; m composite: the quotient's top
      coefficients from the power series of 1/Phi_m, both convolutions by FFT.

    The singular values of the matrix are sqrt(N s lambda) over the blocks,
    lambda at both ends of the spectrum of T_m[l, l'] = c_m(l - l'), l, l' <
    phi(m): 1 and m for a prime core; for a composite one, from the leading
    k x k Toeplitz of c_m, k = min(phi(m), m - phi(m)), since with W the
    phi(m) x phi(m) block of the m-point DFT (rows coprime to m, columns
    l < phi(m)) W W^H = m I - V V^H for V the other m - phi(m) columns. A
    k x k matrix above MAX_BASIS_BYTES is refused before it is built. Blocks
    and labels are built only when read.
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

    @cached_property
    def blocks(self) -> tuple[BasisBlock, ...]:
        return tuple(ramanujan_block(self.n, p) for p in self.spans)

    @cached_property
    def labels(self) -> tuple[tuple, ...]:
        return tuple((p, None, l) for p, span in self.spans.items() for l in range(span.stop - span.start))

    @cached_property
    def _remainders(self) -> dict[int, tuple[np.ndarray, np.ndarray, int]]:
        """Per composite core m: Phi_m, 1/Phi_m mod z^(m - phi(m)), and an FFT length for both products."""
        remainders = {}
        for m, (odd, width) in self._cores.items():
            if len(odd) > 1:
                signs = {-1: [], 1: []}  # the divisors d of m by mu(m/d)
                for size in range(len(odd) + 1):
                    for subset in combinations(odd, size):
                        signs[(-1) ** (len(odd) - size)].append(math.prod(subset))
                cyclotomic = _cyclotomic_series(signs[1], signs[-1], width + 1)
                inverse = _cyclotomic_series(signs[-1], [d for d in signs[1] if d < m], m - width)
                remainders[m] = (cyclotomic, inverse, 1 << (max(m, 2 * (m - width) - 1) - 1).bit_length())
        return remainders

    def _singular_values(self) -> np.ndarray:
        """sqrt(N s lambda) at both ends of each block's core spectrum."""
        sizes = {m: min(width, m - width) for m, (odd, width) in self._cores.items() if len(odd) > 1}
        for p, _, m, _, _ in self._plan:
            k = sizes.get(m, 0)
            if k * k * 8 > MAX_BASIS_BYTES:
                raise NumericalError(
                    f"RPT block p={p} of N={self.n} reduces to a {k}x{k} Ramanujan-sum core "
                    f"(r={m}, {k * k * 8 / 2**20:.1f} MiB); the cap is {MAX_BASIS_BYTES // 2**20} MiB"
                )
        ends = {m: (1.0, float(m)) for m in self._cores}
        phi, mu = _totients_and_mobius(max(sizes, default=1))
        for m, k in sizes.items():
            lags = _ramanujan_sums(m, np.arange(k), phi, mu).astype(float)
            # core[i, j] = lags[|i - j|], row i read from the palindrome lags[k-1..1, 0..k-1] at k - 1 - i
            eig = np.linalg.eigvalsh(sliding_window_view(np.concatenate([lags[:0:-1], lags]), k)[::-1])
            ends[m] = (eig[0], eig[-1]) if k == self._cores[m][1] else (m - eig[-1], float(m))
        squares = np.array([s * e for _, s, m, _, _ in self._plan for e in ends[m]])
        return np.sqrt(self.n * np.clip(squares, 0.0, None))

    def _solve(self, spectrum: np.ndarray, complex_input: bool) -> np.ndarray:
        """Each block's h = ifft(F_p) from its bins, then its remainder modulo Phi_p.

        For real x the spectrum is the half one, which holds bins 0..p/2 of F_p.
        """
        n = self.n
        values = []
        for p, s, m, flip, primitive in self._plan:
            bins = spectrum[:: n // p]
            bins = bins * primitive[: len(bins)]
            h = np.fft.ifft(bins) if complex_input else np.fft.irfft(bins, p)
            values.append(self._block_solve(h, s, m, flip))
        return np.concatenate(values) + 0j

    def _block_solve(self, h: np.ndarray, s: int, m: int, flip: bool) -> np.ndarray:
        """h mod Phi_p as s columns of one remainder modulo Phi_m, with w -> -w when rad(p) = 2m."""
        rows = h.reshape(-1, s)
        if flip:  # Phi_2m(w) = Phi_m(u), u = -w: the coefficients of u^i, folded mod u^m - 1 (m odd)
            rows = rows[:m] - rows[m:]
            rows[1::2] *= -1
        if m in self._remainders:  # rows = q Phi_m + r, q reversed = (top rows reversed) (1/Phi_m) mod z^len(q)
            cyclotomic, inverse, size = self._remainders[m]
            width, top = len(cyclotomic) - 1, len(inverse)
            fft, ifft = (np.fft.fft, np.fft.ifft) if np.iscomplexobj(rows) else (np.fft.rfft, np.fft.irfft)
            spectrum = fft(rows[: width - 1 : -1], size, axis=0) * fft(inverse, size)[:, None]
            quotient = ifft(spectrum, size, axis=0)[top - 1 :: -1]
            spectrum = fft(quotient, size, axis=0) * fft(cyclotomic, size)[:, None]
            rows = rows[:width] - ifft(spectrum, size, axis=0)[:width]
        elif m > 1:
            rows = rows[:-1] - rows[-1]
        if flip:
            rows[1::2] *= -1
        return rows.ravel()

    def _synthesize(self, values: np.ndarray, complex_values: bool) -> np.ndarray:
        """X on each block's bins from one length-p FFT of its coefficients, then one inverse FFT."""
        n = self.n
        spectrum = np.zeros(n, dtype=complex)
        for p, _, _, _, primitive in self._plan:
            spectrum[:: n // p][primitive] = np.fft.fft(values[self.spans[p]], p)[primitive]
        if not complex_values:
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
