"""DFT and Ramanujan-basis baselines plus analytic multiplication counts.

The Ramanujan matrix shares the nested block layout of the cosine-pair
matrix but spans each period-p block with the integer Ramanujan sequence
and its first totient(p)-1 circular downshifts. The DFT is computed by
FFT; the multiplication counts stay analytic counts of direct O(N^2)
evaluation, which is what the paper's cost comparison is about.
"""

from dataclasses import dataclass

import numpy as np

from .numtheory import divisors, period_partition, totient
from .transform import BasisBlock, NestedPeriodicMatrix, PeriodStrengthProfile, _shifted_tilings

IMAG_RESIDUE_TOL = 1e-9


@dataclass(frozen=True)
class RamanujanSum:
    """Integer sequence summing all exponentials of exact period q."""

    period: int
    samples: np.ndarray

    def __len__(self):
        return self.period


def ramanujan_sum(q: int) -> RamanujanSum:
    """Sum e^{j2*pi*k*n/q} over k coprime to q, rounded to exact integers."""
    ks = np.array([k for k in range(1, q + 1) if np.gcd(k, q) == 1])
    n = np.arange(q)
    values = np.exp(2j * np.pi * np.outer(n, ks) / q).sum(axis=1)
    residue = float(np.abs(values.imag).max())
    if residue >= IMAG_RESIDUE_TOL:
        raise AssertionError(f"Ramanujan sum imaginary residue {residue:.3e} for q={q}")
    return RamanujanSum(period=q, samples=np.rint(values.real).astype(int))


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


def build_rpt_matrix(n: int) -> NestedPeriodicMatrix:
    """Ramanujan analogue of the cosine-pair synthesis matrix."""
    return NestedPeriodicMatrix([ramanujan_block(n, p) for p in divisors(n)], kind="rpt")


def dft(x) -> np.ndarray:
    """DFT X[k] = sum_n x[n] e^{-j2*pi*k*n/N}, computed by FFT."""
    return np.fft.fft(np.asarray(x))


def idft(spectrum) -> np.ndarray:
    """Inverse of dft: x[n] = (1/N) sum_k X[k] e^{j2*pi*k*n/N}."""
    return np.fft.ifft(np.asarray(spectrum))


def dft_divisor_strengths(spectrum) -> PeriodStrengthProfile:
    """Spectrum energy grouped by the exact period of each bin's exponential."""
    spectrum = np.asarray(spectrum)
    n = len(spectrum)
    cells = period_partition(n)
    periods = divisors(n)
    with np.errstate(over="ignore"):  # an overflow reads inf, which the profile refuses
        energy = np.abs(spectrum) ** 2
        strengths = np.array([energy[sorted(cells[d])].sum() for d in periods])
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
