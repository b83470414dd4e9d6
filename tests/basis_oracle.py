"""Literal constructions the package's fast paths are checked against.

Each column generator yields ((k, shift), column) for one period p at
length n, built by rolling one period of the sequence and tiling it with
np.tile, the last repetition truncated. The package's vectorised builders
must reproduce these columns bit for bit. `dft` and `idft` are the direct
O(N^2) sums the FFT baseline must match to rounding.
"""

from math import gcd

import numpy as np

from ccpt.baselines import ramanujan_sum
from ccpt.ccps import ccps
from ccpt.numtheory import coprime_half_set, totient


def tile(one_period, length):
    reps = -(-length // len(one_period))
    return np.tile(one_period, reps)[:length]


def ccpt_columns(n, p):
    for k in coprime_half_set(p):
        samples = ccps(p, k).samples
        for l in (0,) if p <= 2 else (0, 1):
            yield (k, l), tile(np.roll(samples, l), n)


def farey_columns(n, p):
    idx = np.arange(n)
    for k in range(p):
        if gcd(k, p) == 1:
            yield (k, 0), np.exp(2j * np.pi * k * idx / p)


def rpt_columns(n, p):
    base = ramanujan_sum(p).samples.astype(float)
    for l in range(totient(p)):
        yield (None, l), tile(np.roll(base, l), n)


COLUMNS = {"ccpt": ccpt_columns, "farey": farey_columns, "rpt": rpt_columns}


def block(basis, n, p):
    """(labels, n x width matrix) of the literal period-p block."""
    labels, cols = zip(*COLUMNS[basis](n, p))
    return labels, np.column_stack(cols)


def dft(x):
    """Direct DFT: X[k] = sum_n x[n] e^{-j2*pi*k*n/N}."""
    x = np.asarray(x)
    n = len(x)
    grid = np.outer(np.arange(n), np.arange(n))
    return np.exp(-2j * np.pi * grid / n) @ x


def idft(spectrum):
    spectrum = np.asarray(spectrum)
    n = len(spectrum)
    grid = np.outer(np.arange(n), np.arange(n))
    return np.exp(2j * np.pi * grid / n) @ spectrum / n
