"""Literal constructions the package's fast paths are checked against.

Each column generator yields ((k, shift), column) for one period p at
length n, built by rolling one period of the sequence and tiling it with
np.tile, the last repetition truncated. The package's vectorised builders
must reproduce these columns bit for bit. `dft` and `idft` are the direct
O(N^2) sums the FFT baseline must match to rounding. `dictionary_gram`
builds a dictionary's Gram from a full table of Ramanujan sums, at sizes
where the dense dictionary is too large to form. `period_partition` groups
the DFT bins by exact period, one gcd at a time.
"""

from math import gcd

import numpy as np

from ccpt.baselines import ramanujan_sum
from ccpt.ccps import ccps
from ccpt.estimation import _columns
from ccpt.numtheory import _ramanujan_sums, _totients_and_mobius, coprime_half_set, divisors, totient


def period_partition(n):
    """Group DFT bin indices 0..n-1 by the exact period of their exponential.

    Bin k has period d = n / gcd(k, n); the returned cells partition
    {0, ..., n-1} and the cell for d has exactly totient(d) members.
    """
    cells = {d: set() for d in divisors(n)}
    for k in range(n):
        cells[n // gcd(k, n)].add(k)
    return {d: frozenset(ks) for d, ks in cells.items()}


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


def dictionary_gram(operator):
    """G = A D^-2 A^H of the operator's dictionary from a p_max x 2N table of c_p over the lags -2..2N-2.

    - farey: the Toeplitz matrix sum_p w_p c_p(m - n).
    - ccpt: Toeplitz plus Hankel, sum_p w_p c_p(m - n) for p <= 2 and
      sum_p w_p [2 c_p(m - n) + c_p(m + n) + c_p(m + n - 2)] for p >= 3.
    - rpt: from the displacement G[m+1, n+1] = G[m, n] + sum_p w_p
      [c_p(m+1) c_p(n+1) - c_p(m+1-phi(p)) c_p(n+1-phi(p))], one row at a
      time, started from the row G[0, :] = A (D^-2 a_0) through the
      operator's synthesis, where a_0 is row 0 of A.
    """
    model = operator.model
    n, w, periods = model.n, model.weights, np.arange(1, model.p_max + 1)
    phi, mu = _totients_and_mobius(model.p_max)

    def sums(p, d):
        return _ramanujan_sums(p, d, phi, mu)

    if model.basis == "rpt":
        p, _, l = _columns("rpt", periods, phi)
        first = operator.synthesize(w[p - 1] * sums(p, l))
        lags = np.arange(1, n)[:, None]
        u = sums(periods, lags).astype(float)
        v = sums(periods, lags - phi[periods]).astype(float)
        gram = np.empty((n, n))
        gram[0], gram[:, 0] = first, first
        gram[1:, 1:] = (u * w) @ u.T - (v * w) @ v.T
        for m in range(1, n):  # add the displacements down each diagonal
            gram[m, 1:] += gram[m - 1, :-1]
        return (gram + gram.T) / 2.0
    table = sums(periods[:, None], np.arange(-2, 2 * n - 1))  # lags -2 .. 2n - 2
    index = np.arange(n)
    if model.basis == "farey":
        return (w @ table[:, 2 : n + 2])[abs(index[:, None] - index)]
    pairs = periods >= 3
    toeplitz = (w * np.where(pairs, 2.0, 1.0)) @ table[:, 2 : n + 2]
    hankel = (w * pairs) @ (table[:, 2:] + table[:, :-2])
    return toeplitz[abs(index[:, None] - index)] + hankel[index[:, None] + index]
