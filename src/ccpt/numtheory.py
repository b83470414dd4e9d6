"""Exact integer arithmetic used by every basis construction.

All functions are pure and operate on plain Python integers, except the
private sieve and Ramanujan-sum table, which fill exact int64 arrays for
whole ranges of periods and lags at once. Inputs are capped at MAX_N so
derived quantities (lcm of divisor sets, totient sums) stay far inside
exact integer range at the scales the transforms run at.
"""

import math
from dataclasses import dataclass

import numpy as np

MAX_N = 1 << 16


def _check_positive(n: int, name: str = "n") -> int:
    n = int(n)
    if n < 1:
        raise ValueError(f"{name} must be a positive integer, got {n}")
    if n > MAX_N:
        raise ValueError(f"{name}={n} exceeds the supported cap {MAX_N}")
    return n


def gcd(a: int, b: int) -> int:
    """Greatest common divisor of two positive integers."""
    a = _check_positive(a, "a")
    b = _check_positive(b, "b")
    return math.gcd(a, b)


def lcm(values) -> int:
    """Least common multiple of a nonempty collection of positive integers."""
    values = [_check_positive(v, "period") for v in values]
    if not values:
        raise ValueError("empty period set: lcm needs at least one period")
    return math.lcm(*values)


def totient(n: int) -> int:
    """Euler's totient: count of 1 <= k <= n coprime to n.

    Computed from the trial-division factorization of n, exact in integers.
    """
    n = _check_positive(n)
    phi = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            phi = phi // p * (p - 1)
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        phi = phi // m * (m - 1)
    return phi


def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n in ascending order."""
    n = _check_positive(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


@dataclass(frozen=True)
class DivisorSet:
    """Ascending divisors of n; totients over the set sum to n."""

    n: int
    divisors: tuple[int, ...]

    def __iter__(self):
        return iter(self.divisors)

    def __len__(self):
        return len(self.divisors)


def divisor_set(n: int) -> DivisorSet:
    return DivisorSet(n=_check_positive(n), divisors=divisors(n))


@dataclass(frozen=True)
class CoprimeHalfSet:
    """Indices k in [1, n/2] coprime to n; {1} for n in {1, 2}.

    Each k names one conjugate pair of exponentials of exact period n,
    so the set has totient(n)/2 elements for n >= 3.
    """

    n: int
    residues: tuple[int, ...]

    def __iter__(self):
        return iter(self.residues)

    def __len__(self):
        return len(self.residues)

    def __contains__(self, k):
        return k in self.residues


def coprime_half_set(n: int) -> CoprimeHalfSet:
    n = _check_positive(n)
    if n <= 2:
        return CoprimeHalfSet(n=n, residues=(1,))
    residues = tuple(a for a in range(1, n // 2 + 1) if math.gcd(a, n) == 1)
    return CoprimeHalfSet(n=n, residues=residues)


def _totients_and_mobius(n: int) -> tuple[np.ndarray, np.ndarray]:
    """phi(0..n) and mu(0..n) as int64 arrays from one sieve over the primes <= n.

    Entry 0 of each is 0; only the entries 1..n are meaningful.
    """
    phi = np.arange(n + 1, dtype=np.int64)
    mu = np.ones(n + 1, dtype=np.int64)
    mu[0] = 0
    prime = np.ones(n + 1, dtype=bool)
    prime[:2] = False
    for q in range(2, math.isqrt(n) + 1):
        if prime[q]:
            prime[q * q :: q] = False
    for q in np.flatnonzero(prime).tolist():
        phi[q::q] -= phi[q::q] // q
        mu[q::q] = -mu[q::q]
        mu[q * q :: q * q] = 0
    return phi, mu


def _ramanujan_sums(p, d, phi: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Ramanujan sums c_p(d) for integer arrays p >= 1 and d that broadcast; exact int64.

    Von Sterneck's formula c_p(d) = mu(p/g) phi(p) / phi(p/g), g = gcd(p, d),
    with phi and mu from _totients_and_mobius covering every p.
    """
    p = np.asarray(p)
    q = p // np.gcd(p, d)
    return mu[q] * (phi[p] // phi[q])
