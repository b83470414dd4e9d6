import math

import pytest

from ccpt import numtheory

import basis_oracle


def gcd_brute(a, b):
    return max(d for d in range(1, min(a, b) + 1) if a % d == 0 and b % d == 0)


def totient_brute(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_gcd_examples():
    assert numtheory.gcd(5, 5) == 5
    assert numtheory.gcd(8, 12) == 4 == gcd_brute(8, 12)
    assert numtheory.gcd(7, 100) == 1 == gcd_brute(7, 100)


def test_gcd_rejects_nonpositive():
    with pytest.raises(ValueError):
        numtheory.gcd(0, 3)
    with pytest.raises(ValueError):
        numtheory.gcd(3, -1)


def test_lcm_examples():
    assert numtheory.lcm([9, 36]) == 36
    assert numtheory.lcm([1, 5, 7]) == 35
    assert numtheory.lcm([1]) == 1


def test_lcm_empty_is_an_error():
    with pytest.raises(ValueError):
        numtheory.lcm([])


def test_lcm_is_smallest_common_multiple():
    for values in ([4, 6], [2, 3, 5], [12, 18, 30], [7, 7, 7]):
        m = numtheory.lcm(values)
        assert all(m % v == 0 for v in values)
        for smaller in range(1, m):
            assert any(smaller % v != 0 for v in values)


def test_totient_examples():
    assert numtheory.totient(1) == 1
    assert numtheory.totient(36) == 12
    assert numtheory.totient(9) == 6


def test_totient_matches_brute_force():
    for n in range(1, 200):
        assert numtheory.totient(n) == totient_brute(n)


def test_divisor_set_examples():
    assert numtheory.divisor_set(5).divisors == (1, 5)
    assert numtheory.divisor_set(72).divisors == (1, 2, 3, 4, 6, 8, 9, 12, 18, 24, 36, 72)
    assert numtheory.divisor_set(1).divisors == (1,)


def test_divisor_totient_sum_identity():
    for n in range(1, 513):
        ds = numtheory.divisor_set(n)
        assert ds.divisors[0] == 1 and ds.divisors[-1] == n
        assert list(ds.divisors) == sorted(set(ds.divisors))
        assert all(n % d == 0 for d in ds)
        assert sum(numtheory.totient(d) for d in ds) == n


def test_coprime_half_set_examples():
    assert numtheory.coprime_half_set(5).residues == (1, 2)
    assert numtheory.coprime_half_set(36).residues == (1, 5, 7, 11, 13, 17)
    assert numtheory.coprime_half_set(2).residues == (1,)
    assert numtheory.coprime_half_set(1).residues == (1,)


def test_coprime_half_set_size_is_half_totient():
    for n in range(3, 513):
        chs = numtheory.coprime_half_set(n)
        phi = numtheory.totient(n)
        assert phi % 2 == 0
        assert len(chs) == phi // 2
        assert all(1 <= a <= n // 2 and math.gcd(a, n) == 1 for a in chs)


def test_period_partition_examples():
    assert basis_oracle.period_partition(6) == {
        1: frozenset({0}),
        2: frozenset({3}),
        3: frozenset({2, 4}),
        6: frozenset({1, 5}),
    }
    assert basis_oracle.period_partition(1) == {1: frozenset({0})}
    assert basis_oracle.period_partition(5) == {1: frozenset({0}), 5: frozenset({1, 2, 3, 4})}


def test_period_partition_is_a_partition_with_totient_cells():
    for n in (1, 2, 12, 36, 97, 100, 360):
        cells = basis_oracle.period_partition(n)
        union = set()
        for d, ks in cells.items():
            assert len(ks) == numtheory.totient(d)
            assert not (union & ks)
            union |= ks
        assert union == set(range(n))


def test_cap_is_enforced():
    with pytest.raises(ValueError):
        numtheory.divisor_set(numtheory.MAX_N + 1)
