import math

import numpy as np
import pytest

from ccpt import baselines as b
from ccpt import transform as t
from ccpt.numtheory import divisors, period_partition, totient
from ccpt.signalgen import gen_y1

import basis_oracle


def mobius(n):
    if n == 1:
        return 1
    primes = set()
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            primes.add(p)
        p += 1
    if m > 1:
        primes.add(m)
    return -1 if len(primes) % 2 else 1


def ramanujan_closed_form(q, n):
    # multiplicative closed form, used only as a cross-check oracle
    g = math.gcd(n, q)
    return mobius(q // g) * totient(q) // totient(q // g)


def test_ramanujan_sum_examples():
    assert b.ramanujan_sum(1).samples.tolist() == [1]
    assert b.ramanujan_sum(2).samples.tolist() == [1, -1]
    assert b.ramanujan_sum(5).samples.tolist() == [4, -1, -1, -1, -1]


def test_ramanujan_sum_matches_closed_form():
    for q in range(1, 60):
        rs = b.ramanujan_sum(q)
        assert rs.samples[0] == totient(q)
        for n in range(q):
            assert rs.samples[n] == ramanujan_closed_form(q, n), (q, n)


def test_rpt_matrix_small():
    m = b.build_rpt_matrix(2)
    assert np.allclose(m.matrix, [[1, 1], [1, -1]])

    m5 = b.build_rpt_matrix(5)
    assert m5.labels[0] == (1, None, 0)
    c5 = b.ramanujan_sum(5).samples.astype(float)
    for l in range(4):
        assert np.allclose(m5.matrix[:, 1 + l], np.roll(c5, l))


def test_ramanujan_block_columns_are_shifted_tilings():
    for n in range(1, 65):
        for p in divisors(n):
            block = b.ramanujan_block(n, p)
            labels, matrix = basis_oracle.block("rpt", n, p)
            assert block.labels == labels, (n, p)
            assert np.array_equal(block.matrix, matrix), (n, p)
    with pytest.raises(ValueError):
        b.ramanujan_block(10, 3)


def test_rpt_block_orthogonality_and_inversion():
    for n in (12, 72, 128):
        m = b.build_rpt_matrix(n)
        for p in m.divisors:
            rp = m.matrix[:, m.block_span(p)]
            for q in m.divisors:
                if q > p:
                    rq = m.matrix[:, m.block_span(q)]
                    assert np.abs(rp.T @ rq).max() < 1e-9
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        assert np.linalg.norm(m.inverse(m.forward(x)) - x) / np.linalg.norm(x) < 1e-9


def test_rpt_forward_examples():
    m = b.build_rpt_matrix(6)
    beta = m.forward(np.ones(6))
    expected = np.zeros(6)
    expected[0] = 1.0
    assert np.allclose(beta.values, expected, atol=1e-12)

    m10 = b.build_rpt_matrix(10)
    x = np.tile(b.ramanujan_sum(5).samples.astype(float), 2)
    beta = m10.forward(x)
    expected = np.zeros(10)
    expected[m10.column_index(5, None, 0)] = 1.0
    assert np.allclose(beta.values, expected, atol=1e-12)


def test_rpt_spreads_single_frequency_content():
    m = b.build_rpt_matrix(72)
    beta = m.forward(gen_y1())
    s36 = np.abs(beta.block(36))
    assert s36.min() > 1e-6 * np.abs(beta.values).max()
    assert len(s36) == 12


def test_dft_examples():
    x = np.exp(2j * np.pi * np.arange(8) / 8)
    spec = b.dft(x)
    expected = np.zeros(8, dtype=complex)
    expected[1] = 8.0
    assert np.abs(spec - expected).max() < 1e-10

    assert np.abs(b.dft(np.ones(4)) - np.array([4, 0, 0, 0])).max() < 1e-12


def test_dft_matches_direct_sum():
    rng = np.random.default_rng(0)
    for n in (*range(1, 130), 397, 400, 720):
        for x in (rng.standard_normal(n), rng.standard_normal(n) + 1j * rng.standard_normal(n)):
            expected = basis_oracle.dft(x)
            assert np.abs(b.dft(x) - expected).max() <= 1e-12 * np.abs(expected).max(), n
            back = basis_oracle.idft(expected)
            assert np.abs(b.idft(expected) - back).max() <= 1e-12 * np.abs(back).max(), n


def test_dft_inverse_and_parseval():
    rng = np.random.default_rng(64)
    x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    spec = b.dft(x)
    assert np.abs(b.idft(spec) - x).max() < 1e-9
    assert np.sum(np.abs(x) ** 2) == pytest.approx(np.sum(np.abs(spec) ** 2) / 64, rel=1e-9)


def test_dft_conjugate_symmetry_for_real_input():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(12)
    spec = b.dft(x)
    for k in range(1, 12):
        assert spec[k] == pytest.approx(np.conj(spec[12 - k]), abs=1e-9)
    m = t.build_ccpt_matrix(12)
    assert np.abs(m.forward(x).values.imag).max() < 1e-9


def test_dft_divisor_strengths():
    x = np.exp(2j * np.pi * np.arange(8) / 8)
    prof = b.dft_divisor_strengths(b.dft(x))
    d = prof.as_dict()
    assert d[8] == pytest.approx(64.0)
    assert sum(v for p, v in d.items() if p != 8) < 1e-9

    dc = b.dft_divisor_strengths(b.dft(np.ones(6)))
    assert dc.as_dict()[1] == pytest.approx(36.0)
    assert dc.significant() == (1,)

    prof_y1 = b.dft_divisor_strengths(b.dft(gen_y1()))
    assert set(prof_y1.significant(0.05)) == {9, 36}


def test_dft_strengths_total():
    rng = np.random.default_rng(17)
    x = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    spec = b.dft(x)
    prof = b.dft_divisor_strengths(spec)
    assert prof.total == pytest.approx(float(np.sum(np.abs(spec) ** 2)), rel=1e-12)
    assert prof.periods == divisors(30)


def test_dft_divisor_strengths_are_partition_cell_sums():
    rng = np.random.default_rng(2)
    for n in range(1, 257):
        spectrum = b.dft(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        prof = b.dft_divisor_strengths(spectrum)
        cells = period_partition(n)
        assert prof.periods == divisors(n)
        expected = [np.sum(np.abs(spectrum[sorted(cells[d])]) ** 2) for d in prof.periods]
        assert np.allclose(prof.strengths, expected, rtol=1e-13, atol=0), n


def test_complexity_single_transforms():
    assert b.complexity_estimate("ccpt", 100).multiplications == 20000
    assert b.complexity_estimate("dft", 100).multiplications == 40000
    assert b.complexity_estimate("rpt", 100).multiplications == 20000
    assert b.complexity_estimate("dft", 100).unit == "real"


def test_complexity_scan():
    report = b.complexity_estimate("scan-ccpt", 100, 70)
    assert report.multiplications == 452910
    assert report.unit == "real"
    assert b.complexity_estimate("scan-dft", 100, 70).unit == "complex"
    assert b.complexity_estimate("scan-rpt", 100, 70).multiplications == 452910
    # closed form equals the sum of per-length costs
    for n1, n in ((3, 10), (70, 100), (5, 5)):
        expected = 2 * sum(m * m for m in range(n1, n + 1))
        assert b.complexity_estimate("scan-ccpt", n, n1).multiplications == expected


def test_complexity_dictionary_rows():
    ccpt_row = b.complexity_estimate("dict-ccpt", 100)
    farey_row = b.complexity_estimate("dict-farey", 100)
    rpt_row = b.complexity_estimate("dict-rpt", 100)
    assert ccpt_row.multiplications is None and ccpt_row.l_multiplier == 1
    assert farey_row.l_multiplier == 2 and farey_row.formula == "2L"
    assert rpt_row.l_multiplier == 1 and rpt_row.formula == "L"


def test_complexity_errors():
    with pytest.raises(ValueError):
        b.complexity_estimate("fft", 100)
    with pytest.raises(ValueError):
        b.complexity_estimate("scan-ccpt", 100)
    with pytest.raises(ValueError):
        b.complexity_estimate("scan-ccpt", 100, 101)
