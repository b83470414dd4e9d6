import math
import tracemalloc

import numpy as np
import pytest

from ccpt import baselines as b
from ccpt import transform as t
from ccpt.errors import NumericalError
from ccpt.numtheory import divisors, totient
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


def test_rpt_solve_sweep_matches_literal_matrix():
    # every length up to 129, real and complex, against a dense solve on the literal matrix
    rng = np.random.default_rng(129)
    for n in range(1, 130):
        literal = np.hstack([basis_oracle.block("rpt", n, p)[1] for p in divisors(n)])
        m = b.build_rpt_matrix(n)
        for x in (rng.standard_normal(n), rng.standard_normal(n) + 1j * rng.standard_normal(n)):
            expected = np.linalg.solve(literal, x)
            assert np.linalg.norm(m.forward(x).values - expected) <= 1e-12 * np.linalg.norm(expected), n
        assert m.condition() == pytest.approx(np.linalg.cond(literal), rel=1e-8), n


def _reduction(p):
    """Which reductions block p takes: its square part, an even radical, and the kind of core."""
    primes = [q for q in range(2, p + 1) if p % q == 0 and all(q % r for r in range(2, q))]
    odd = [q for q in primes if q != 2]
    core = "one" if not odd else "prime" if len(odd) == 1 else "composite"
    return p > math.prod(primes), p % 2 == 0, core


def test_rpt_block_reductions_match_dense_toeplitz_solves():
    # block p's remainder h mod Phi_p, h = ifft(F_p) with F_p zero off the bins coprime to p, against
    # the normal equations T_p beta = (p h)[:phi(p)], T_p[l, l'] = c_p(l - l'), solved densely for
    # every block of every N <= 200
    rng = np.random.default_rng(200)
    seen = set()
    for n in range(1, 201):
        m = b.build_rpt_matrix(n)
        for p, s, core, flip, primitive in m._plan:
            h = np.fft.ifft((rng.standard_normal(p) + 1j * rng.standard_normal(p)) * primitive)
            c = b.ramanujan_sum(p).samples
            lags = np.arange(totient(p))
            dense = c[(lags[:, None] - lags) % p].astype(float)
            for part in (np.real, np.imag, lambda v: v):
                beta = m._block_solve(part(h), s, core, flip)
                expected = np.linalg.solve(dense, p * part(h)[: totient(p)])
                assert np.linalg.norm(beta - expected) <= 1e-11 * np.linalg.norm(expected), (n, p)
            seen.add(_reduction(p))
    squared, even, cores = zip(*seen)
    assert {True, False} <= set(squared) and {True, False} <= set(even)
    assert set(cores) == {"one", "prime", "composite"}


def test_rpt_condition_takes_the_smaller_side_of_each_core():
    # W W^H = m I - V V^H: the ends of eig(T_phi) from the (m - phi)-wide Toeplitz when that is smaller
    eps = np.finfo(float).eps
    cores = [m for m in range(15, 200, 2) if mobius(m) and totient(m) < m - 1]
    complement = []
    for m in [*cores, 255, 385, 391, 1001, 1155]:
        phi = totient(m)
        low, high = b.build_rpt_matrix(m)._singular_values()[-2:] ** 2 / m  # block p = m, s = 1
        c = b.ramanujan_sum(m).samples
        lags = np.arange(phi)
        full = np.linalg.eigvalsh(c[np.abs(lags[:, None] - lags)].astype(float))
        assert abs(low - full[0]) <= 100 * m * eps, m
        assert abs(high - full[-1]) <= 100 * m * eps, m
        complement.append(2 * phi > m)
    assert any(complement) and not all(complement)  # 391 and 1001 on one side, 105 and 1155 on the other


def test_rpt_sweep_calls_no_cholesky(monkeypatch):
    def never(*args):
        pytest.fail("the RPT transform factored a matrix")

    monkeypatch.setattr(np.linalg, "cholesky", never)
    rng = np.random.default_rng(210)
    for n in [*range(1, 211), 1155, 9240]:  # composite cores from 15 on
        m = b.build_rpt_matrix(n)
        for x in (rng.standard_normal(n), rng.standard_normal(n) + 1j * rng.standard_normal(n)):
            assert np.linalg.norm(m.inverse(m.forward(x)) - x) <= 1e-12 * np.linalg.norm(x), n


def test_rpt_length_8383_solves_on_the_narrow_side_of_its_core(monkeypatch):
    # 8383 = 83 x 101: its core would be 8200 wide (513 MiB), its complement is 183 wide
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(a):
        sizes.append(len(a))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    x = np.random.default_rng(8383).standard_normal(8383)
    tracemalloc.start()
    try:
        m = b.build_rpt_matrix(8383)
        beta = m.forward(x).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes == [183]
    assert peak < 8 * 2**20  # one 8200 x 8200 float64 matrix is 513 MiB
    assert np.linalg.norm(m.inverse(beta) - x) <= 1e-12 * np.linalg.norm(x)


def test_rpt_transform_needs_no_block_tables(monkeypatch):
    # the dense path held block p's p x phi(p) table and its FFT: 440 MB of peak RSS at N = 4096
    def never(*args):
        pytest.fail("the RPT transform built a block table")

    monkeypatch.setattr(b, "ramanujan_block", never)
    monkeypatch.setattr(b, "_shifted_tilings", never)
    monkeypatch.setattr(t, "_shifted_tilings", never)
    rng = np.random.default_rng(12)
    x = rng.standard_normal(4096)
    tracemalloc.start()
    try:
        b.build_rpt_matrix(4096).forward(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    for n in (8192, 9240, 1 << 16):  # 9240 = 8 * 3 * 5 * 7 * 11 factors the 480-wide core 1155
        m = b.build_rpt_matrix(n)
        x = rng.standard_normal(n)
        beta = m.forward(x).values
        assert not beta.imag.any()
        assert np.linalg.norm(m.inverse(beta) - x) <= 1e-12 * np.linalg.norm(x)


def test_rpt_refuses_a_core_above_the_cap_before_building_it(monkeypatch):
    def never(*args):
        pytest.fail("a refused core was built")

    # a 47-wide core fits the lowered cap: 35 (phi 24) passes, 105 (phi 48) is refused
    monkeypatch.setattr(b, "MAX_BASIS_BYTES", 47 * 47 * 8)
    assert b.build_rpt_matrix(70).forward(np.ones(70)).values[0] == pytest.approx(1.0)
    monkeypatch.setattr(b, "_ramanujan_sums", never)
    monkeypatch.setattr(np.linalg, "cholesky", never)
    m = b.build_rpt_matrix(210)
    message = (
        r"^RPT block p=105 of N=210 reduces to a 48x48 Ramanujan-sum core \(r=105, 0\.0 MiB\); "
        r"the cap is 0 MiB$"
    )
    with pytest.raises(NumericalError, match=message):
        m.forward(np.ones(210))
    with pytest.raises(NumericalError, match=message):
        m.condition()


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
        cells = basis_oracle.period_partition(n)
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
