import numpy as np
import pytest

from ccpt import transform as t
from ccpt.ccps import ccps
from ccpt.errors import NoPeriodicContent, NumericalError
from ccpt.numtheory import divisors, totient
from ccpt.signalgen import gen_tiled_ccps, gen_y1

import basis_oracle


def test_basis_block_examples():
    b = t.basis_block(5, 1)
    assert b.matrix.shape == (5, 1)
    assert np.allclose(b.matrix[:, 0], 1.0)

    b = t.basis_block(72, 9)
    assert b.matrix.shape == (72, 6)
    assert b.labels == ((1, 0), (1, 1), (2, 0), (2, 1), (4, 0), (4, 1))

    b = t.basis_block(6, 2)
    assert np.allclose(b.matrix[:, 0], [1, -1, 1, -1, 1, -1])


def test_basis_block_requires_divisor():
    with pytest.raises(ValueError):
        t.basis_block(10, 3)


def test_basis_block_columns_are_shifted_tilings():
    # every block for N <= 64 equals the literal roll-and-tile construction
    for n in range(1, 65):
        for p in divisors(n):
            b = t.basis_block(n, p)
            labels, matrix = basis_oracle.block("ccpt", n, p)
            assert b.labels == labels, (n, p)
            assert np.array_equal(b.matrix, matrix), (n, p)


def test_build_matrix_small_layout():
    m = t.build_ccpt_matrix(5)
    assert m.labels == ((1, 1, 0), (5, 1, 0), (5, 1, 1), (5, 2, 0), (5, 2, 1))
    s1 = ccps(5, 1).samples
    s2 = ccps(5, 2).samples
    expected = np.column_stack([np.ones(5), s1, np.roll(s1, 1), s2, np.roll(s2, 1)])
    assert np.abs(m.matrix - expected).max() < 1e-12


def test_build_matrix_block_boundaries():
    m = t.build_ccpt_matrix(72)
    widths = np.cumsum([totient(d) for d in divisors(72)])
    assert list(widths) == [1, 2, 4, 6, 8, 12, 18, 22, 28, 36, 48, 72]
    assert m.block_span(9) == slice(12, 18)
    assert m.block_span(36) == slice(36, 48)
    assert t.build_ccpt_matrix(1).matrix.tolist() == [[1.0]]


def test_forward_reproduces_basis_columns():
    m = t.build_ccpt_matrix(5)
    beta = m.forward(gen_tiled_ccps(5, 1, 5))
    expected = np.zeros(5)
    expected[m.column_index(5, 1, 0)] = 1.0
    assert np.allclose(beta.values, expected, atol=1e-12)

    m6 = t.build_ccpt_matrix(6)
    beta = m6.forward(np.ones(6))
    expected = np.zeros(6)
    expected[m6.column_index(1, 1, 0)] = 1.0
    assert np.allclose(beta.values, expected, atol=1e-12)


def test_forward_concentrates_mixed_periodic_input():
    m = t.build_ccpt_matrix(72)
    beta = m.forward(gen_y1())
    energy = np.abs(beta.values) ** 2
    inside = energy[m.block_span(9)].sum() + energy[m.block_span(36)].sum()
    assert inside / energy.sum() > 0.999
    s36 = beta.block(36)
    assert np.abs(s36[:4]).min() > 1e-3
    assert np.abs(s36[4:]).max() < 1e-9


def test_forward_rejects_bad_length():
    m = t.build_ccpt_matrix(6)
    with pytest.raises(ValueError):
        m.forward(np.ones(7))
    with pytest.raises(ValueError):
        m.inverse(np.ones(7))


def test_inverse_examples():
    m = t.build_ccpt_matrix(5)
    assert np.allclose(m.inverse(np.zeros(5)), np.zeros(5))
    e = np.zeros(5)
    e[m.column_index(1, 1, 0)] = 1.0
    assert np.allclose(m.inverse(e), np.ones(5))


def test_round_trip_random_signals():
    rng = np.random.default_rng(5)
    for n in (1, 2, 5, 36, 97, 100):
        m = t.build_ccpt_matrix(n)
        for complex_input in (False, True):
            x = rng.standard_normal(n)
            if complex_input:
                x = x + 1j * rng.standard_normal(n)
            back = m.inverse(m.forward(x))
            assert np.linalg.norm(back - x) / np.linalg.norm(x) < 1e-9


def test_forward_is_linear():
    rng = np.random.default_rng(6)
    m = t.build_ccpt_matrix(36)
    x, y = rng.standard_normal(36), rng.standard_normal(36)
    a, b = 2.5, -1.25
    lhs = m.forward(a * x + b * y).values
    rhs = a * m.forward(x).values + b * m.forward(y).values
    assert np.abs(lhs - rhs).max() < 1e-9


def test_real_input_gives_real_coefficients():
    rng = np.random.default_rng(7)
    m = t.build_ccpt_matrix(24)
    beta = m.forward(rng.standard_normal(24))
    assert np.abs(beta.values.imag).max() < 1e-9


def test_invertibility_across_lengths():
    # every length up to 128 plus a few larger ones: finite condition and
    # identity round trip
    rng = np.random.default_rng(8)
    lengths = list(range(1, 129)) + [150, 180, 210, 240, 256]
    for n in lengths:
        m = t.build_ccpt_matrix(n)
        x = rng.standard_normal(n)
        err = np.linalg.norm(m.inverse(m.forward(x)) - x) / np.linalg.norm(x)
        assert err < 1e-9, n
    assert np.isfinite(t.build_ccpt_matrix(256).condition())


def test_cross_block_orthogonality_all_lengths_to_100():
    for n in range(1, 101):
        m = t.build_ccpt_matrix(n)
        gram = m.matrix.T @ m.matrix
        for p in m.divisors:
            sp = m.block_span(p)
            for q in m.divisors:
                if q > p:
                    assert np.abs(gram[sp, m.block_span(q)]).max() < 1e-9, (n, p, q)


def test_blocks_have_full_rank():
    for n in (6, 30, 100):
        m = t.build_ccpt_matrix(n)
        for p in m.divisors:
            rp = m.matrix[:, m.block_span(p)]
            assert np.linalg.matrix_rank(rp) == totient(p)


def test_within_block_gram_not_diagonal():
    # the synthesis matrix is not orthogonal: a shifted column overlaps its
    # parent whenever cos(2*pi*k/p) != 0, i.e. for every n >= 3 except n = 4
    # whose only two-column block has p = 4k
    for n in (3, 5, 6, 8, 9, 12, 36):
        m = t.build_ccpt_matrix(n)
        gram = m.matrix.T @ m.matrix
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() > 1e-6, n
    gram4 = t.build_ccpt_matrix(4).matrix.T @ t.build_ccpt_matrix(4).matrix
    assert np.abs(gram4 - np.diag(np.diag(gram4))).max() < 1e-12


def test_divisor_strengths_examples():
    m = t.build_ccpt_matrix(72)
    beta = m.forward(gen_tiled_ccps(9, 2, 72))
    prof = t.divisor_strengths(beta, m)
    d = prof.as_dict()
    assert d[9] / prof.total > 1 - 1e-12
    assert prof.total == pytest.approx(beta.energy())

    beta1 = m.forward(gen_y1())
    prof1 = t.divisor_strengths(beta1, m)
    assert set(prof1.significant(0.05)) == {9, 36}


def test_non_divisor_periodic_input_leaks_into_every_block():
    # period 35 does not divide 100, so no block is exactly zero: contrast
    # with the divisor-periodic case where off-period blocks vanish
    from ccpt.signalgen import gen_y2

    m = t.build_ccpt_matrix(100)
    for seed in (0, 1, 2):
        prof = t.divisor_strengths(m.forward(gen_y2(seed)), m)
        assert prof.strengths.min() > 1e-12 * prof.strengths.max()


def test_strengths_sum_to_coefficient_energy():
    rng = np.random.default_rng(9)
    m = t.build_ccpt_matrix(60)
    beta = m.forward(rng.standard_normal(60) + 1j * rng.standard_normal(60))
    prof = t.divisor_strengths(beta, m)
    assert prof.total == pytest.approx(beta.energy(), rel=1e-12)
    assert np.all(prof.strengths >= 0)


def test_frequency_labels():
    m = t.build_ccpt_matrix(72)
    labels = t.frequency_labels(m, frame=360.0)
    assert labels[m.column_index(36, 1, 0)] == pytest.approx(10.0)
    assert labels[m.column_index(36, 5, 0)] == pytest.approx(50.0)
    assert labels[m.column_index(9, 2, 1)] == pytest.approx(80.0)
    assert labels[m.column_index(1, 1, 0)] == pytest.approx(0.0)
    # default frame: cycles per N samples
    default = t.frequency_labels(m)
    assert default[m.column_index(36, 1, 0)] == pytest.approx(2.0)


def test_estimate_period():
    m = t.build_ccpt_matrix(72)
    prof = t.divisor_strengths(m.forward(gen_y1()), m)
    assert t.estimate_period(prof) == 36

    single = t.PeriodStrengthProfile(periods=(7,), strengths=np.array([3.0]), total=3.0)
    assert t.estimate_period(single) == 7

    empty = t.divisor_strengths(m.forward(np.zeros(72)), m)
    with pytest.raises(NoPeriodicContent):
        t.estimate_period(empty)


def test_condition_gate(monkeypatch):
    m = t.build_ccpt_matrix(8)
    monkeypatch.setattr(m, "_cond", 1e13)
    with pytest.raises(NumericalError):
        m.forward(np.ones(8))
