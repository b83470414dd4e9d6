import math
import tracemalloc
from itertools import accumulate

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from ccpt import transform as t
from ccpt.baselines import build_rpt_matrix
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


def test_real_forward_takes_one_rfft_and_one_irfft(monkeypatch):
    calls = []
    fft_module = dict(vars(np.fft))

    def counted(name):
        def call(a, *args, **kwargs):
            calls.append(name)
            if name in ("fft", "ifft") and not np.iscomplexobj(a):
                raise AssertionError(f"np.fft.{name} on real input")
            return fft_module[name](a, *args, **kwargs)

        return call

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(name))
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 12, 720, 1001):
        m = t.build_ccpt_matrix(n)
        m.condition()
        calls.clear()
        beta = m.forward(rng.standard_normal(n))
        assert calls == ["rfft", "irfft"]
        assert beta.values.dtype == complex and not beta.values.imag.any()
        calls.clear()
        m.forward(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        assert calls == ["fft", "ifft"]


@pytest.mark.parametrize("kind", ["ccpt", "rpt"])
def test_inverse_keeps_the_coefficient_dtype(kind):
    # real coefficients synthesize through the half spectrum, complex ones through the full one
    m = t.build_ccpt_matrix(30) if kind == "ccpt" else build_rpt_matrix(30)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(30)
    beta = m.forward(x)
    assert m.inverse(beta.values.real).dtype == float
    assert m.inverse(beta).dtype == complex
    np.testing.assert_allclose(m.inverse(beta).real, x, rtol=0, atol=1e-12)
    z = x + 1j * rng.standard_normal(30)
    np.testing.assert_allclose(m.inverse(m.forward(z)), z, rtol=0, atol=1e-12)


def _reference_unit_scale(peak: float) -> float:
    return math.ldexp(1.0, -min(max(math.frexp(peak)[1], -1000), 1000))


@pytest.mark.parametrize(
    "peak",
    [2.0**-1074, 1e-300, 0.75, 1.0, 1e300, 2.0**-1001, 2.0**-1002, 2.0**999, 2.0**1000, np.finfo(float).max],
)
def test_unit_scale_is_one_definition_for_scalars_and_arrays(peak):
    # 2^-1001 and 2^999 have the frexp exponents -1000 and 1000, the clip edges; their neighbours are clipped
    scalar = t._unit_scale(np.float64(peak))
    array = t._unit_scale(np.array([peak, peak]))
    assert float(scalar) == _reference_unit_scale(peak)
    assert array.tolist() == [_reference_unit_scale(peak)] * 2
    assert math.isfinite(scalar)


def _loop_significant(profile, threshold):
    peak = float(profile.strengths.max(initial=0.0))
    if peak <= 0.0:
        return ()
    return tuple(int(p) for p, s in zip(profile.periods, profile.strengths) if s >= threshold * peak)


@pytest.mark.parametrize(
    "strengths, threshold",
    [
        ([4.0, 1.0, 0.999999, 1.0000001, 0.0, 4.0], 0.25),  # ties at threshold * peak and at the peak
        ([1.0, 0.05, np.nextafter(0.05, 0.0), 0.3], 0.05),
        ([3.0, 0.3, 0.30000000000000004, 0.0], 0.1),  # 0.1 * 3 rounds up to 0.30000000000000004
        ([0.0, 0.0, 0.0, 0.0], 0.05),
        ([0.0], 1.0),
        ([2.0**-1074, 0.0, 2.0**-1074], 1.0),
    ],
)
def test_significant_equals_the_loop_definition(strengths, threshold):
    periods = tuple(range(1, 2 * len(strengths), 2))
    strengths = np.array(strengths)
    profile = t.PeriodStrengthProfile(periods=periods, strengths=strengths, total=float(strengths.sum()))
    got = profile.significant(threshold)
    assert got == _loop_significant(profile, threshold)
    assert all(type(p) is int for p in got)


def test_significant_matches_the_loop_on_random_profiles():
    rng = np.random.default_rng(2)
    for _ in range(200):
        strengths = rng.choice([0.0, 0.05, 0.25, 1.0], size=12) * rng.choice([1.0, 3.0, 1e-300, 1e300])
        profile = t.PeriodStrengthProfile(tuple(range(1, 13)), strengths, float(strengths.sum()))
        for threshold in (0.05, 0.25, 1.0):
            assert profile.significant(threshold) == _loop_significant(profile, threshold)


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


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 256),
    kind=st.sampled_from(["ccpt", "rpt"]),
    complex_input=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_solve_matches_literal_matrix(n, kind, complex_input, seed):
    # the per-block DFT solve against a dense solve on the literal roll-and-tile matrix
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    if complex_input:
        x = x + 1j * rng.standard_normal(n)
    m = {"ccpt": t.build_ccpt_matrix, "rpt": build_rpt_matrix}[kind](n)
    literal = np.hstack([basis_oracle.block(kind, n, p)[1] for p in divisors(n)])
    beta = m.forward(x).values
    expected = np.linalg.solve(literal, x)
    assert np.linalg.norm(beta - expected) <= 1e-11 * np.linalg.norm(expected)
    assert np.linalg.norm(m.inverse(beta) - x) <= 1e-12 * np.linalg.norm(x)
    if not complex_input:
        assert not beta.imag.any()
    assert m.condition() == pytest.approx(np.linalg.cond(literal), rel=1e-8)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("build", [t.build_ccpt_matrix, build_rpt_matrix])
def test_forward_residual_check_fails_closed(build, monkeypatch):
    # the residual is taken on x / max|x|: huge samples are checked, non-finite ones refused
    m = build(4)
    x = np.array([1e200, -1e200, 3e199, -1e200])
    beta = m.forward(x).values
    assert np.isfinite(beta).all()
    assert np.linalg.norm(m.inverse(beta) / 1e200 - x / 1e200) <= 1e-12 * np.linalg.norm(x / 1e200)
    for sample in (np.nan, np.inf, -np.inf, complex(np.nan, 1.0), complex(1.0, np.inf)):
        with pytest.raises(NumericalError):
            m.forward(np.array([sample, 1.0, 1.0, 1.0]))
    monkeypatch.setattr(t, "RESIDUAL_TOL", -1.0)  # no residual passes: the check must run
    with pytest.raises(NumericalError):
        m.forward(x)


def test_pair_table_matches_blocks():
    # the closed-form CCPT layout against the one assembled from basis_block, and its matrix
    for n in [*range(1, 257), 2520]:
        m = t.build_ccpt_matrix(n)
        blocks = [t.basis_block(n, p) for p in divisors(n)]
        labels = tuple((blk.period, k, l) for blk in blocks for k, l in blk.labels)
        starts = list(accumulate((blk.width for blk in blocks), initial=0))
        assert starts[-1] == n, n
        spans = {blk.period: slice(a, z) for blk, a, z in zip(blocks, starts, starts[1:])}
        assert m.labels == labels, n
        assert m.spans == spans, n
        assert m.divisors == tuple(spans) == divisors(n), n
        assert all(m.column_index(*lab) == i for i, lab in enumerate(labels)), n
        literal = np.hstack([basis_oracle.block("ccpt", n, p)[1] for p in divisors(n)])
        assert np.array_equal(m.matrix, literal), n


def test_ccpt_transform_needs_no_block_tables():
    # at N = 4096 the per-block tables alone take about 90 MB; checked first so that a
    # regression fails here instead of building the tables of N = 2^16
    rng = np.random.default_rng(11)
    x = rng.standard_normal(4096)
    tracemalloc.start()
    try:
        t.build_ccpt_matrix(4096).forward(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    n = 1 << 16
    m = t.build_ccpt_matrix(n)
    x = rng.standard_normal(n)
    beta = m.forward(x).values
    assert not beta.imag.any()
    assert np.linalg.norm(m.inverse(beta) - x) <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 100, 129, 400])
def test_cho_solve_matches_scipy(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    spd = a @ a.T + n * np.eye(n)
    factor, oracle = t._cho_factor(spd), scipy.linalg.cho_factor(spd)
    assert np.array_equal(factor[0], np.tril(factor[0]))
    assert np.allclose(factor[0] @ factor[0].T, spd, rtol=0, atol=1e-12 * n * n)
    rhs = rng.standard_normal((n, 3))
    for b in (rhs[:, 0], rhs[:, 1:], rhs[:, 0] + 1j * rhs[:, 1], rhs[:, :2] + 1j * rhs[:, 1:]):
        kept = b.copy()
        got, want = t._cho_solve(factor, b), scipy.linalg.cho_solve(oracle, b)
        assert got.shape == b.shape and np.iscomplexobj(got) == np.iscomplexobj(b)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert np.array_equal(b, kept)


def test_cho_solve_forward_error_tracks_scipy_at_condition_1e9():
    rng = np.random.default_rng(9)
    n = 150
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    spd = (q * np.logspace(0, -9, n)) @ q.T
    spd = (spd + spd.T) / 2
    assert np.linalg.cond(spd) == pytest.approx(1e9, rel=0.01)
    truth = rng.standard_normal((n, 2))
    b = spd @ truth
    error = lambda y: np.linalg.norm(y - truth) / np.linalg.norm(truth)
    ours = error(t._cho_solve(t._cho_factor(spd), b))
    theirs = error(scipy.linalg.cho_solve(scipy.linalg.cho_factor(spd), b))
    assert ours <= 4 * theirs
    assert ours < 1e-6


def test_cho_factor_refuses_a_matrix_that_is_not_positive_definite():
    with pytest.raises(np.linalg.LinAlgError):
        t._cho_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))
