import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from ccpt import estimation as e
from ccpt import transform as t
from ccpt.errors import NumericalError
from ccpt.numtheory import totient
from ccpt.signalgen import gen_tiled_ccps, gen_y2

import basis_oracle


def test_range_scan_validates_start():
    with pytest.raises(ValueError):
        e.range_scan(np.ones(10), 2)
    with pytest.raises(ValueError):
        e.range_scan(np.ones(10), 11)


def test_range_scan_shape_and_divisors():
    x = gen_y2(0)
    res = e.range_scan(x, 90)
    assert len(res.records) == 11
    for rec in res.records:
        assert all(rec.length % p == 0 for p in rec.profile.periods)
        assert all(p in rec.profile.periods for p in rec.detected)


def test_range_scan_tiled_input_dominates_at_multiples():
    x = gen_tiled_ccps(5, 1, 100)
    res = e.range_scan(x, 70)
    for rec in res.records:
        if rec.length % 5 == 0:
            d = rec.profile.as_dict()
            assert max(d, key=d.get) == 5


def test_range_scan_degenerate_equals_full_length_profile():
    x = gen_y2(4)
    res = e.range_scan(x, 100)
    assert len(res.records) == 1
    m = t.build_ccpt_matrix(100)
    full = t.divisor_strengths(m.forward(x), m)
    assert np.allclose(res.records[0].profile.strengths, full.strengths, rtol=1e-12)
    assert res.records[0].detected == full.significant()


def test_range_scan_reports_subspace_overlap():
    res = e.range_scan(gen_y2(0), 95)
    # p=1 is a divisor of every length, so it is recomputed at every step
    assert res.subspace_visits[1] == 6
    assert res.duplicated_projections >= 5
    assert res.subspace_visits[100] == 1


def test_range_scan_jobs_match_serial():
    x = gen_y2(1)
    serial = e.range_scan(x, 88)
    threaded = e.range_scan(x, 88, jobs=4)
    for a, b in zip(serial.records, threaded.records):
        assert a.length == b.length
        assert np.allclose(a.profile.strengths, b.profile.strengths)


def _per_length_profile(x, length):
    matrix = t.build_ccpt_matrix(length)
    return t.divisor_strengths(matrix.forward(x[:length]), matrix)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(3, 300),
    start=st.integers(0, 299),
    complex_input=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=300, start=0, complex_input=False, seed=0)
@example(n=257, start=0, complex_input=True, seed=1)
def test_batched_scan_matches_per_length_solves(n, start, complex_input, seed):
    n1 = 3 + start % (n - 2)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + (1j * rng.standard_normal(n) if complex_input else 0.0)
    res = e.range_scan(x, n1)
    assert [rec.length for rec in res.records] == list(range(n1, n + 1))
    for rec in res.records:
        want = _per_length_profile(x, rec.length)
        assert rec.profile.periods == want.periods
        np.testing.assert_allclose(rec.profile.strengths, want.strengths, rtol=1e-12, atol=0.0)
        assert rec.profile.total == pytest.approx(want.total, rel=1e-12)
        assert rec.detected == want.significant()


@pytest.mark.parametrize("seed", range(6))
def test_real_scan_strengths_equal_per_length_forward(seed):
    # the scan solves from the same rfft bins as forward, so its strengths agree bit for bit
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(64) * 10.0 ** rng.integers(-100, 100)
    for ni, profile in zip(range(1, 65), t._truncation_profiles(x, range(1, 65))):
        want = _per_length_profile(x, ni)
        assert profile.periods == want.periods
        assert np.array_equal(profile.strengths, want.strengths)
        assert profile.total == want.total


def test_range_scan_builds_no_per_length_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a per-length matrix or block was built")

    for name in ("build_ccpt_matrix", "basis_block", "_shifted_tilings"):
        monkeypatch.setattr(t, name, refuse)
    monkeypatch.setattr(t._CcptMatrix, "__init__", refuse)
    res = e.range_scan(gen_y2(0), 3)
    assert len(res.records) == 98
    assert set(res.detected_at(70)) >= {5, 7}


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("index", [0, 40, 99])
def test_range_scan_names_the_first_length_holding_a_non_finite_sample(index, value):
    x = gen_y2(0)
    x[index] = value
    length = max(index + 1, 3)
    with pytest.raises(NumericalError, match=rf"^truncation length {length}: forward solve residual nan"):
        e.range_scan(x, 3)


@pytest.mark.parametrize("complex_input", [False, True])
def test_range_scan_names_the_length_whose_residual_fails(monkeypatch, complex_input):
    x = gen_y2(0) if complex_input else gen_y2(0).real
    name = "ifft" if complex_input else "irfft"
    exact = getattr(np.fft, name)

    def perturbed(a, n=None, *args, **kwargs):
        out = exact(a, n, *args, **kwargs)
        return out + 1e-6 * np.abs(out).max() if len(out) == 57 else out

    monkeypatch.setattr(np.fft, name, perturbed)
    with pytest.raises(NumericalError, match=r"^truncation length 57: forward solve residual .* exceeds 1e-09"):
        e.range_scan(x, 40)


@pytest.mark.filterwarnings("error")
def test_range_scan_names_the_first_length_whose_strengths_overflow():
    x = np.array([1.0, -1.0, 1.0, 1e200, -1e200, 3e199])  # finite samples, block energies past float64
    with pytest.raises(NumericalError, match=r"^truncation length 4: period strengths overflow float64"):
        e.range_scan(x, 3)


def test_range_scan_names_the_first_ill_conditioned_length(monkeypatch):
    monkeypatch.setattr(t, "CONDITION_LIMIT", 10.0)
    first = next(n for n in range(3, 101) if t.build_ccpt_matrix(n).condition() > 10.0)
    pattern = rf"^truncation length {first}: synthesis matrix for N={first} too ill-conditioned"
    with pytest.raises(NumericalError, match=pattern):
        e.range_scan(gen_y2(0), 3)


def test_range_scan_memory_stays_bounded_at_2048_samples():
    x = np.random.default_rng(3).standard_normal(2048)
    tracemalloc.start()
    try:
        res = e.range_scan(x, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one unchunked batch would hold about 2.1 million samples in several arrays
    assert peak < 32 * 2**20, peak / 2**20
    assert len(res.records) == 2046
    for length in (3, 1024, 2039, 2048):
        want = _per_length_profile(x, length)
        got = res.records[length - 3].profile
        np.testing.assert_allclose(got.strengths, want.strengths, rtol=1e-12, atol=0.0)


def test_scan_chunks_cover_the_range_within_the_budget():
    assert [list(c) for c in e._chunks(3, 10, 12)] == [[3, 4, 5], [6], [7], [8], [9], [10]]
    for n1, n, budget in ((3, 100, 7), (3, 100, 500), (50, 60, 10**6)):
        chunks = list(e._chunks(n1, n, budget))
        assert [ni for c in chunks for ni in c] == list(range(n1, n + 1))
        assert all(sum(c) <= budget or len(c) == 1 for c in chunks)


@pytest.mark.parametrize("complex_input", [False, True])
def test_chunk_boundaries_change_no_result(monkeypatch, complex_input):
    x = gen_y2(2) if complex_input else gen_y2(2).real
    whole = e.range_scan(x, 3)
    batches = []
    solve = e._truncation_profiles
    monkeypatch.setattr(e, "_truncation_profiles", lambda x, lengths: batches.append(lengths) or solve(x, lengths))
    monkeypatch.setattr(e, "_SCAN_CHUNK_SAMPLES", 150)
    chunked = e.range_scan(x, 3)
    assert len(batches) > 40 and max(sum(b) for b in batches) <= 150
    assert chunked.subspace_visits == whole.subspace_visits
    assert chunked.duplicated_projections == whole.duplicated_projections
    for a, b in zip(whole.records, chunked.records, strict=True):
        assert (a.length, a.profile.periods, a.detected) == (b.length, b.profile.periods, b.detected)
        np.testing.assert_allclose(a.profile.strengths, b.profile.strengths, rtol=1e-13, atol=0.0)


def test_default_p_max():
    assert e.default_p_max(100) == 80
    assert e.default_p_max(10) == 8
    assert e.default_p_max(2) == 1


def test_build_dictionary_examples():
    model = e.build_dictionary(100, 80)
    assert model.n_hat == 1966
    assert model.matrix.shape == (100, 1966)

    small = e.build_dictionary(5, 5)
    assert np.allclose(small.matrix[:, 0], 1.0)
    widths = [small.spans[p].stop - small.spans[p].start for p in range(1, 6)]
    assert widths == [1, 1, 2, 2, 4]

    assert np.all(model.penalties[model.spans[7]] == 49.0)
    assert np.all(model.column_periods[model.spans[7]] == 7)


def test_build_dictionary_columns_truncate():
    model = e.build_dictionary(10, 7)
    span = model.spans[7]
    col = model.matrix[:, span.start]
    from ccpt.ccps import ccps

    assert np.allclose(col, ccps(7, 1).tiled(10), atol=1e-12)

    # every block, non-divisor periods included, equals the literal construction
    for n in (7, 10, 50, 107):
        for basis in ("ccpt", "farey", "rpt"):
            model = e.build_dictionary(n, e.default_p_max(n), basis=basis)
            for p in range(1, model.p_max + 1):
                span = model.spans[p]
                labels, matrix = basis_oracle.block(basis, n, p)
                assert model.labels[span] == tuple((p, *lab) for lab in labels), (n, basis, p)
                assert model.block_labels([p]) == model.labels[span], (n, basis, p)
                assert np.array_equal(model.matrix[:, span], matrix), (n, basis, p)
                assert np.all(model.column_periods[span] == p)
                assert np.all(model.penalties[span] == float(p * p))
            some = (1, 3, model.p_max)
            assert model.block_labels(some) == sum((model.labels[model.spans[p]] for p in some), ())
            assert model.block_labels(()) == ()


def test_ridge_added_when_gram_is_ill_conditioned():
    with pytest.warns(UserWarning):
        model = e.build_dictionary(10, 3)
    a = model.matrix
    gram = (a * model.penalties**-2.0) @ a.T
    sol = e.dictionary_solve(model, np.arange(10.0))
    assert sol.condition > 1e12
    assert sol.ridge == pytest.approx(1e-10 * np.trace(gram) / 10, rel=1e-12)


def _failing_cholesky(monkeypatch, failures):
    real = np.linalg.cholesky
    calls = []

    def flaky(matrix, *args, **kwargs):
        calls.append(matrix.copy())
        if len(calls) <= failures:
            raise np.linalg.LinAlgError("not positive definite")
        return real(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", flaky)
    return calls


def test_ridge_added_when_cholesky_fails(monkeypatch):
    model = e.build_dictionary(20, 12)
    x = gen_tiled_ccps(5, 1, 20)
    calls = _failing_cholesky(monkeypatch, failures=1)
    sol = e.dictionary_solve(model, x)
    assert sol.condition <= 1e12
    trace = np.trace(calls[0])
    assert sol.ridge == pytest.approx(1e-10 * trace / 20, rel=1e-12)
    assert np.allclose(calls[1] - calls[0], sol.ridge * np.eye(20), rtol=0, atol=1e-12 * trace)
    assert 0.0 < sol.residual < 1e-6


def test_solve_raises_when_ridge_cannot_recover(monkeypatch):
    model = e.build_dictionary(20, 12)
    calls = _failing_cholesky(monkeypatch, failures=2)
    with pytest.raises(NumericalError, match="beyond ridge recovery"):
        e.dictionary_solve(model, np.ones(20))
    assert len(calls) == 2


def test_build_dictionary_warns_when_underdetermined():
    with pytest.warns(UserWarning):
        e.build_dictionary(100, 10)


def test_build_dictionary_rejects_bad_args():
    with pytest.raises(ValueError):
        e.build_dictionary(10, 0)
    with pytest.raises(ValueError):
        e.build_dictionary(10, 8, basis="wavelet")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("basis", ["ccpt", "farey", "rpt"])
@pytest.mark.parametrize("fault", ["overflow", "nan"])
def test_dictionary_solve_fails_closed_when_not_finite(basis, fault):
    # finite samples near the float64 limit overflow inside the solve; a nan sample poisons it
    x = np.resize([1e308, -1e308, 9e307, -1e308, 5.0], 100)
    if fault == "nan":
        x = gen_y2(0)
        x[40] = np.nan
    model = e.build_dictionary(100, e.default_p_max(100), basis=basis)
    with pytest.raises(NumericalError, match=r"^dictionary solve is not finite in float64 \(residual nan\)$"):
        e.dictionary_solve(model, x)


def test_dictionary_solve_zero_signal():
    model = e.build_dictionary(20, 12)
    sol = e.dictionary_solve(model, np.zeros(20))
    assert np.abs(sol.coefficients).max() == 0.0
    assert sol.residual == 0.0
    prof = e.dictionary_strength_profile(sol, model)
    assert prof.strengths.sum() == 0.0
    assert prof.significant() == ()


def test_dictionary_solve_length_mismatch():
    model = e.build_dictionary(20, 12)
    with pytest.raises(ValueError):
        e.dictionary_solve(model, np.zeros(19))


def test_dictionary_recovers_tiled_sequence():
    x = gen_tiled_ccps(5, 1, 20)
    model = e.build_dictionary(20, 10)
    sol = e.dictionary_solve(model, x)
    prof = e.dictionary_strength_profile(sol, model)
    assert sol.residual < 1e-8
    assert prof.as_dict()[5] / prof.total > 0.9


def test_penalty_biases_toward_small_periods():
    # strength at an exactly-representable period beats any single multiple
    x = gen_tiled_ccps(5, 1, 20)
    model = e.build_dictionary(20, 10)
    prof = e.dictionary_strength_profile(e.dictionary_solve(model, x), model)
    d = prof.as_dict()
    assert d[5] > d[10]

    x7 = gen_tiled_ccps(7, 1, 21)
    model7 = e.build_dictionary(21, 14)
    prof7 = e.dictionary_strength_profile(e.dictionary_solve(model7, x7), model7)
    d7 = prof7.as_dict()
    assert d7[7] > d7[14]
    assert max(d7, key=d7.get) == 7


def test_staged_solve_matches_literal_expression():
    rng = np.random.default_rng(11)
    for _ in range(5):
        n = int(rng.integers(10, 41))
        p_max = n - 1
        model = e.build_dictionary(n, p_max)
        while model.n_hat < n:
            p_max += 2
            model = e.build_dictionary(n, p_max)
        x = rng.standard_normal(n)
        sol = e.dictionary_solve(model, x)
        a, pen = model.matrix, model.penalties
        dinv2 = np.diag(pen**-2.0)
        literal = dinv2 @ a.T @ np.linalg.inv(a @ dinv2 @ a.T) @ x
        assert np.abs(sol.coefficients - literal).max() < 1e-8
        assert np.linalg.norm(a @ sol.coefficients - x) / np.linalg.norm(x) < 1e-8


def test_solution_is_penalty_norm_optimal():
    rng = np.random.default_rng(3)
    model = e.build_dictionary(24, 14)
    x = rng.standard_normal(24)
    sol = e.dictionary_solve(model, x)
    base = np.linalg.norm(model.penalties * sol.coefficients)
    nullspace = scipy.linalg.null_space(model.matrix)
    assert nullspace.shape[1] > 0
    for _ in range(20):
        z = nullspace @ rng.standard_normal(nullspace.shape[1])
        feasible = sol.coefficients + z
        assert np.linalg.norm(model.matrix @ feasible - x) < 1e-8 * max(1, np.linalg.norm(x))
        assert base <= np.linalg.norm(model.penalties * feasible) + 1e-8


def test_complex_signal_solved_per_part():
    rng = np.random.default_rng(8)
    model = e.build_dictionary(30, 20)
    x = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    sol = e.dictionary_solve(model, x)
    assert sol.residual < 1e-8
    re = e.dictionary_solve(model, x.real).coefficients
    im = e.dictionary_solve(model, x.imag).coefficients
    assert np.abs(sol.coefficients - (re + 1j * im)).max() < 1e-10


def test_other_bases_recover_hidden_periods():
    y2 = gen_y2(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for basis in ("farey", "rpt"):
            model = e.build_dictionary(100, 80, basis=basis)
            sol = e.dictionary_solve(model, y2)
            prof = e.dictionary_strength_profile(sol, model)
            assert sol.residual < 1e-8
            assert set(prof.significant(0.05)) == {1, 5, 7}, basis


def test_farey_blocks_are_exact_period_exponentials():
    model = e.build_dictionary(12, 6, basis="farey")
    for p in range(1, 7):
        span = model.spans[p]
        assert span.stop - span.start == totient(p)
    col = model.matrix[:, model.spans[4].start]
    assert np.allclose(col, np.exp(2j * np.pi * np.arange(12) / 4))


def test_custom_penalty_function():
    x = gen_tiled_ccps(5, 1, 20)
    flat = e.build_dictionary(20, 10, penalty=lambda p: 1.0)
    assert np.all(flat.penalties == 1.0)
    sol = e.dictionary_solve(flat, x)
    assert sol.residual < 1e-8


BASES = ("ccpt", "farey", "rpt")


def _overflowing_penalty(p):
    if p == 7:
        raise OverflowError("(34, 'Numerical result out of range')")
    return 1.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("basis", BASES)
@pytest.mark.parametrize(
    "penalty, bad",
    [
        pytest.param(lambda p: float(p) ** -100, 35, id="weight-overflows"),  # from f(35)^-2 on
        pytest.param(_overflowing_penalty, 7, id="penalty-overflows"),
        pytest.param(lambda p: 0.0 if p == 4 else 1.0, 4, id="zero"),
        pytest.param(lambda p: -1.0 if p == 5 else 1.0, 5, id="negative"),
        pytest.param(lambda p: np.nan if p == 3 else 1.0, 3, id="nan"),
        pytest.param(lambda p: np.inf if p == 9 else 1.0, 9, id="inf"),
    ],
)
def test_build_dictionary_refuses_a_penalty_outside_float_range(basis, penalty, bad):
    with pytest.raises(ValueError, match=rf"penalty f\({bad}\) = "):
        e.build_dictionary(100, 80, penalty=penalty, basis=basis)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("basis", BASES)
def test_penalty_weights_that_underflow_to_zero_still_solve(basis):
    model = e.build_dictionary(100, 80, penalty=lambda p: float(p) ** 100, basis=basis)
    assert model.weights[-1] == 0.0 and model.weights[0] == 1.0
    solution = e.dictionary_solve(model, gen_y2(0))
    assert np.isfinite(solution.coefficients).all() and np.isfinite(solution.residual)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 256),
    extra=st.integers(0, 266),
    basis=st.sampled_from(BASES),
    complex_input=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=100, extra=79, basis="ccpt", complex_input=True, seed=0)
@example(n=100, extra=79, basis="farey", complex_input=True, seed=0)
@example(n=100, extra=79, basis="rpt", complex_input=False, seed=0)
def test_matrix_free_solve_matches_the_dense_dictionary(n, extra, basis, complex_input, seed):
    p_max = 1 + extra % (n + 10)
    rng = np.random.default_rng(seed)

    def draw(size):
        return rng.standard_normal(size) + (1j * rng.standard_normal(size) if complex_input else 0.0)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an underdetermined dictionary warns
        model = e.build_dictionary(n, p_max, basis=basis)
    a = model.matrix
    weights = model.penalties**-2.0
    operator = e._DictionaryOperator(model)

    dense = (a * weights) @ a.conj().T
    gram = operator.gram()
    assert np.isrealobj(gram)
    assert np.abs(gram - dense).max() <= 1e-12 * np.abs(dense).max()

    y, b = draw(n), draw(model.n_hat)
    reference = a.conj().T @ y
    assert np.abs(operator.adjoint(y) - reference).max() <= 1e-12 * np.abs(reference).max()
    reference = a @ b
    assert np.abs(operator.synthesize(b) - reference).max() <= 1e-12 * np.abs(reference).max()

    x = draw(n)
    sol = e.dictionary_solve(model, x)
    if sol.ridge == 0.0:
        best = np.linalg.lstsq(a / model.penalties, x, rcond=None)[0] / model.penalties
        err = np.linalg.norm(sol.coefficients - best) / np.linalg.norm(best)
        assert err <= 1e-12 + 1e-15 * sol.condition, (err, sol.condition)
        assert np.iscomplexobj(sol.coefficients) == (complex_input or basis == "farey")


@pytest.mark.parametrize("basis", BASES)
def test_dictionary_solve_never_forms_the_matrix(basis, monkeypatch):
    def refuse(n, p):
        raise AssertionError("the dense dictionary was built")

    monkeypatch.setitem(e._BLOCK_BUILDERS, basis, refuse)
    x = np.resize(gen_y2(0)[:35], 400)  # one period of the 5- plus 7-periodic preset, tiled
    tracemalloc.start()
    try:
        model = e.build_dictionary(400, 320, basis=basis)
        sol = e.dictionary_solve(model, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the fat matrix alone would be 400 x 31,232 floats, about 100 MB
    assert model.n_hat == 31232
    assert peak < 16 * 2**20, peak / 2**20
    assert sol.ridge == 0.0 and sol.residual < 1e-8
    assert "matrix" not in vars(model)
    assert set(e.dictionary_strength_profile(sol, model).significant()) >= {5, 7}


def test_dictionary_strengths_are_span_sums():
    rng = np.random.default_rng(4)
    for n in (1, 2, 7, 64, 100, 256):
        for basis in BASES:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                model = e.build_dictionary(n, e.default_p_max(n) + 3, basis=basis)
            coefficients = rng.standard_normal(model.n_hat) + 1j * rng.standard_normal(model.n_hat)
            sol = e.DictionarySolution(coefficients=coefficients, residual=0.0, condition=1.0, ridge=0.0)
            prof = e.dictionary_strength_profile(sol, model)
            spans = [np.sum(np.abs(coefficients[model.spans[p]]) ** 2) for p in prof.periods]
            assert prof.periods == tuple(range(1, model.p_max + 1))
            assert np.allclose(prof.strengths, spans, rtol=1e-13, atol=0)
