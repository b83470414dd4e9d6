"""Self-tests for the benchmark's checkers.

    python3 -m pytest bench -q

Each check accepts a hand-built case, y1 at N=72: exponentials on DFT bins
2, 8 and 10, so energy sits exactly at periods {9, 36} and the estimated
period is 36. Each check also rejects a corrupted copy: one strength
perturbed, one pair label moved, or a wrong period. A further group feeds
the real program's outputs on the same signal through the checks, and a
last test checks that the layer trace keeps set-up spans out of the per-op
figures.
"""

import cmath
import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import checks

ROOT = Path(__file__).resolve().parent.parent
N = 72
# y1: (bin, phase) of three unit exponentials; bins 2 and 10 have period 36, bin 8 period 9
Y1_BINS = ((2, math.pi / 5), (8, math.pi / 4), (10, math.pi / 3))
DIVISORS_72 = [1, 2, 3, 4, 6, 8, 9, 12, 18, 24, 36, 72]
Y1_PAIRS = {2: (36, 1), 8: (9, 1), 10: (36, 5)}


def y1():
    n = np.arange(N)
    return sum(np.exp(1j * (2 * np.pi * m * n / N + phase)) for m, phase in Y1_BINS)


def hand_coefficients():
    """ccpt coefficients of y1: a e^{j theta n} = alpha c(n) + beta c(n - 1).

    With c(n) = 2 cos(theta n): alpha + beta e^{-j theta} = a and
    alpha + beta e^{j theta} = 0, so beta = j a / (2 sin theta) and
    alpha = -beta e^{j theta}.
    """
    labels = checks.ccpt_labels(N)
    values = np.zeros(N, dtype=complex)
    for m, phase in Y1_BINS:
        p, k = Y1_PAIRS[m]
        theta = 2 * math.pi * k / p
        beta = 1j * cmath.exp(1j * phase) / (2 * math.sin(theta))
        values[labels.index((p, k, 0))] = -beta * cmath.exp(1j * theta)
        values[labels.index((p, k, 1))] = beta
    return labels, values


def block_strengths(labels, values):
    return [float(sum(abs(v) ** 2 for (p, _, _), v in zip(labels, values) if p == d)) for d in DIVISORS_72]


def analysis_report(method):
    if method == "dft":
        mags = np.zeros(N)
        for m, _ in Y1_BINS:
            mags[m] = N
        raw = [0.0] * len(DIVISORS_72)
        raw[DIVISORS_72.index(36)] = 2.0 * N * N
        raw[DIVISORS_72.index(9)] = 1.0 * N * N
        columns = [f"bin{m}" for m in range(N)]
        labels = None
    elif method == "ccpt":
        labels, values = hand_coefficients()
        mags = np.abs(values)
        raw = block_strengths(labels, values)
        columns = [checks.column_name(lab) for lab in labels]
    else:
        labels = checks.rpt_labels(N)
        mags = np.zeros(N)
        mags[labels.index((9, None, 2))] = 0.5
        mags[labels.index((36, None, 4))] = 2.0
        raw = block_strengths(labels, mags)
        columns = [checks.column_name(lab) for lab in labels]
    return {
        "method": method,
        "status": "ok",
        "input": {"length": N},
        "threshold": 0.05,
        "coefficients": [float(v) for v in mags],
        "columns": columns,
        "strengths": {"periods": DIVISORS_72, "raw": raw},
        "significant_periods": [9, 36],
        "estimated_period": 36,
        "frequency_labels": None
        if method != "ccpt"
        else {str(i): (k % p) / p * N for i, (p, k, _) in enumerate(labels)},
    }


def test_hand_case_layout():
    labels = checks.ccpt_labels(N)
    assert len(labels) == N == len(checks.rpt_labels(N))
    assert labels[:6] == [(1, 1, 0), (2, 1, 0), (3, 1, 0), (3, 1, 1), (4, 1, 0), (4, 1, 1)]
    assert checks.divisors(N) == DIVISORS_72
    assert checks.fft_support(y1()) == {9, 36}
    assert {checks.bin_pair(m, N) for m, _ in Y1_BINS} == {(36, 1), (9, 1), (36, 5)}


def test_closed_form_coefficients_match_hand_case():
    labels, values = hand_coefficients()
    np.testing.assert_allclose(checks.ccpt_coefficients(y1(), labels), values, atol=1e-12)
    np.testing.assert_allclose(checks.ccpt_synthesis(labels, N) @ values, y1(), atol=1e-12)


@pytest.mark.parametrize("method", ["ccpt", "rpt", "dft"])
def test_analysis_accepts_hand_case(method):
    checks.check_analysis(analysis_report(method), y1())


def _perturb_strength(report):
    raw = report["strengths"]["raw"]
    raw[DIVISORS_72.index(36)] *= 1 + 1e-6


def _move_pair(report):
    columns = report["columns"]
    mags = report["coefficients"]
    if report["method"] == "dft":  # energy of bin 2 moved to its conjugate bin 70
        mags[2], mags[70] = mags[70], mags[2]
    else:  # ccpt: to another pair of the same period; rpt: to another period
        a = next(i for i, c in enumerate(columns) if c.startswith("p36_") and mags[i] > 0)
        b = columns.index("p36_k7_l0" if report["method"] == "ccpt" else "p12_l1")
        mags[a], mags[b] = mags[b], mags[a]


def _wrong_period(report):
    report["estimated_period"] = 72


@pytest.mark.parametrize("method", ["ccpt", "rpt", "dft"])
@pytest.mark.parametrize("corrupt", [_perturb_strength, _move_pair, _wrong_period])
def test_analysis_rejects_corruption(method, corrupt):
    report = analysis_report(method)
    corrupt(report)
    with pytest.raises(checks.CheckError):
        checks.check_analysis(report, y1())


def frame_case():
    labels, values = hand_coefficients()
    frequencies = {i: (k % p) / p * N for i, (p, k, _) in enumerate(labels)}
    return [labels, frequencies, values, DIVISORS_72, block_strengths(labels, values), 36]


def test_frames_accepts_hand_case():
    checks.FrameChecker(N).check(y1(), *frame_case())


def test_frames_rejects_corruption():
    checker = checks.FrameChecker(N)
    labels = checks.ccpt_labels(N)
    case = frame_case()
    case[4] = list(case[4])
    case[4][DIVISORS_72.index(9)] *= 1 + 1e-6
    with pytest.raises(checks.CheckError, match="strengths"):
        checker.check(y1(), *case)
    case = frame_case()
    values = case[2].copy()
    a, b = labels.index((36, 1, 0)), labels.index((36, 7, 0))
    values[a], values[b] = values[b], values[a]
    case[2] = values
    with pytest.raises(checks.CheckError):
        checker.check(y1(), *case)
    case = frame_case()
    case[0] = list(labels)
    case[0][a], case[0][b] = case[0][b], case[0][a]
    with pytest.raises(checks.CheckError, match="layout"):
        checker.check(y1(), *case)
    case = frame_case()
    case[5] = 72
    with pytest.raises(checks.CheckError, match="estimated period"):
        checker.check(y1(), *case)


def scan_report():
    labels, values = hand_coefficients()
    return {
        "n1": N,
        "n": N,
        "threshold": 0.05,
        "records": [
            {
                "length": N,
                "strengths": {"periods": DIVISORS_72, "raw": block_strengths(labels, values)},
                "detected": [9, 36],
            }
        ],
        "subspace_visits": {str(p): 1 for p in DIVISORS_72},
        "duplicated_projections": 0,
    }


def test_scan_visit_count_by_hand():
    assert checks.scan_visits(3, 6) == {1: 4, 3: 2, 2: 2, 4: 1, 5: 1, 6: 1}


def test_scan_accepts_hand_case():
    checks.check_scan(scan_report(), y1(), N)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: r["records"][0]["strengths"]["raw"].__setitem__(6, r["records"][0]["strengths"]["raw"][6] * 1.001),
        lambda r: r["records"][0]["strengths"]["raw"].__setitem__(0, 1e-3),
        lambda r: r["records"][0].__setitem__("detected", [36]),
        lambda r: r.__setitem__("duplicated_projections", 1),
        lambda r: r["subspace_visits"].__setitem__("36", 2),
    ],
)
def test_scan_rejects_corruption(corrupt):
    report = scan_report()
    corrupt(report)
    with pytest.raises(checks.CheckError):
        checks.check_scan(report, y1(), N)


def y2_preset():
    """The README's dictionary example, gen_y2(seed=0): significant (1, 5, 7), period 35.

    The dictionary checks use it rather than y1: with the p^2 penalty the
    minimum-norm fit spreads y1's period-36 exponentials over many small
    periods, so y1 has no single dictionary period to check.
    """
    rng = np.random.default_rng(0)
    five = (rng.standard_normal(5) + 1j * rng.standard_normal(5)) * np.sqrt(0.5)
    seven = (rng.standard_normal(7) + 1j * rng.standard_normal(7)) * np.sqrt(0.5)
    return np.tile(five, 20) + np.tile(seven, 15)[:100]


def dict_report():
    p_max = 80
    return {
        "basis": "ccpt",
        "status": "ok",
        "p_max": p_max,
        "n_hat": sum(checks.totient(p) for p in range(1, p_max + 1)),
        "ridge": 0.0,
        "residual": 1e-14,
        "threshold": 0.05,
        "strengths": {"periods": list(range(1, p_max + 1)), "raw": checks.dictionary_strengths(y2_preset(), p_max, "ccpt")},
        "significant_periods": [1, 5, 7],
        "estimated_period": 35,
        "frequencies": {"p5_k1_l0": {"frequency": 20.0}, "p5_k2_l1": {"frequency": 40.0}, "p7_k1_l0": {"frequency": 1 / 7 * 100}},
    }


def test_dictionary_accepts_hand_case():
    checks.check_dictionary(dict_report(), y2_preset())


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: r["strengths"]["raw"].__setitem__(6, r["strengths"]["raw"][6] * (1 + 1e-6)),
        lambda r: r["frequencies"].__setitem__("p5_k1_l1", r["frequencies"].pop("p7_k1_l0")),
        lambda r: r.__setitem__("estimated_period", 5),
        lambda r: r.__setitem__("ridge", 1e-12),
        lambda r: r.__setitem__("significant_periods", [1, 5]),
    ],
)
def test_dictionary_rejects_corruption(corrupt):
    report = dict_report()
    corrupt(report)
    with pytest.raises(checks.CheckError):
        checks.check_dictionary(report, y2_preset())


@pytest.mark.parametrize("basis", ["ccpt", "farey", "rpt"])
def test_dictionary_reference_matches_closed_form(basis):
    """lstsq minimum norm equals b = D^-2 A^H (A D^-2 A^H)^-1 x on a small case."""
    n, p_max = 24, 19
    x = np.random.default_rng(5).standard_normal(n) + 0j
    blocks = [checks.dictionary_block(n, p, basis) for p in range(1, p_max + 1)]
    a = np.hstack(blocks)
    d2 = np.concatenate([np.full(b.shape[1], float(p) ** -4) for p, b in enumerate(blocks, start=1)])
    b = d2 * (a.conj().T @ np.linalg.solve((a * d2) @ a.conj().T, x))
    np.testing.assert_allclose(a @ b, x, atol=1e-9)
    edges = np.cumsum([0] + [blk.shape[1] for blk in blocks])
    want = [float(np.sum(np.abs(b[i:j]) ** 2)) for i, j in zip(edges, edges[1:])]
    np.testing.assert_allclose(checks.dictionary_strengths(x, p_max, basis), want, rtol=1e-6, atol=1e-12 * max(want))


# --- the real program's outputs pass the same checks ---------------------------


@pytest.fixture(scope="module")
def ccpt_cli():
    sys.path.insert(0, str(ROOT / "src"))
    import ccpt.cli

    return ccpt.cli


@pytest.fixture
def y1_csv(tmp_path):
    import workloads

    path = tmp_path / "y1.csv"
    workloads.write_csv(path, y1())
    return path


def _program(ccpt_cli, tmp_path, argv):
    out = tmp_path / "report.json"
    assert ccpt_cli.main([*argv, "-o", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("method", ["ccpt", "rpt", "dft"])
def test_program_analysis_passes(ccpt_cli, tmp_path, y1_csv, method):
    report = _program(ccpt_cli, tmp_path, ["analyze", str(y1_csv), "--method", method])
    assert report["significant_periods"] == [9, 36] and report["estimated_period"] == 36
    checks.check_analysis(report, y1())
    bad = copy.deepcopy(report)
    bad["estimated_period"] = 18
    with pytest.raises(checks.CheckError):
        checks.check_analysis(bad, y1())


def test_program_frames_pass(ccpt_cli):
    import ccpt

    matrix = ccpt.build_ccpt_matrix(N)
    beta = matrix.forward(y1())
    profile = ccpt.divisor_strengths(beta, matrix)
    checks.FrameChecker(N).check(
        y1(), matrix.labels, ccpt.frequency_labels(matrix), beta.values,
        list(profile.periods), profile.strengths, ccpt.estimate_period(profile),
    )


def test_program_scan_passes(ccpt_cli, tmp_path, y1_csv):
    report = _program(ccpt_cli, tmp_path, ["scan", str(y1_csv), "--n1", "60"])
    checks.check_scan(report, y1(), 60)


@pytest.mark.parametrize("basis", ["ccpt", "farey", "rpt"])
def test_program_dictionary_passes(ccpt_cli, tmp_path, basis):
    import workloads

    rng = np.random.default_rng(3)

    x = workloads.y2_family(rng, 100)
    path = tmp_path / "y2.csv"
    workloads.write_csv(path, x)
    report = _program(ccpt_cli, tmp_path, ["dict", str(path), "--basis", basis])
    assert report["estimated_period"] == 35
    checks.check_dictionary(report, x)
    bad = copy.deepcopy(report)
    bad["strengths"]["raw"][4] *= 1 + 1e-6
    with pytest.raises(checks.CheckError):
        checks.check_dictionary(bad, x)


def test_benchmark_json_lists_every_reported_metric():
    import layertrace

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == ["ops_per_s", "op_p50_ms", "peak_rss_mb", "setup_s"]
    assert bench["per_layer"] == [
        {"name": name, "unit": unit, "better": better} for name, (unit, better, _) in layertrace.LAYER_METRICS.items()
    ]


def test_setup_spans_stay_out_of_op_medians():
    import layertrace

    build, block, cond = "transform.build_ccpt_matrix", "transform.basis_block", "transform.NestedPeriodicMatrix.condition"
    ms = 1_000_000
    tracer = layertrace.Tracer()
    for setup in (-1, -2, -3):  # build 50 ms with a 30 ms block inside, condition 100 ms
        first = len(tracer.spans)
        tracer.spans += [[build, 0, 50 * ms, -1, setup], [block, 10 * ms, 40 * ms, first, setup], [cond, 0, 100 * ms, -1, setup]]
    for op in range(5):  # condition 1 ms, a 2 ms block
        tracer.spans += [[cond, 0, 1 * ms, -1, op], [block, 0, 2 * ms, -1, op]]
    metrics = layertrace.layer_metrics(tracer, layertrace.AllocMeter(), [3 * ms] * 5, [3 * ms] * 5, {})
    value = {name: m["value"] for name, m in metrics.items()}
    assert (value["transform.condition.ms"], value["transform.basis_block.ms"]) == (1.0, 2.0)
    assert (value["transform.build_ccpt_matrix.ms"], value["transform.basis_block.calls"]) == (0.0, 1.0)
    assert value["setup.transform.condition.ms"] == 100.0
    assert value["setup.transform.build_ccpt_matrix.total_ms"] == 50.0
    assert value["setup.transform.forward.ms"] == 0.0
