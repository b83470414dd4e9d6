import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ccpt import cli, sigio
from ccpt.signalgen import gen_y1, gen_y2


def run(*args):
    return cli.main([str(a) for a in args])


def _package_env():
    """The environment for a child process that imports this checkout's ccpt."""
    path = [str(Path(cli.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


@pytest.fixture
def y1_csv(tmp_path):
    path = tmp_path / "y1.csv"
    assert run("gen", "--preset", "y1", "-o", path) == 0
    return path


@pytest.fixture
def y2_csv(tmp_path):
    path = tmp_path / "y2.csv"
    assert run("gen", "--preset", "y2", "--seed", 2, "-o", path) == 0
    return path


def test_gen_preset_y1(y1_csv):
    data = [l for l in y1_csv.read_text().splitlines() if l and not l.startswith("#")]
    assert len(data) == 72
    assert all(len(l.split(",")) == 2 for l in data)
    assert np.abs(sigio.read_signal(y1_csv) - gen_y1()).max() == 0.0
    meta = json.loads(y1_csv.with_suffix(".meta.json").read_text())
    assert meta["kind"] == "preset-y1"
    assert meta["length"] == 72


def test_gen_preset_y2(tmp_path):
    path = tmp_path / "y2.csv"
    assert run("gen", "--preset", "y2", "--seed", 7, "-o", path) == 0
    assert np.abs(sigio.read_signal(path) - gen_y2(7)).max() == 0.0
    meta = json.loads(path.with_suffix(".meta.json").read_text())
    assert meta["seed"] == 7 and meta["rng"] == "pcg64"


def test_gen_tiled(tmp_path):
    path = tmp_path / "t.csv"
    assert run("gen", "--tiled-ccps", "5,1", "--len", 100, "-o", path) == 0
    lines = [l for l in path.read_text().splitlines() if l]
    assert len(lines) == 100
    assert all("," not in l for l in lines)


def test_gen_usage_errors(tmp_path):
    assert run("gen", "-o", tmp_path / "x.csv") == 2
    assert run("gen", "--preset", "y1", "--tiled-ccps", "5,1", "-o", tmp_path / "x.csv") == 2
    assert run("gen", "--tiled-ccps", "5;1", "-o", tmp_path / "x.csv") == 2


def test_analyze_ccpt_y1(tmp_path, y1_csv):
    report_path = tmp_path / "report.json"
    assert run("analyze", y1_csv, "--method", "ccpt", "--frame", 360, "-o", report_path) == 0
    report = json.loads(report_path.read_text())
    assert report["schema"] == "ccpt-report/1"
    assert report["estimated_period"] == 36
    assert report["significant_periods"] == [9, 36]
    assert report["status"] == "ok"
    assert report["complexity"]["multiplications"] == 2 * 72 * 72
    # the four populated columns of the period-36 block carry 10 and 50 Hz
    idx = {lab: i for i, lab in enumerate(report["columns"])}
    assert report["frequency_labels"][str(idx["p36_k1_l0"])] == pytest.approx(10.0)
    assert report["frequency_labels"][str(idx["p36_k5_l0"])] == pytest.approx(50.0)


def test_analyze_rpt_y1(tmp_path, y1_csv):
    report_path = tmp_path / "r.json"
    assert run("analyze", y1_csv, "--method", "rpt", "-o", report_path) == 0
    report = json.loads(report_path.read_text())
    mags = np.array(report["coefficients"])
    block36 = [i for i, lab in enumerate(report["columns"]) if lab.startswith("p36_")]
    assert len(block36) == 12
    assert mags[block36].min() > 1e-6 * mags.max()
    assert report["frequency_labels"] is None


def test_analyze_dft(tmp_path, y1_csv):
    report_path = tmp_path / "d.json"
    assert run("analyze", y1_csv, "--method", "dft", "--frame", 360, "-o", report_path) == 0
    report = json.loads(report_path.read_text())
    assert report["estimated_period"] == 36
    assert report["frequency_labels"]["2"] == pytest.approx(10.0)


def test_analyze_zero_signal_reports_no_content(tmp_path):
    zeros = tmp_path / "zeros.csv"
    sigio.write_signal(zeros, np.zeros(12))
    report_path = tmp_path / "z.json"
    assert run("analyze", zeros, "-o", report_path) == 4
    report = json.loads(report_path.read_text())
    assert report["status"] == "no periodic content"
    assert report["estimated_period"] is None


def test_analyze_missing_file_is_io_error(tmp_path):
    assert run("analyze", tmp_path / "nope.csv") == 3


def test_analyze_ragged_file_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3\n")
    assert run("analyze", bad) == 3
    assert "bad.csv:2" in capsys.readouterr().err


def test_analyze_dump_files(tmp_path, y1_csv):
    coeff = tmp_path / "coeff.csv"
    strength = tmp_path / "strength.csv"
    assert (
        run("analyze", y1_csv, "--dump-coefficients", coeff, "--dump-strengths", strength, "-o", tmp_path / "r.json")
        == 0
    )
    assert len(coeff.read_text().splitlines()) == 72
    rows = strength.read_text().splitlines()
    assert len(rows) == 12  # one per divisor of 72


def test_scan_command(tmp_path, y2_csv):
    out = tmp_path / "scan.json"
    csv = tmp_path / "scan.csv"
    assert run("scan", y2_csv, "--n1", 70, "--csv", csv, "-o", out) == 0
    doc = json.loads(out.read_text())
    assert doc["n1"] == 70 and doc["n"] == 100
    assert len(doc["records"]) == 31
    by_len = {rec["length"]: rec["detected"] for rec in doc["records"]}
    assert by_len[70] == [5, 7]
    assert by_len[95] == [5, 95]
    assert doc["duplicated_projections"] > 0
    assert doc["complexity"]["multiplications"] == 452910
    lines = csv.read_text().splitlines()
    assert lines[0] == "length,detected"
    assert "70,5;7" in lines


def test_scan_bad_range(tmp_path, y2_csv):
    assert run("scan", y2_csv, "--n1", 101) == 2


def test_scan_degenerate_matches_analyze(tmp_path, y2_csv):
    scan_out = tmp_path / "s.json"
    analyze_out = tmp_path / "a.json"
    assert run("scan", y2_csv, "--n1", 100, "-o", scan_out) == 0
    assert run("analyze", y2_csv, "-o", analyze_out) == 0
    scan_doc = json.loads(scan_out.read_text())
    analyze_doc = json.loads(analyze_out.read_text())
    assert len(scan_doc["records"]) == 1
    assert scan_doc["records"][0]["strengths"] == analyze_doc["strengths"]


def test_dict_command(tmp_path):
    y2 = tmp_path / "y2.csv"
    assert run("gen", "--preset", "y2", "--seed", 0, "-o", y2) == 0
    out = tmp_path / "dict.json"
    assert run("dict", y2, "--pmax", 80, "-o", out) == 0
    doc = json.loads(out.read_text())
    assert doc["estimated_period"] == 35
    assert doc["significant_periods"] == [1, 5, 7]
    assert doc["n_hat"] == 1966
    assert doc["residual"] < 1e-8
    assert doc["frequencies"] is not None


def test_dict_on_constant_signal(tmp_path):
    ones = tmp_path / "ones.csv"
    sigio.write_signal(ones, np.ones(20))
    out = tmp_path / "o.json"
    assert run("dict", ones, "--pmax", 10, "-o", out) == 0
    doc = json.loads(out.read_text())
    assert doc["estimated_period"] == 1
    assert doc["significant_periods"] == [1]


def test_dict_other_bases_agree(tmp_path):
    y2 = tmp_path / "y2.csv"
    assert run("gen", "--preset", "y2", "--seed", 0, "-o", y2) == 0
    results = {}
    for basis in ("ccpt", "farey", "rpt"):
        out = tmp_path / f"{basis}.json"
        assert run("dict", y2, "--pmax", 80, "--basis", basis, "-o", out) == 0
        results[basis] = json.loads(out.read_text())
    assert (
        results["ccpt"]["significant_periods"]
        == results["farey"]["significant_periods"]
        == results["rpt"]["significant_periods"]
        == [1, 5, 7]
    )
    assert results["ccpt"]["frequencies"] is not None
    assert results["farey"]["frequencies"] is not None
    assert results["rpt"]["frequencies"] is None


def test_compare_table(tmp_path, y2_csv, capsys):
    out = tmp_path / "cmp.json"
    assert run("compare", y2_csv, "--dict", "-o", out) == 0
    text = capsys.readouterr().out
    assert "dft" in text and "ccpt" in text and "dict-farey" in text
    doc = json.loads(out.read_text())
    rows = {r["method"]: r for r in doc["rows"]}
    assert rows["ccpt"]["multiplications"] == 20000
    assert rows["dft"]["multiplications"] == 40000
    assert rows["rpt"]["frequency"] is False
    assert rows["dict-farey"]["formula"] == "2L"
    assert rows["dict-rpt"]["non_divisor_period"] is True


def test_basis_dump(tmp_path):
    out = tmp_path / "t5.csv"
    assert run("basis", 5, "-o", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p1_k1_l0,p5_k1_l0,p5_k1_l1,p5_k2_l0,p5_k2_l1"
    assert len(lines) == 6
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 1.0 and first[1] == 2.0

    block = tmp_path / "b9.csv"
    assert run("basis", 72, "--block", 9, "-o", block) == 0
    rows = block.read_text().splitlines()
    assert len(rows) == 73
    assert len(rows[0].split(",")) == 6

    single = tmp_path / "one.csv"
    assert run("basis", 1, "-o", single) == 0
    assert single.read_text().splitlines()[1] == "1"


def test_basis_bad_block(tmp_path):
    assert run("basis", 72, "--block", 7, "-o", tmp_path / "x.csv") == 2


def test_reports_round_trip_and_determinism(tmp_path, y1_csv):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("analyze", y1_csv, "-o", a) == 0
    assert run("analyze", y1_csv, "-o", b) == 0
    text = a.read_text()
    assert sigio.canonical_json(json.loads(text)) == text
    doc_a, doc_b = json.loads(text), json.loads(b.read_text())
    doc_a.pop("runtime_seconds")
    doc_b.pop("runtime_seconds")
    assert doc_a == doc_b


def test_threshold_env_override(tmp_path, y1_csv, monkeypatch):
    out = tmp_path / "r.json"
    monkeypatch.setenv("CCPT_THRESHOLD", "0.25")
    assert run("analyze", y1_csv, "-o", out) == 0
    assert json.loads(out.read_text())["threshold"] == 0.25
    # explicit flag wins
    assert run("analyze", y1_csv, "--threshold", "0.1", "-o", out) == 0
    assert json.loads(out.read_text())["threshold"] == 0.1
    monkeypatch.setenv("CCPT_THRESHOLD", "zero")
    assert run("analyze", y1_csv, "-o", out) == 2


@pytest.mark.parametrize("value", ["-1", "0", "1.5", "nan", "inf", "zero"])
def test_threshold_flag_out_of_range_is_usage_error(y1_csv, capsys, value):
    with pytest.raises(SystemExit) as exc:
        run("analyze", y1_csv, "--threshold", value)
    assert exc.value.code == 2
    assert "--threshold" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", "0", "1.5", "nan", "inf"])
def test_threshold_env_out_of_range_is_usage_error(y1_csv, capsys, monkeypatch, value):
    monkeypatch.setenv("CCPT_THRESHOLD", value)
    assert run("analyze", y1_csv) == 2
    assert "CCPT_THRESHOLD" in capsys.readouterr().err
    assert run("analyze", y1_csv, "--threshold", "1") == 0


@pytest.mark.parametrize("value", ["0", "-3", "two"])
def test_scan_jobs_below_one_is_usage_error(y2_csv, capsys, value):
    with pytest.raises(SystemExit) as exc:
        run("scan", y2_csv, "--n1", 95, "--jobs", value)
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_non_finite_sample_is_io_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0\nnan\n2.0\n")
    assert run("analyze", bad) == 3
    assert "bad.csv:2" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "argv", [("analyze", "--method", m) for m in ("ccpt", "rpt", "dft")] + [("dict",)]
)
def test_overflowing_strengths_are_numerical_errors(tmp_path, capsys, argv):
    # the samples are finite, but their block energies exceed float64
    big = tmp_path / "big.csv"
    big.write_text("1e200\n-1e200\n1e200\n-1e200\n")
    out = tmp_path / "r.json"
    assert run(argv[0], big, *argv[1:], "-o", out) == 4
    assert "overflow" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv",
    [("analyze", "--method", m) for m in ("ccpt", "rpt", "dft")]
    + [("dict", "--basis", b) for b in ("ccpt", "farey", "rpt")],
)
def test_overflow_prints_only_the_error_line(tmp_path, capsys, argv):
    # no numpy warning may reach stderr: warnings are errors here
    big = tmp_path / "big.csv"
    big.write_text("1e200\n-1e200\n1e200\n-1e200\n")
    assert run(argv[0], big, *argv[1:], "-o", tmp_path / "r.json") == 4
    assert capsys.readouterr().err == "error: period strengths overflow float64 (total inf)\n"


@pytest.mark.filterwarnings("error")
def test_scan_overflow_names_the_length_in_one_line(tmp_path, capsys):
    big = tmp_path / "big.csv"
    big.write_text("1e200\n-1e200\n1e200\n-1e200\n")
    assert run("scan", big, "--n1", 3, "-o", tmp_path / "r.json") == 4
    assert capsys.readouterr().err == "error: truncation length 3: period strengths overflow float64 (total inf)\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("basis", ["ccpt", "farey", "rpt"])
def test_dict_overflow_inside_the_solve_exits_4(tmp_path, capsys, basis):
    # finite samples whose solve overflows float64: a numerical failure of the solve, not a usage error
    huge = tmp_path / "huge.csv"
    huge.write_text("1e308\n-1e308\n9e307\n-1e308\n5\n" * 20)
    out = tmp_path / "d.json"
    assert run("dict", huge, "--basis", basis, "-o", out) == 4
    assert capsys.readouterr().err == "error: dictionary solve is not finite in float64 (residual nan)\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [("analyze", "--method", "dft"), ("compare",)])
def test_dft_overflow_prints_only_the_error_line(tmp_path, capsys, argv):
    # the FFT itself overflows; the strength profile refuses its result, so no fft warning may print
    huge = tmp_path / "huge.csv"
    huge.write_text("1e308\n-1e308\n1e308\n-1e308\n1e308\n1e308\n")
    out = tmp_path / "r.json"
    assert run(argv[0], huge, *argv[1:], "-o", out) == 4
    assert capsys.readouterr().err == "error: period strengths overflow float64 (total inf)\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [("analyze",), ("scan", "--n1", 1), ("dict",), ("compare",)])
def test_non_utf8_file_is_io_error_naming_it(tmp_path, capsys, argv):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\xff\xfe1\n")
    out = tmp_path / "r.json"
    assert run(argv[0], bad, *argv[1:], "-o", out) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv", [("analyze",), ("analyze", "--method", "rpt"), ("scan", "--n1", 95), ("dict",), ("compare",)]
)
def test_signal_above_the_cap_is_refused_naming_command_and_file(tmp_path, y2_csv, capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "MAX_N", 99)
    out = tmp_path / "r.json"
    assert run(argv[0], y2_csv, *argv[1:], "-o", out) == 2
    assert capsys.readouterr().err == f"error: {argv[0]}: {y2_csv} holds 100 samples; the supported cap is 99\n"
    assert not out.exists()
    monkeypatch.setattr(cli, "MAX_N", 100)
    assert run(argv[0], y2_csv, *argv[1:], "-o", out) == 0


def test_runtime_imports_no_scipy(tmp_path):
    # a real process: the test modules import scipy themselves
    x = np.tile(gen_y2(1)[:35], 3) + 0.01 * np.random.default_rng(0).standard_normal(105)
    sigio.write_signal(tmp_path / "s.csv", x)  # 105 = 3 * 5 * 7 factors the composite RPT cores 15, 21, 35, 105
    sigio.write_signal(tmp_path / "c.csv", x + 0.5j * x[::-1])
    runs = [
        ["analyze", "s.csv", "--method", "rpt"],
        ["analyze", "c.csv", "--method", "rpt"],
        ["dict", "s.csv", "--basis", "ccpt"],
        ["dict", "c.csv", "--basis", "rpt"],
        ["scan", "s.csv", "--n1", "90"],
    ]
    code = (
        "import json, sys\n"
        "from ccpt import cli\n"
        "codes = [cli.main([*argv, '-o', 'r.json']) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(runs)],
        capture_output=True, text=True, env=_package_env(), cwd=tmp_path, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[0] * len(runs), []]


def test_underdetermined_dictionary_warns_in_one_line(tmp_path):
    # a real process: the test runner would otherwise record the warning instead of printing it
    ramp = tmp_path / "ramp.csv"
    ramp.write_text("".join(f"{i}\n" for i in range(1, 11)))
    out = tmp_path / "d.json"
    done = subprocess.run(
        [sys.executable, "-m", "ccpt.cli", "dict", str(ramp), "--pmax", "1", "-o", str(out)],
        capture_output=True, text=True, env=_package_env(), timeout=60,
    )
    assert done.returncode == 0
    assert done.stderr == (
        "warning: dictionary has only 1 columns for length 10; "
        "the exact-fit constraint may be infeasible\n"
    )
    assert json.loads(out.read_text())["n_hat"] == 1


@pytest.mark.parametrize(
    "argv, size",
    [
        (("65536",), "32768.0 MiB"),
        (("65536", "--block", "65536"), "16384.0 MiB"),
        (("8193",), "512.1 MiB"),
        (("65521", "--block", "65521"), "32752.5 MiB"),
    ],
)
def test_basis_refuses_oversized_matrix(tmp_path, capsys, monkeypatch, argv, size):
    def never(*args):
        pytest.fail("basis built a matrix above the cap")

    monkeypatch.setattr(cli.transform, "build_ccpt_matrix", never)
    monkeypatch.setattr(cli.transform, "basis_block", never)
    assert run("basis", *argv, "-o", tmp_path / "t.csv") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: basis {' '.join(argv)} would take {size}")
    assert not (tmp_path / "t.csv").exists()


def test_basis_cap_admits_narrow_blocks_of_long_lengths(tmp_path):
    assert cli.MAX_BASIS_BYTES == 512 * 2**20  # 8192 x 8192 doubles
    assert run("basis", 65536, "--block", 2, "-o", tmp_path / "b.csv") == 0


def test_rpt_core_above_the_cap_exits_4(tmp_path, capsys, monkeypatch):
    def never(*args):
        pytest.fail("a refused core was built")

    monkeypatch.setattr(cli.baselines, "MAX_BASIS_BYTES", 47 * 47 * 8)  # refuses the 48-wide core 105
    monkeypatch.setattr(cli.baselines, "_ramanujan_sums", never)
    signal = tmp_path / "x.csv"
    sigio.write_signal(signal, np.ones(210))
    assert run("analyze", signal, "--method", "rpt", "-o", tmp_path / "r.json") == 4
    err = capsys.readouterr().err
    assert err.startswith("error: RPT block p=105 of N=210 reduces to a 48x48 Ramanujan-sum core")
    assert err.count("\n") == 1
    assert not (tmp_path / "r.json").exists()


def test_rpt_analyze_of_length_8383_runs_in_under_a_second(tmp_path):
    # 8383 = 83 x 101: its core would be 8200 wide, its complement is 183 wide
    signal = tmp_path / "r.csv"
    assert run("gen", "--tiled-ccps", "7,1", "--len", 8383, "-o", signal) == 0
    start = time.perf_counter()
    assert run("analyze", signal, "--method", "rpt", "-o", tmp_path / "r.json") == 0
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "argv, builder",
    [
        (("analyze", "--method", "rpt"), (cli.baselines, "build_rpt_matrix")),
        (("analyze",), (cli.transform, "build_ccpt_matrix")),
        (("dict",), (cli.estimation, "build_dictionary")),
    ],
)
def test_memory_error_exits_4_with_one_line(tmp_path, y1_csv, capsys, monkeypatch, argv, builder):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(*builder, exhausted)
    assert run(argv[0], y1_csv, *argv[1:], "-o", tmp_path / "r.json") == 4
    assert capsys.readouterr().err == f"error: {argv[0]} ran out of memory\n"
    assert not (tmp_path / "r.json").exists()


def test_parser_is_built_once_and_keeps_no_state(tmp_path, y1_csv):
    assert cli.build_parser() is cli.build_parser()
    assert run("analyze", y1_csv, "--threshold", 0.5, "--frame", 360, "-o", tmp_path / "a.json") == 0
    assert run("analyze", y1_csv, "-o", tmp_path / "b.json") == 0
    first, second = (json.loads((tmp_path / name).read_text()) for name in ("a.json", "b.json"))
    assert (first["threshold"], second["threshold"]) == (0.5, 0.05)
    assert second["frequency_labels"][str(first["columns"].index("p36_k1_l0"))] == pytest.approx(2.0)


def test_dict_exits_4_when_ridge_cannot_recover(tmp_path, y2_csv, monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", singular)
    assert run("dict", y2_csv, "-o", tmp_path / "d.json") == 4


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run("analyze")  # missing input
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 2


def test_stdout_report_when_no_output(tmp_path, y1_csv, capsys):
    assert run("analyze", y1_csv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["estimated_period"] == 36


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite JSON token {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("command", ["analyze", "dict"])
@pytest.mark.parametrize("value", ["nan", "inf", "-5", "0", "ten"])
def test_frame_must_be_finite_and_positive(y1_csv, capsys, command, value):
    with pytest.raises(SystemExit) as exc:
        run(command, y1_csv, "--frame", value)
    assert exc.value.code == 2
    assert "--frame" in capsys.readouterr().err


@pytest.mark.parametrize("basis", ["ccpt", "farey", "rpt"])
def test_singular_dictionary_reports_null_condition(tmp_path, basis):
    ramp = tmp_path / "ramp.csv"
    sigio.write_signal(ramp, np.arange(1.0, 11.0))
    out = tmp_path / "d.json"
    with pytest.warns(UserWarning, match="only 1 columns") as record:
        assert run("dict", ramp, "--pmax", 1, "--basis", basis, "-o", out) == 0
    assert [str(w.message) for w in record if not issubclass(w.category, UserWarning)] == []
    doc = _strict_json(out.read_text())
    assert doc["condition_estimate"] is None
    assert doc["ridge"] > 0.0


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["dict", "{y2}", "--penalty-exponent", "nan"], "--penalty-exponent"),
        (["dict", "{y2}", "--penalty-exponent", "inf"], "--penalty-exponent"),
        (["dict", "{y2}", "--pmax", "0"], "--pmax"),
        (["dict", "{y2}", "--pmax", "-4"], "--pmax"),
        (["gen", "--tiled-ccps", "5,1", "--len", "0", "-o", "{out}"], "--len"),
        (["gen", "--tiled-ccps", "5,1", "--len", "-3", "-o", "{out}"], "--len"),
    ],
)
def test_numeric_flags_are_checked_when_parsed(tmp_path, y2_csv, capsys, argv, flag):
    argv = [a.format(y2=y2_csv, out=tmp_path / "x.csv") for a in argv]
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("pair", ["5,3", "5,0", "0,1"])
def test_gen_invalid_tiled_pair_names_flag(tmp_path, capsys, pair):
    assert run("gen", "--tiled-ccps", pair, "-o", tmp_path / "x.csv") == 2
    assert "--tiled-ccps" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("basis", ["ccpt", "farey", "rpt"])
@pytest.mark.parametrize("exponent", ["170", "-100"])
def test_penalty_exponent_beyond_float_range_exits_2(tmp_path, y2_csv, capsys, basis, exponent):
    # f(p) = p^170 overflows a float at p = 66; the weights p^200 of -100 overflow from p = 35
    out = tmp_path / "d.json"
    assert run("dict", y2_csv, f"--penalty-exponent={exponent}", "--basis", basis, "-o", out) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: --penalty-exponent {exponent}: penalty f(")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("basis", ["ccpt", "farey", "rpt"])
def test_penalty_exponent_whose_weights_underflow_still_fits(tmp_path, y2_csv, capsys, basis):
    out = tmp_path / "d.json"
    assert run("dict", y2_csv, "--penalty-exponent", "100", "--basis", basis, "-o", out) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text())["penalty_exponent"] == 100.0


@pytest.mark.parametrize("target", ["dir", "missing/rows.csv"])
def test_unwritable_scan_csv_is_io_error(tmp_path, y2_csv, capsys, target):
    path = tmp_path / target
    if target == "dir":
        path.mkdir()
    assert run("scan", y2_csv, "--n1", 90, "--csv", path, "-o", tmp_path / "r.json") == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {path}: ")


def test_unwritable_report_is_io_error(tmp_path, y1_csv, capsys):
    assert run("analyze", y1_csv, "-o", tmp_path / "missing" / "r.json") == 3
    assert "r.json" in capsys.readouterr().err


_ANALYZE_KEYS = {
    "schema", "report", "method", "input", "threshold", "coefficients", "columns", "strengths",
    "significant_periods", "estimated_period", "status", "runtime_seconds", "complexity",
    "frequency_labels",
}
_SCAN_KEYS = {
    "schema", "report", "input", "n1", "n", "threshold", "records", "subspace_visits",
    "duplicated_projections", "complexity", "runtime_seconds",
}
_DICT_KEYS = {
    "schema", "report", "basis", "input", "p_max", "penalty_exponent", "threshold", "n_hat",
    "strengths", "significant_periods", "estimated_period", "status", "residual",
    "condition_estimate", "ridge", "frequencies", "complexity", "runtime_seconds",
}
_COMPARE_ROW_KEYS = {
    "method", "divisor_period", "non_divisor_period", "frequency", "multiplications", "unit",
    "formula", "wall_clock_seconds",
}


def test_report_shapes(tmp_path, y1_csv, y2_csv):
    def report(*argv):
        out = tmp_path / "r.json"
        assert run(*argv, "-o", out) == 0
        return _strict_json(out.read_text())

    for method in ("ccpt", "rpt", "dft"):
        doc = report("analyze", y1_csv, "--method", method, "--frame", 360)
        assert doc.keys() == _ANALYZE_KEYS
        assert doc["complexity"].keys() == {
            "method", "multiplications", "unit", "formula", "l_multiplier"
        }
        assert doc["complexity"]["method"] == method
    doc = report("scan", y2_csv, "--n1", 95)
    assert doc.keys() == _SCAN_KEYS
    assert doc["complexity"] == {
        "method": "scan-ccpt", "multiplications": 2 * sum(m * m for m in range(95, 101)), "unit": "real"
    }
    for basis in ("ccpt", "farey", "rpt"):
        doc = report("dict", y2_csv, "--pmax", 40, "--basis", basis, "--frame", 10)
        assert doc.keys() == _DICT_KEYS
        formula = "2L" if basis == "farey" else "L"
        assert doc["complexity"] == {"method": f"dict-{basis}", "formula": formula, "unit": "real"}
    doc = report("compare", y2_csv, "--dict")
    assert doc.keys() == {"schema", "report", "input", "rows"}
    methods = ["dft", "rpt", "ccpt", "dict-ccpt", "dict-farey", "dict-rpt"]
    assert [row["method"] for row in doc["rows"]] == methods
    for row in doc["rows"]:
        assert row.keys() == _COMPARE_ROW_KEYS
