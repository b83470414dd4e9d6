import json

import numpy as np
import pytest

from ccpt import sigio
from ccpt.errors import SignalIoError


def test_real_signal_round_trip(tmp_path):
    x = np.array([1.0, -2.5, 1e-17, 3.141592653589793])
    path = tmp_path / "real.csv"
    sigio.write_signal(path, x)
    back = sigio.read_signal(path)
    assert not np.iscomplexobj(back)
    assert np.array_equal(back, x)


def test_complex_signal_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    path = tmp_path / "cpx.csv"
    sigio.write_signal(path, x)
    back = sigio.read_signal(path)
    assert np.iscomplexobj(back)
    assert np.array_equal(back, x)


def test_comments_and_blank_lines_skipped(tmp_path):
    path = tmp_path / "sig.csv"
    path.write_text("# header\n1.5\n\n# mid comment\n-2\n")
    assert np.array_equal(sigio.read_signal(path), [1.5, -2.0])


def test_ragged_rows_report_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,4\n5\n")
    with pytest.raises(SignalIoError, match=r"bad\.csv:3"):
        sigio.read_signal(path)


def test_ragged_rows_fail_even_when_the_field_total_matches(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3\n4,5,6\n")  # 6 fields, as 3 complex rows would have
    with pytest.raises(SignalIoError, match=r"bad\.csv:2: ragged row has 1 columns, expected 2"):
        sigio.read_signal(path)


def test_first_bad_line_is_reported(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\nnan,3\n4,5\n6\n")
    with pytest.raises(SignalIoError, match=r"bad\.csv:2: non-finite"):
        sigio.read_signal(path)


def test_whitespace_around_fields_is_accepted(tmp_path):
    path = tmp_path / "sig.csv"
    path.write_text(" 1.5 , -2\n3,\t4 \n")
    assert np.array_equal(sigio.read_signal(path), [1.5 - 2j, 3 + 4j])


def test_parse_failure_reports_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# ok\n1.0\nnot-a-number\n")
    with pytest.raises(SignalIoError, match=r"bad\.csv:3"):
        sigio.read_signal(path)


@pytest.mark.parametrize("row", ["nan", "inf", "-Infinity", "1.0,nan", "inf,0"])
def test_non_finite_sample_reports_line_number(tmp_path, row):
    path = tmp_path / "bad.csv"
    width = len(row.split(","))
    path.write_text(",".join(["1.0"] * width) + "\n" + row + "\n")
    with pytest.raises(SignalIoError, match=r"bad\.csv:2: non-finite"):
        sigio.read_signal(path)


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(SignalIoError):
        sigio.read_signal(tmp_path / "absent.csv")


def test_empty_file_is_io_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# nothing\n")
    with pytest.raises(SignalIoError):
        sigio.read_signal(path)


def test_too_many_columns_rejected(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("1,2,3\n")
    with pytest.raises(SignalIoError, match=r"wide\.csv:1"):
        sigio.read_signal(path)


def test_matrix_csv_header_and_values(tmp_path):
    path = tmp_path / "m.csv"
    matrix = np.array([[1.0, 0.5], [0.25, -1.0]])
    sigio.write_matrix_csv(path, matrix, labels=((5, 1, 0), (5, None, 3)))
    lines = path.read_text().splitlines()
    assert lines[0] == "p5_k1_l0,p5_l3"
    assert lines[1] == "1,0.5"


def test_canonical_json_round_trips_byte_identical():
    doc = {"b": [1.0, 2.5e-17], "a": {"nested": None, "z": "text"}}
    text = sigio.canonical_json(doc)
    again = sigio.canonical_json(json.loads(text))
    assert text == again
    assert text.endswith("\n")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_canonical_json_rejects_non_finite(value):
    with pytest.raises(ValueError):
        sigio.canonical_json({"x": [1.0, value]})
