"""Signal and matrix file formats shared by the CLI and the tests.

Signals are CSV, one sample per row: one column for real data, two
columns (real, imaginary) for complex data. Lines starting with '#' and
blank lines are ignored. Floats are written with 17 significant digits so
files round-trip exactly. Reports are canonical JSON (sorted keys, two-
space indent) so serializing a parsed report reproduces the bytes.
"""

import json
import math
from pathlib import Path

import numpy as np

from .errors import SignalIoError

FLOAT_FMT = "%.17g"


def read_signal(path) -> np.ndarray:
    """Load a CSV signal; returns float64 for 1 column, complex128 for 2.

    Unreadable files, malformed rows and non-finite samples raise
    SignalIoError naming the file and, for a row, its line number.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise SignalIoError(f"{path}: {exc}") from exc
    rows: list[tuple[float, ...]] = []
    width = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if width is None:
            width = len(parts)
            if width not in (1, 2):
                raise SignalIoError(
                    f"{path}:{lineno}: expected 1 or 2 columns, found {len(parts)}"
                )
        elif len(parts) != width:
            raise SignalIoError(
                f"{path}:{lineno}: ragged row has {len(parts)} columns, expected {width}"
            )
        try:
            row = tuple(float(p) for p in parts)
        except ValueError as exc:
            raise SignalIoError(f"{path}:{lineno}: {exc}") from exc
        if not all(math.isfinite(v) for v in row):
            raise SignalIoError(f"{path}:{lineno}: non-finite sample {line!r}")
        rows.append(row)
    if not rows:
        raise SignalIoError(f"{path}: no samples found")
    data = np.array(rows)
    if width == 1:
        return data[:, 0]
    return data[:, 0] + 1j * data[:, 1]


def write_signal(path, x) -> None:
    """Write a signal as CSV; complex data gets (real, imaginary) columns."""
    x = np.asarray(x)
    path = Path(path)
    lines = []
    if np.iscomplexobj(x):
        for v in x:
            lines.append(f"{FLOAT_FMT % v.real},{FLOAT_FMT % v.imag}")
    else:
        for v in x:
            lines.append(FLOAT_FMT % v)
    try:
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise SignalIoError(f"{path}: {exc}") from exc


def column_label(label: tuple) -> str:
    """Header cell for a basis column, e.g. p5_k2_l1 (pair) or p5_l3 (shift)."""
    p, k, l = label
    if k is None:
        return f"p{p}_l{l}"
    return f"p{p}_k{k}_l{l}"


def write_matrix_csv(path, matrix, labels=None) -> None:
    """Row-major CSV dump of a matrix with an optional label header row."""
    matrix = np.asarray(matrix)
    path = Path(path)
    lines = []
    if labels is not None:
        lines.append(",".join(column_label(lab) for lab in labels))
    for row in np.atleast_2d(matrix):
        lines.append(",".join(FLOAT_FMT % v for v in row))
    try:
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise SignalIoError(f"{path}: {exc}") from exc


def canonical_json(obj) -> str:
    """Deterministic strict JSON: sorted keys, fixed indent, trailing newline.

    A non-finite float raises ValueError, since JSON has no NaN or Infinity.
    """
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path, obj) -> None:
    try:
        Path(path).write_text(canonical_json(obj), encoding="utf-8")
    except OSError as exc:
        raise SignalIoError(f"{path}: {exc}") from exc
