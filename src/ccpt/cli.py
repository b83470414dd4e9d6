"""Batch command line for signal generation, analysis, scans, and reports.

Subcommands: gen, analyze, scan, dict, compare, basis. All file output is
UTF-8; JSON reports carry a top-level schema key and serialize
canonically (sorted keys) so a parsed report re-serializes byte-identical.

Exit codes: 0 success, 2 usage error, 3 I/O error, 4 numerical failure.
The significance threshold defaults to 5% of the peak block strength and
can be overridden per-command with --threshold or globally with the
CCPT_THRESHOLD environment variable.
"""

import argparse
import functools
import math
import os
import sys
import time
import warnings
from itertools import chain
from pathlib import Path

import numpy as np

from . import baselines, estimation, signalgen, sigio, transform
from .ccps import ccps
from .errors import NoPeriodicContent, NumericalError, SignalIoError
from .numtheory import MAX_N, divisors, totient
from .transform import MAX_BASIS_BYTES

SCHEMA = "ccpt-report/1"
SIGNAL_SCHEMA = "ccpt-signal/1"


def _checked(convert, accept, wants: str):
    """An argparse type: convert the text, then keep values that `accept` admits (never nan)."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if accept(value):
            return value
        raise argparse.ArgumentTypeError(f"must be {wants}, got {text!r}")

    return parse


_fraction = _checked(float, lambda v: 0.0 < v <= 1.0, "a finite number in (0, 1]")
_positive_float = _checked(float, lambda v: 0.0 < v < math.inf, "a finite number > 0")
_finite_float = _checked(float, math.isfinite, "a finite number")
_positive_int = _checked(int, lambda v: v >= 1, "an integer >= 1")


def _threshold(args) -> float:
    if args.threshold is not None:
        return args.threshold
    env = os.environ.get("CCPT_THRESHOLD")
    if env is None:
        return transform.DEFAULT_THRESHOLD
    try:
        return _fraction(env)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"CCPT_THRESHOLD {exc}") from None


def _profile_dict(profile: transform.PeriodStrengthProfile) -> dict:
    return {
        "periods": list(profile.periods),
        "raw": profile.strengths.tolist(),
        "fraction": profile.fractions().tolist(),
    }


def _dump_strengths(path, profile: transform.PeriodStrengthProfile) -> None:
    prof = _profile_dict(profile)
    sigio.write_matrix_csv(path, np.column_stack([prof["periods"], prof["raw"], prof["fraction"]]))


def _read_input(args) -> np.ndarray:
    """The command's input signal, refused (a usage error) above MAX_N samples."""
    x = sigio.read_signal(args.input)
    if len(x) > MAX_N:
        raise ValueError(f"{args.command}: {args.input} holds {len(x)} samples; the supported cap is {MAX_N}")
    return x


def _input_meta(path, x: np.ndarray) -> dict:
    return {
        "source": str(path),
        "length": int(len(x)),
        "complex": bool(np.iscomplexobj(x)),
    }


def _estimate(profile, threshold) -> tuple[int | None, str]:
    try:
        return transform.estimate_period(profile, threshold), "ok"
    except NoPeriodicContent:
        return None, "no periodic content"


def _timed(fn, *args):
    """(fn(*args), wall-clock seconds the call took)."""
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _transform(x, method: str):
    """Forward transform and divisor strengths: (values, profile, matrix or None for dft)."""
    if method == "dft":
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed spectrum fails the profile below
            spectrum = baselines.dft(x)
        return spectrum, baselines.dft_divisor_strengths(spectrum), None
    build = transform.build_ccpt_matrix if method == "ccpt" else baselines.build_rpt_matrix
    matrix = build(len(x))
    beta = matrix.forward(x)
    return beta.values, transform.divisor_strengths(beta, matrix), matrix


def _fit(x, basis: str, p_max: int, exponent: float = 2.0):
    """Penalized dictionary fit with f(p) = p^exponent: (model, solution, profile)."""
    try:  # p_max and basis were checked when parsed, so the penalty is what can fail
        model = estimation.build_dictionary(len(x), p_max, penalty=lambda p: float(p) ** exponent, basis=basis)
    except ValueError as exc:
        raise ValueError(f"--penalty-exponent {exponent:g}: {exc}") from None
    solution = estimation.dictionary_solve(model, x)
    return model, solution, estimation.dictionary_strength_profile(solution, model)


def _complexity(method: str, n: int, *fields: str, n1: int | None = None) -> dict:
    """The method plus the named fields of its analytic multiplication count."""
    report = baselines.complexity_estimate(method, n, n1)
    return {"method": method, **{name: getattr(report, name) for name in fields}}


def _finish(args, doc: dict, status: str) -> int:
    """Write the report to -o or stdout; a run without an estimate exits 4."""
    if args.output:
        sigio.write_json(args.output, doc)
    else:
        print(sigio.canonical_json(doc), end="")
    if status != "ok":
        print(f"error: {status}", file=sys.stderr)
        return 4
    return 0


# --- gen -------------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.preset is None and args.tiled_ccps is None:
        raise ValueError("gen needs --preset or --tiled-ccps")
    if args.preset is not None and args.tiled_ccps is not None:
        raise ValueError("--preset and --tiled-ccps are mutually exclusive")
    if args.preset == "y1":
        spec = signalgen.SignalSpec(
            kind="preset-y1", length=signalgen.Y1_LENGTH, components=signalgen.Y1_COMPONENTS
        )
    elif args.preset == "y2":
        spec = signalgen.SignalSpec(kind="preset-y2", length=signalgen.Y2_LENGTH, seed=args.seed)
    else:
        try:
            p, k = (int(v) for v in args.tiled_ccps.split(","))
        except ValueError as exc:
            raise ValueError(f"--tiled-ccps wants P,K (got {args.tiled_ccps!r})") from exc
        try:
            ccps(p, k)
        except ValueError as exc:
            raise ValueError(f"--tiled-ccps {args.tiled_ccps}: {exc}") from None
        length = args.length if args.length is not None else p
        spec = signalgen.SignalSpec(kind="tiled-ccps", length=length, components=((p, k),))
    x = signalgen.generate(spec)
    out = Path(args.output)
    sigio.write_signal(out, x)
    meta = {"schema": SIGNAL_SCHEMA, **spec.metadata(), "complex": bool(np.iscomplexobj(x))}
    sigio.write_json(out.with_suffix(".meta.json"), meta)
    print(f"wrote {len(x)} samples to {out}")
    return 0


# --- analyze ----------------------------------------------------------------


def cmd_analyze(args) -> int:
    threshold = _threshold(args)
    x = _read_input(args)
    n = len(x)
    (values, profile, matrix), elapsed = _timed(_transform, x, args.method)
    magnitudes = np.abs(values)
    if matrix is None:
        scale = float(n) if args.frame is None else args.frame
        labels = {k: ((k if k <= n // 2 else k - n) / n) * scale for k in range(n)}
        columns = [f"bin{k}" for k in range(n)]
    else:
        labels = transform.frequency_labels(matrix, args.frame) if args.method == "ccpt" else None
        columns = [sigio.column_label(lab) for lab in matrix.labels]
    period, status = _estimate(profile, threshold)
    doc = {
        "schema": SCHEMA,
        "report": "analysis",
        "method": args.method,
        "input": _input_meta(args.input, x),
        "threshold": threshold,
        "coefficients": [float(m) for m in magnitudes],
        "columns": columns,
        "strengths": _profile_dict(profile),
        "significant_periods": [int(p) for p in profile.significant(threshold)],
        "estimated_period": period,
        "status": status,
        "runtime_seconds": elapsed,
        "complexity": _complexity(args.method, n, "multiplications", "unit", "formula", "l_multiplier"),
        "frequency_labels": None if labels is None else {str(i): f for i, f in labels.items()},
    }
    if args.dump_coefficients:
        rows = np.column_stack([np.arange(n), magnitudes])
        sigio.write_matrix_csv(args.dump_coefficients, rows)
    if args.dump_strengths:
        _dump_strengths(args.dump_strengths, profile)
    return _finish(args, doc, status)


# --- scan -------------------------------------------------------------------


def cmd_scan(args) -> int:
    threshold = _threshold(args)
    x = _read_input(args)
    result, elapsed = _timed(estimation.range_scan, x, args.n1, threshold)
    doc = {
        "schema": SCHEMA,
        "report": "scan",
        "input": _input_meta(args.input, x),
        "n1": result.n1,
        "n": result.n,
        "threshold": threshold,
        "records": [
            {
                "length": rec.length,
                "strengths": _profile_dict(rec.profile),
                "detected": [int(p) for p in rec.detected],
            }
            for rec in result.records
        ],
        "subspace_visits": {str(p): c for p, c in sorted(result.subspace_visits.items())},
        "duplicated_projections": result.duplicated_projections,
        "complexity": _complexity("scan-ccpt", result.n, "multiplications", "unit", n1=result.n1),
        "runtime_seconds": elapsed,
    }
    if args.csv:
        lines = ["length,detected"]
        for rec in result.records:
            lines.append(f"{rec.length},{';'.join(str(p) for p in rec.detected)}")
        sigio.write_text(args.csv, "\n".join(lines) + "\n")
    return _finish(args, doc, "ok")


# --- dict -------------------------------------------------------------------


def cmd_dict(args) -> int:
    threshold = _threshold(args)
    x = _read_input(args)
    n = len(x)
    p_max = args.pmax if args.pmax is not None else estimation.default_p_max(n)
    exponent = args.penalty_exponent
    (model, solution, profile), elapsed = _timed(_fit, x, args.basis, p_max, exponent)
    period, status = _estimate(profile, threshold)
    frequencies = None
    if args.basis in ("ccpt", "farey"):
        scale = float(n) if args.frame is None else args.frame
        frequencies = {}
        significant = profile.significant(threshold)
        coefficients = chain.from_iterable(solution.coefficients[model.spans[p]] for p in significant)
        for lab, coef in zip(model.block_labels(significant), coefficients):
            p, k, _ = lab
            frequencies[sigio.column_label(lab)] = {
                "frequency": (k % p) / p * scale,
                "magnitude": float(abs(coef)),
            }
    doc = {
        "schema": SCHEMA,
        "report": "dictionary",
        "basis": args.basis,
        "input": _input_meta(args.input, x),
        "p_max": p_max,
        "penalty_exponent": exponent,
        "threshold": threshold,
        "n_hat": model.n_hat,
        "strengths": _profile_dict(profile),
        "significant_periods": [int(p) for p in profile.significant(threshold)],
        "estimated_period": period,
        "status": status,
        "residual": solution.residual,
        # a singular system has condition inf, which JSON cannot carry
        "condition_estimate": solution.condition if math.isfinite(solution.condition) else None,
        "ridge": solution.ridge,
        "frequencies": frequencies,
        "complexity": _complexity(f"dict-{args.basis}", n, "formula", "unit"),
        "runtime_seconds": elapsed,
    }
    if args.dump_strengths:
        _dump_strengths(args.dump_strengths, profile)
    return _finish(args, doc, status)


# --- compare ----------------------------------------------------------------

_CAPABILITIES = {
    # method -> (divisor period, non-divisor period, frequency)
    "dft": (True, False, True),
    "rpt": (True, False, False),
    "ccpt": (True, False, True),
    "dict-ccpt": (True, True, True),
    "dict-farey": (True, True, True),
    "dict-rpt": (True, True, False),
}


def cmd_compare(args) -> int:
    x = _read_input(args)
    n = len(x)
    # each run times the region analyze or dict reports as runtime_seconds
    runs = [(method, _transform, (x, method)) for method in ("dft", "rpt", "ccpt")]
    if args.dict:
        p_max = estimation.default_p_max(n)
        runs += [(f"dict-{basis}", _fit, (x, basis, p_max)) for basis in ("ccpt", "farey", "rpt")]
    rows = []
    for method, fn, fn_args in runs:
        divisor, non_divisor, frequency = _CAPABILITIES[method]
        rows.append(
            {
                **_complexity(method, n, "multiplications", "unit", "formula"),
                "divisor_period": divisor,
                "non_divisor_period": non_divisor,
                "frequency": frequency,
                "wall_clock_seconds": _timed(fn, *fn_args)[1],
            }
        )
    doc = {
        "schema": SCHEMA,
        "report": "compare",
        "input": _input_meta(args.input, x),
        "rows": rows,
    }
    yn = {True: "yes", False: "no"}
    print(f"{'method':<12}{'divisor':<9}{'non-div':<9}{'freq':<6}{'multiplications':<22}wall clock (s)")
    for row in rows:
        count = row["formula"] if row["multiplications"] is None else str(row["multiplications"])
        print(
            f"{row['method']:<12}{yn[row['divisor_period']]:<9}{yn[row['non_divisor_period']]:<9}"
            f"{yn[row['frequency']]:<6}{count + ' (' + row['unit'] + ')':<22}"
            f"{row['wall_clock_seconds']:.6f}"
        )
    if args.output:
        sigio.write_json(args.output, doc)
    return 0


# --- basis ------------------------------------------------------------------


def cmd_basis(args) -> int:
    periods = divisors(args.n)
    if args.block is not None and args.block not in periods:
        raise ValueError(f"{args.block} is not a divisor of {args.n}: {periods}")
    width = args.n if args.block is None else totient(args.block)
    size = args.n * width * 8
    if size > MAX_BASIS_BYTES:
        block = "" if args.block is None else f" --block {args.block}"
        raise ValueError(
            f"basis {args.n}{block} would take {size / 2**20:.1f} MiB ({args.n}x{width} float64); "
            f"the cap is {MAX_BASIS_BYTES // 2**20} MiB"
        )
    if args.block is None:
        matrix = transform.build_ccpt_matrix(args.n)
        data, labels = matrix.matrix, matrix.labels
    else:
        block = transform.basis_block(args.n, args.block)
        data, labels = block.matrix, tuple((args.block, k, l) for k, l in block.labels)
    if args.output:
        sigio.write_matrix_csv(args.output, data, labels)
        print(f"wrote {data.shape[0]}x{data.shape[1]} matrix to {args.output}")
    else:
        header = ",".join(sigio.column_label(lab) for lab in labels)
        print(header)
        for row in np.atleast_2d(data):
            print(",".join(sigio.FLOAT_FMT % v for v in row))
    return 0


# --- wiring -----------------------------------------------------------------


def _add_threshold(p) -> None:
    p.add_argument(
        "--threshold",
        type=_fraction,
        default=None,
        help="significance threshold as a fraction of the peak block strength "
        "(default 0.05, or CCPT_THRESHOLD)",
    )


@functools.cache  # one build per process: a build costs about 20 parses
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccpt",
        description="Periodic decomposition, period estimation, and baselines for CSV signals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a test signal CSV with a metadata sidecar")
    p.add_argument("--preset", choices=("y1", "y2"))
    p.add_argument("--tiled-ccps", metavar="P,K", help="tile the cosine-pair sequence (P,K)")
    p.add_argument("--len", dest="length", type=_positive_int, help="length for --tiled-ccps")
    p.add_argument("--seed", type=int, default=0, help="RNG seed for random presets")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("analyze", help="full-length transform, strengths, period estimate")
    p.add_argument("input")
    p.add_argument("--method", choices=("ccpt", "rpt", "dft"), default="ccpt")
    p.add_argument("--frame", type=_positive_float, help="samples per unit time for frequency labels")
    _add_threshold(p)
    p.add_argument("--dump-coefficients", metavar="CSV", help="write index,magnitude plot data")
    p.add_argument("--dump-strengths", metavar="CSV", help="write period,raw,fraction plot data")
    p.add_argument("-o", "--output", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("scan", help="divisor profiles over every truncation length in [n1, N]")
    p.add_argument("input")
    p.add_argument("--n1", type=int, required=True, help="smallest truncation length")
    _add_threshold(p)
    p.add_argument("--jobs", type=_positive_int, default=1, help="ignored: scans run in one thread")
    p.add_argument("--csv", metavar="CSV", help="also write length,detected rows")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("dict", help="penalized dictionary fit for non-divisor periods")
    p.add_argument("input")
    p.add_argument("--pmax", type=_positive_int, help="largest candidate period (default min(0.8N, N-1))")
    p.add_argument("--penalty-exponent", type=_finite_float, default=2.0, help="penalty f(p) = p^e")
    p.add_argument("--basis", choices=("ccpt", "farey", "rpt"), default="ccpt")
    p.add_argument("--frame", type=_positive_float, help="samples per unit time for frequency labels")
    _add_threshold(p)
    p.add_argument("--dump-strengths", metavar="CSV", help="write period,raw,fraction plot data")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_dict)

    p = sub.add_parser("compare", help="capability/complexity/wall-clock comparison table")
    p.add_argument("input")
    p.add_argument("--dict", action="store_true", help="include dictionary rows")
    p.add_argument("-o", "--output", help="also write the table as JSON")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("basis", help="dump the synthesis matrix (or one block) as CSV")
    p.add_argument("n", type=int)
    p.add_argument("--block", type=int, help="dump only the block of this divisor period")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_basis)

    return parser


def _warning_line(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a warning shown during the run is one stable line, without a source location
    shown, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        return args.func(args)
    except SignalIoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # last resort: a size no check refused still exits as a numerical failure
        print(f"error: {args.command} ran out of memory", file=sys.stderr)
        return 4
    finally:
        warnings.formatwarning = shown


if __name__ == "__main__":
    sys.exit(main())
