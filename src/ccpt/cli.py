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
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import baselines, estimation, signalgen, sigio, transform
from .errors import NoPeriodicContent, NumericalError, SignalIoError

SCHEMA = "ccpt-report/1"
SIGNAL_SCHEMA = "ccpt-signal/1"


def _fraction(text: str) -> float:
    """A significance threshold: a finite number in (0, 1]."""
    try:
        value = float(text)
        if 0.0 < value <= 1.0:  # false for nan
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a finite number in (0, 1], got {text!r}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")


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
        "periods": [int(p) for p in profile.periods],
        "raw": [float(s) for s in profile.strengths],
        "fraction": [float(f) for f in profile.fractions()],
    }


@dataclass
class AnalysisReport:
    """Everything one analysis run produced, of which JSON is the wire form."""

    method: str
    input_meta: dict
    threshold: float
    coefficients: list[float]
    columns: list[str]
    profile: transform.PeriodStrengthProfile
    estimated_period: int | None
    status: str
    runtime_seconds: float
    complexity: baselines.ComplexityReport | None
    frequency_labels: dict[int, float] | None = None

    def as_dict(self) -> dict:
        complexity = None
        if self.complexity is not None:
            complexity = {
                "method": self.complexity.method,
                "multiplications": self.complexity.multiplications,
                "unit": self.complexity.unit,
                "formula": self.complexity.formula,
                "l_multiplier": self.complexity.l_multiplier,
            }
        doc = {
            "schema": SCHEMA,
            "report": "analysis",
            "method": self.method,
            "input": self.input_meta,
            "threshold": self.threshold,
            "coefficients": self.coefficients,
            "columns": self.columns,
            "strengths": _profile_dict(self.profile),
            "significant_periods": [int(p) for p in self.profile.significant(self.threshold)],
            "estimated_period": self.estimated_period,
            "status": self.status,
            "runtime_seconds": self.runtime_seconds,
            "complexity": complexity,
            "frequency_labels": (
                None
                if self.frequency_labels is None
                else {str(i): f for i, f in self.frequency_labels.items()}
            ),
        }
        return doc


def _dump_strengths(path, profile: transform.PeriodStrengthProfile) -> None:
    prof = _profile_dict(profile)
    sigio.write_matrix_csv(path, np.column_stack([prof["periods"], prof["raw"], prof["fraction"]]))


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


def _analyze_ccpt_like(x, method: str, frame: float | None):
    build = transform.build_ccpt_matrix if method == "ccpt" else baselines.build_rpt_matrix
    start = time.perf_counter()
    matrix = build(len(x))
    beta = matrix.forward(x)
    profile = transform.divisor_strengths(beta, matrix)
    elapsed = time.perf_counter() - start
    labels = None
    if method == "ccpt":
        labels = transform.frequency_labels(matrix, frame)
    columns = [sigio.column_label(lab) for lab in matrix.labels]
    return np.abs(beta.values), columns, profile, labels, elapsed


def _analyze_dft(x, frame: float | None):
    start = time.perf_counter()
    spectrum = baselines.dft(x)
    profile = baselines.dft_divisor_strengths(spectrum)
    elapsed = time.perf_counter() - start
    n = len(x)
    scale = float(n) if frame is None else frame
    labels = {k: ((k if k <= n // 2 else k - n) / n) * scale for k in range(n)}
    columns = [f"bin{k}" for k in range(n)]
    return np.abs(spectrum), columns, profile, labels, elapsed


def cmd_analyze(args) -> int:
    threshold = _threshold(args)
    x = sigio.read_signal(args.input)
    if args.method == "dft":
        magnitudes, columns, profile, labels, elapsed = _analyze_dft(x, args.frame)
    else:
        magnitudes, columns, profile, labels, elapsed = _analyze_ccpt_like(x, args.method, args.frame)
    period, status = _estimate(profile, threshold)
    report = AnalysisReport(
        method=args.method,
        input_meta=_input_meta(args.input, x),
        threshold=threshold,
        coefficients=[float(m) for m in magnitudes],
        columns=columns,
        profile=profile,
        estimated_period=period,
        status=status,
        runtime_seconds=elapsed,
        complexity=baselines.complexity_estimate(args.method, len(x)),
        frequency_labels=labels,
    )
    if args.dump_coefficients:
        rows = np.column_stack([np.arange(len(magnitudes)), magnitudes])
        sigio.write_matrix_csv(args.dump_coefficients, rows)
    if args.dump_strengths:
        _dump_strengths(args.dump_strengths, profile)
    _emit(args, report.as_dict())
    if status != "ok":
        print(f"error: {status}", file=sys.stderr)
        return 4
    return 0


# --- scan -------------------------------------------------------------------


def cmd_scan(args) -> int:
    threshold = _threshold(args)
    x = sigio.read_signal(args.input)
    start = time.perf_counter()
    result = estimation.range_scan(x, args.n1, threshold=threshold, jobs=args.jobs)
    elapsed = time.perf_counter() - start
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
        "complexity": {
            "method": "scan-ccpt",
            "multiplications": baselines.complexity_estimate(
                "scan-ccpt", result.n, result.n1
            ).multiplications,
            "unit": "real",
        },
        "runtime_seconds": elapsed,
    }
    if args.csv:
        lines = ["length,detected"]
        for rec in result.records:
            lines.append(f"{rec.length},{';'.join(str(p) for p in rec.detected)}")
        Path(args.csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
    _emit(args, doc)
    return 0


# --- dict -------------------------------------------------------------------


def cmd_dict(args) -> int:
    threshold = _threshold(args)
    x = sigio.read_signal(args.input)
    p_max = args.pmax if args.pmax is not None else estimation.default_p_max(len(x))
    exponent = args.penalty_exponent
    start = time.perf_counter()
    model = estimation.build_dictionary(
        len(x), p_max, penalty=lambda p: float(p) ** exponent, basis=args.basis
    )
    solution = estimation.dictionary_solve(model, x)
    profile = estimation.dictionary_strength_profile(solution, model)
    elapsed = time.perf_counter() - start
    period, status = _estimate(profile, threshold)
    frequencies = None
    if args.basis in ("ccpt", "farey"):
        scale = float(len(x)) if args.frame is None else args.frame
        frequencies = {}
        for p in profile.significant(threshold):
            span = model.spans[p]
            for lab, coef in zip(model.labels[span], solution.coefficients[span]):
                _, k, l = lab
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
        "condition_estimate": solution.condition,
        "ridge": solution.ridge,
        "frequencies": frequencies,
        "complexity": {
            "method": f"dict-{args.basis}",
            "formula": baselines.complexity_estimate(f"dict-{args.basis}", len(x)).formula,
            "unit": "real",
        },
        "runtime_seconds": elapsed,
    }
    if args.dump_strengths:
        _dump_strengths(args.dump_strengths, profile)
    _emit(args, doc)
    if status != "ok":
        print(f"error: {status}", file=sys.stderr)
        return 4
    return 0


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


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def cmd_compare(args) -> int:
    x = sigio.read_signal(args.input)
    n = len(x)
    rows = []
    runs = {
        "dft": lambda: baselines.dft(x),
        "rpt": lambda: baselines.build_rpt_matrix(n).forward(x),
        "ccpt": lambda: transform.build_ccpt_matrix(n).forward(x),
    }
    for method in ("dft", "rpt", "ccpt"):
        cap = _CAPABILITIES[method]
        report = baselines.complexity_estimate(method, n)
        rows.append(
            {
                "method": method,
                "divisor_period": cap[0],
                "non_divisor_period": cap[1],
                "frequency": cap[2],
                "multiplications": report.multiplications,
                "unit": report.unit,
                "formula": report.formula,
                "wall_clock_seconds": _timed(runs[method]),
            }
        )
    if args.dict:
        p_max = estimation.default_p_max(n)
        for basis in ("ccpt", "farey", "rpt"):
            method = f"dict-{basis}"
            cap = _CAPABILITIES[method]
            report = baselines.complexity_estimate(method, n)

            def run(basis=basis):
                model = estimation.build_dictionary(n, p_max, basis=basis)
                estimation.dictionary_solve(model, x)

            rows.append(
                {
                    "method": method,
                    "divisor_period": cap[0],
                    "non_divisor_period": cap[1],
                    "frequency": cap[2],
                    "multiplications": None,
                    "unit": report.unit,
                    "formula": report.formula,
                    "wall_clock_seconds": _timed(run),
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
    matrix = transform.build_ccpt_matrix(args.n)
    if args.block is not None:
        if args.block not in matrix.divisors:
            raise ValueError(f"{args.block} is not a divisor of {args.n}: {matrix.divisors}")
        span = matrix.block_span(args.block)
        data = matrix.matrix[:, span]
        labels = matrix.labels[span]
    else:
        data = matrix.matrix
        labels = matrix.labels
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


def _emit(args, doc: dict) -> None:
    text = sigio.canonical_json(doc)
    if getattr(args, "output", None):
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        print(text, end="")


def _add_threshold(p) -> None:
    p.add_argument(
        "--threshold",
        type=_fraction,
        default=None,
        help="significance threshold as a fraction of the peak block strength "
        "(default 0.05, or CCPT_THRESHOLD)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccpt",
        description="Periodic decomposition, period estimation, and baselines for CSV signals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a test signal CSV with a metadata sidecar")
    p.add_argument("--preset", choices=("y1", "y2"))
    p.add_argument("--tiled-ccps", metavar="P,K", help="tile the cosine-pair sequence (P,K)")
    p.add_argument("--len", dest="length", type=int, help="length for --tiled-ccps")
    p.add_argument("--seed", type=int, default=0, help="RNG seed for random presets")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("analyze", help="full-length transform, strengths, period estimate")
    p.add_argument("input")
    p.add_argument("--method", choices=("ccpt", "rpt", "dft"), default="ccpt")
    p.add_argument("--frame", type=float, help="samples per unit time for frequency labels")
    _add_threshold(p)
    p.add_argument("--dump-coefficients", metavar="CSV", help="write index,magnitude plot data")
    p.add_argument("--dump-strengths", metavar="CSV", help="write period,raw,fraction plot data")
    p.add_argument("-o", "--output", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("scan", help="divisor profiles over every truncation length in [n1, N]")
    p.add_argument("input")
    p.add_argument("--n1", type=int, required=True, help="smallest truncation length")
    _add_threshold(p)
    p.add_argument("--jobs", type=_positive_int, default=1, help="worker threads for scan lengths")
    p.add_argument("--csv", metavar="CSV", help="also write length,detected rows")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("dict", help="penalized dictionary fit for non-divisor periods")
    p.add_argument("input")
    p.add_argument("--pmax", type=int, help="largest candidate period (default min(0.8N, N-1))")
    p.add_argument("--penalty-exponent", type=float, default=2.0, help="penalty f(p) = p^e")
    p.add_argument("--basis", choices=("ccpt", "farey", "rpt"), default="ccpt")
    p.add_argument("--frame", type=float, help="samples per unit time for frequency labels")
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
