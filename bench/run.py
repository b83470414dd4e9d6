"""Benchmark for ccpt: one workload per run, closed loop, one client.

    python3 bench/run.py --workload analyze --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. Every op is a call into ccpt from this process: CLI ops
through `ccpt.cli.main([...])`, frames ops through the library API. The op
list is fixed by the seed and sized by --seconds, and the run ends when the
list is done. Every op's output is checked (see checks.py).

With --trace 0 the last line of stdout is the end-to-end result. With
--trace 1 the run does the op list three times: untraced, traced (spans
around every call into ccpt, see layertrace.py), and, for the first ops, under
tracemalloc; the last line then carries the per-layer metrics.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("analyze", "frames", "scan", "dict")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7
TRACED_SETUPS = 3
ALLOC_OPS = 6


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help="time import and set-up only, print seconds")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def size_blas_pool(pinned):
    """One BLAS thread, or the library's own default; must run before numpy loads.

    scan keeps the default so the cost of an unsized BLAS pool stays visible;
    the other workloads pin one thread (trial figures in README.md).
    """
    for var in BLAS_VARS:
        if pinned:
            os.environ[var] = "1"
        else:
            os.environ.pop(var, None)


def import_package():
    if not (SRC / "ccpt" / "__init__.py").is_file():
        sys.exit(f"error: no ccpt package under {SRC}; run from a ccpt source checkout")
    sys.path.insert(0, str(SRC))
    import ccpt

    if Path(ccpt.__file__).resolve().parent != SRC / "ccpt":
        sys.exit(f"error: imported ccpt from {ccpt.__file__}, not from {SRC}")
    return ccpt


def timed_setup(args):
    """Import the package and do the workload's one-time set-up; seconds taken."""
    start = time.perf_counter()
    ccpt = import_package()
    imported = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
    begin = time.perf_counter()
    workload.setup(ccpt)
    return ccpt, workload, (imported - start) + (time.perf_counter() - begin)


def setup_probe_samples(args, count):
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def run_pass(workload, outdir, ops, marker=None):
    """Run ops in order; the outputs are kept for checks made after the loop.

    Checking between ops would evict the program's working set from the
    caches and put the checker's cost into the next op's time.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    times, failed, kept = [], 0, []
    with open(outdir / "kept.npy", "wb") as sink:
        for i in ops:
            if marker is not None:
                marker.op = i
            inp = workload.input(i)
            start = time.perf_counter_ns()
            try:
                out = workload.run(i, inp, outdir)
            except Exception as exc:  # the op failed; count it and go on
                out = None
                print(f"op {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            times.append(time.perf_counter_ns() - start)
            if out is None:
                failed += 1
            else:
                kept.append((i, workload.keep(out, sink)))
    return times, failed, kept


def check_pass(workload, outdir, kept):
    """Check every kept output; returns per-op figures and the failed checks."""
    figures, errors = {}, []
    with open(outdir / "kept.npy", "rb") as source:
        for i, handle in kept:
            try:
                figures[i] = workload.check(i, handle, source)
            except Exception as exc:  # a failed check is reported, not raised
                errors.append(f"op {i}: {type(exc).__name__}: {exc}")
    return figures, errors


def quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def by_round(workload, times):
    size = workload.round_size
    return [times[r : r + size] for r in range(0, len(times), size)]


def end_to_end(args, workload, workdir):
    times, failed, kept = run_pass(workload, workdir, range(len(workload)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _, errors = check_pass(workload, workdir, kept)
    setup = [args.in_process_setup] + setup_probe_samples(args, SETUP_SAMPLES - 1)
    rounds = by_round(workload, times)
    rates = [len(r) / (sum(r) / 1e9) for r in rounds]
    ms = [t / 1e6 for t in times]
    print(
        f"# {args.workload} seed={args.seed} ops={len(ms)} in {len(rounds)} rounds, failed={failed}; "
        f"all ops: p50={statistics.median(ms):.3f}ms p90={quantile(ms, 0.9):.3f}ms (n={len(ms)}); "
        f"round ops/s={['%.4g' % v for v in rates]}; setup samples={['%.3f' % s for s in setup]}; "
        f"blas threads={os.environ.get('OPENBLAS_NUM_THREADS', 'default')}"
    )
    metrics = {
        "ops_per_s": {"value": len(times) / (sum(times) / 1e9), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }
    return len(times), failed, errors, metrics


def per_layer(args, ccpt, workload, workdir):
    import layertrace as trace

    ops = range(len(workload))
    plain, failed, kept = run_pass(workload, workdir / "plain", ops)
    _, errors = check_pass(workload, workdir / "plain", kept)

    tracer = trace.Tracer()
    with trace.patched(ccpt, tracer.wrapper):
        for k in range(TRACED_SETUPS):
            tracer.op = trace.SETUP_OP - k
            workload.setup(ccpt)
        traced, fails, kept = run_pass(workload, workdir / "traced", ops, tracer)
    figures, errs = check_pass(workload, workdir / "traced", kept)
    failed, errors = failed + fails, errors + errs

    meter = trace.AllocMeter()
    alloc_ops = range(min(ALLOC_OPS, len(workload)))
    tracemalloc.start()
    try:
        with trace.patched(ccpt, meter.wrapper, only=trace.ALLOC_SPANS):
            workload.setup(ccpt)
            times, fails, kept = run_pass(workload, workdir / "alloc", alloc_ops, meter)
    finally:
        tracemalloc.stop()
    _, errs = check_pass(workload, workdir / "alloc", kept)
    failed, errors = failed + fails, errors + errs
    attempted = len(plain) + len(traced) + len(times)

    tracer.write(OUT / f"trace-{args.workload}.jsonl")
    metrics = trace.layer_metrics(tracer, meter, traced, plain, figures)
    print(
        f"# {args.workload} seed={args.seed} traced spans={len(tracer.spans)} "
        f"untraced p50={statistics.median(plain) / 1e6:.3f}ms traced p50={statistics.median(traced) / 1e6:.3f}ms"
    )
    return attempted, failed, errors, metrics


def main(argv=None):
    args = parse_args(argv)
    size_blas_pool(args.workload != "scan")
    ccpt, workload, setup_s = timed_setup(args)
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    args.in_process_setup = setup_s
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload.prepare(workdir)
        if args.trace:
            attempted, failed, errors, metrics = per_layer(args, ccpt, workload, workdir)
        else:
            attempted, failed, errors, metrics = end_to_end(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
