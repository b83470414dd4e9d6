"""Steadiness check: run each workload k times and compare spreads with the bounds.

    python3 bench/steady.py --runs 10
    python3 bench/steady.py --runs 10 --first-seed 101 --against bench/out/steady-<stamp>.json

Run from the root of a source checkout. Round r uses seed first_seed + r and
runs the workloads in BENCHMARK.json order on even rounds and in reverse on
odd ones. Per workload and end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4), the spread (q3 - q1) / median and
whether that spread fits the metric's bound and a third of it. With
--against it also prints how far each median moved from an earlier set, in
the metric's worse direction, against the same bound. All values are saved
to bench/out/steady-<stamp>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run every workload k times and report spreads against bounds.")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--against", type=Path, help="an earlier steady-*.json to compare medians with")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    results = {name: [] for name in names}
    for r in range(args.runs):
        order = names if r % 2 == 0 else names[::-1]
        for name in order:
            started = time.monotonic()
            result = one_run(name, args.first_seed + r, seconds)
            results[name].append(result)
            print(f"round {r} {name}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} wall={time.monotonic() - started:.1f}s", flush=True)

    earlier = json.loads(args.against.read_text())["results"] if args.against else None
    print(f"\n{'workload':<9}{'metric':<44}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>8}{'bound':>7}  fits  <bound/3")
    for name in names:
        runs = results[name]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{name}: correct in {sum(r['correct'] for r in runs)}/{len(runs)} runs, failed shares {sorted(shares)}")
        for metric in metrics:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            s = summary(values)
            bound = metric["bound"]
            print(f"{name:<9}{metric['name']:<44}{s['median']:>12.5g}{s['q1']:>12.5g}{s['q3']:>12.5g}"
                  f"{s['spread']:>8.3f}{bound:>7}  {'yes' if s['spread'] <= bound else 'NO':>4}"
                  f"  {'yes' if s['spread'] <= bound / 3 else 'no':>4}")
            if earlier and name in earlier:
                before = statistics.median(r["metrics"][metric["name"]]["value"] for r in earlier[name])
                worse = (s["median"] - before) / before
                if metric["better"] == "higher":
                    worse = -worse
                print(f"{'':<9}{'  vs earlier median ' + format(before, '.5g'):<44}"
                      f"{'worse by ' + format(worse, '+.3f'):>24}  {'within bound' if worse <= bound else 'OUTSIDE bound'}")

    out = HERE / "out" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seconds": seconds, "first_seed": args.first_seed, "results": results}, indent=1))
    print(f"\nsaved {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
