"""The four workloads: seeded inputs, the op each one times, and its check.

Inputs come from the run seed alone; the program sees only the CSV files
(CLI workloads) or the arrays (frames) made here. The op list is fixed by
the seed and its length by the run's seconds. Within each round, analyze and
dict give every method or basis the same stratified lengths, dealt over the
rounds without replacement, so the work of a run barely depends on the seed.
"""

import json
import math
import zlib

import numpy as np

import checks

ANALYZE_BAND = (200, 400)
ANALYZE_METHODS = ("ccpt", "rpt", "dft")
FRAME_N = 720
SCAN_N = 100
SCAN_N1 = 3
DICT_BAND = (92, 108)
DICT_BASES = ("ccpt", "farey", "rpt")


def rng_for(seed, name, *keys):
    return np.random.default_rng([seed, zlib.crc32(name.encode()), *keys])


def write_csv(path, x):
    path.write_text("".join(f"{v.real:.17g},{v.imag:.17g}\n" for v in x), encoding="utf-8")


def exponential_mix(rng, n, count):
    """Complex sum of `count` exponentials on distinct DFT bins of divisor periods."""
    periods = checks.divisors(n)
    bins = set()
    while len(bins) < count:
        p = int(rng.choice(periods))
        k = int(rng.choice(checks.pair_indices(p)))
        m = k * n // p
        bins.add(m if rng.random() < 0.5 else (n - m) % n)
    idx = np.arange(n)
    x = np.zeros(n, dtype=complex)
    for m in sorted(bins):
        amplitude = rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.random())
        x += amplitude * np.exp(2j * np.pi * m * idx / n)
    return x


def cosine_frame(rng, n):
    """Real frame: a few cosines at divisor periods of n, distinct pairs."""
    periods = checks.divisors(n)
    idx = np.arange(n)
    count = int(rng.integers(1, 5))
    pairs = set()
    while len(pairs) < count:
        p = int(rng.choice(periods))
        pairs.add((p, int(rng.choice(checks.pair_indices(p)))))
    x = np.zeros(n)
    for p, k in sorted(pairs):
        # p <= 2 has no phase freedom: cos(pi n + phase) scales with cos(phase)
        phase = 0.0 if p <= 2 else 2 * np.pi * rng.random()
        x += rng.uniform(0.5, 1.5) * np.cos(2 * np.pi * k * idx / p + phase)
    return x


def y2_family(rng, n):
    """5-periodic plus 7-periodic complex normal sequence, tiled to n samples."""

    def one_period(p):
        return (rng.standard_normal(p) + 1j * rng.standard_normal(p)) * np.sqrt(0.5)

    return np.tile(one_period(5), -(-n // 5))[:n] + np.tile(one_period(7), -(-n // 7))[:n]


def dealt_lengths(rng, band, count, rounds):
    """One length per stratum per round, dealt without replacement.

    The band is cut into `count` equal strata. Each stratum's lengths go out
    over the rounds in a seeded order, and a fresh order starts only once
    all of them have been used, so a length comes back within a run only
    when the rounds outnumber the stratum's lengths.
    """
    lo, hi = band
    edges = np.linspace(lo, hi + 1, count + 1)
    columns = []
    for a, b in zip(edges, edges[1:]):
        values = np.arange(int(a), max(int(a) + 1, int(b)))
        cycles = -(-rounds // len(values))
        columns.append(np.concatenate([rng.permutation(values) for _ in range(cycles)])[:rounds])
    return [[int(c[r]) for c in columns] for r in range(rounds)]


def rotation(rng, kinds, lengths):
    """(kind, length) per op of one round: kinds rotate over the same lengths.

    Every kind runs all of the round's lengths in its own order, and no two
    consecutive ops share a length.
    """
    count = len(lengths)
    while True:
        orders = [rng.permutation(lengths) for _ in kinds]
        ops = [(kind, int(order[j])) for j in range(count) for kind, order in zip(kinds, orders)]
        if all(a[1] != b[1] for a, b in zip(ops, ops[1:])):
            return ops


class Workload:
    """A seeded op list cut into rounds of the same mix.

    The run is max(3, seconds) rounds. A round holds about
    `per_op_rate * seconds / rounds` ops, rounded up to whole groups of the
    rotating kinds, so every round attempts the same mix.
    """

    per_op_rate = 1.0
    kinds = ("op",)
    band = None

    def __init__(self, seed, seconds):
        self.seed = seed
        rounds = max(3, seconds)
        per_kind = max(1, math.ceil(self.per_op_rate * seconds / rounds / len(self.kinds)))
        if self.band is None:
            self.plan = [(self.kinds[0], None)] * (per_kind * rounds)
        else:
            dealt = dealt_lengths(rng_for(seed, self.name, 2), self.band, per_kind, rounds)
            self.plan = []
            for r, lengths in enumerate(dealt):
                self.plan += rotation(rng_for(seed, self.name, 0, r), self.kinds, lengths)
        self.round_size = per_kind * len(self.kinds)

    def __len__(self):
        return len(self.plan)


class CliWorkload(Workload):
    """Ops that call ccpt.cli.main in-process on CSV files made from the seed."""

    def setup(self, ccpt):
        import ccpt.cli

        self.main = ccpt.cli.main

    def prepare(self, workdir):
        self.workdir = workdir
        for i in range(len(self)):
            write_csv(workdir / f"in{i}.csv", self.signal(i))

    def input(self, i):
        return self.workdir / f"in{i}.csv"

    def run(self, i, path, outdir):
        out = outdir / f"op{i}.json"
        return out if self.main([*self.argv(i, str(path)), "-o", str(out)]) == 0 else None

    def keep(self, out, sink):
        return out

    def check(self, i, out, source):
        """Check the report; return the figures the trace reads from it."""
        report = json.loads(out.read_text(encoding="utf-8"))
        self.check_report(i, report, self.signal(i))
        return {"report_kb": out.stat().st_size / 1024.0, **self.figures(report)}

    def figures(self, report):
        return {}


class Analyze(CliWorkload):
    name = "analyze"
    per_op_rate = 35.0
    kinds = ANALYZE_METHODS
    band = ANALYZE_BAND

    def signal(self, i):
        rng = rng_for(self.seed, self.name, 1, i)
        return exponential_mix(rng, self.plan[i][1], int(rng.integers(2, 5)))

    def argv(self, i, path):
        return ["analyze", path, "--method", self.plan[i][0]]

    def check_report(self, i, report, x):
        checks.require(report["method"] == self.plan[i][0], "method")
        checks.check_analysis(report, x)


class Scan(CliWorkload):
    name = "scan"
    per_op_rate = 1.8

    def signal(self, i):
        return y2_family(rng_for(self.seed, self.name, 1, i), SCAN_N)

    def argv(self, i, path):
        return ["scan", path, "--n1", str(SCAN_N1), "--jobs", "1"]

    def check_report(self, i, report, x):
        checks.check_scan(report, x, SCAN_N1)

    def figures(self, report):
        return {"distinct_periods": len(report["subspace_visits"])}


class Dict(CliWorkload):
    name = "dict"
    per_op_rate = 17.0
    kinds = DICT_BASES
    band = DICT_BAND

    def signal(self, i):
        return y2_family(rng_for(self.seed, self.name, 1, i), self.plan[i][1])

    def argv(self, i, path):
        return ["dict", path, "--basis", self.plan[i][0]]

    def check_report(self, i, report, x):
        checks.require(report["basis"] == self.plan[i][0], "basis")
        checks.check_dictionary(report, x)

    def figures(self, report):
        return {
            "n_hat": report["n_hat"],
            "ridge_fallback": int(report["ridge"] > 0.0),
        }


class Frames(Workload):
    """The README quick-start path over the frames of a seeded real recording."""

    name = "frames"
    per_op_rate = 450.0

    def setup(self, ccpt):
        """One matrix for every frame: build, condition and LU happen here."""
        self.ccpt = ccpt
        self.matrix = ccpt.build_ccpt_matrix(FRAME_N)
        self.matrix.forward(np.zeros(FRAME_N))
        self.frequencies = ccpt.frequency_labels(self.matrix)

    def prepare(self, workdir):
        self.checker = None

    def input(self, i):
        return cosine_frame(rng_for(self.seed, self.name, 1, i), FRAME_N)

    def run(self, i, x, outdir):
        beta = self.matrix.forward(x)
        profile = self.ccpt.divisor_strengths(beta, self.matrix)
        return beta.values, profile.periods, profile.strengths, self.ccpt.estimate_period(profile)

    def keep(self, out, sink):
        """Spill the outputs to disk: thousands of frames would swell peak RSS."""
        for part in out:
            np.save(sink, np.asarray(part))

    def check(self, i, out, source):
        if self.checker is None:  # built after the ops, so it stays out of peak RSS
            self.checker = checks.FrameChecker(FRAME_N)
        values, periods, strengths, period = (np.load(source) for _ in range(4))
        self.checker.check(
            self.input(i), self.matrix.labels, self.frequencies, values, [int(p) for p in periods], strengths, int(period)
        )
        return {}


WORKLOADS = {w.name: w for w in (Analyze, Frames, Scan, Dict)}
