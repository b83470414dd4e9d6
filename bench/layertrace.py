"""Outside-in layer trace: spans around every call into ccpt's public functions.

The tracer wraps, from the benchmark's side, each public function and public
method defined in the traced modules, and rebinds every name in the package
that refers to one of them, so calls through `from .x import y` bindings are
seen as well. The cli layer is one span, `cli.main`; its helpers count as its
self time. A span records its name, start, end, parent span and op id; spans
stay in memory and are written out when the run ends. One thread only: the
span stack is shared, which the benchmark's `--jobs 1` scan satisfies.

A separate allocation pass measures, with tracemalloc, the peak memory that
each call to the matrix and dictionary builds and the dictionary solve adds.
"""

import contextlib
import importlib
import inspect
import json
import statistics
import time
import tracemalloc

TRACED_MODULES = ("numtheory", "ccps", "transform", "baselines", "estimation", "sigio", "cli")
ALLOC_FUNCTIONS = (
    ("transform", "build_ccpt_matrix"),
    ("estimation", "build_dictionary"),
    ("estimation", "dictionary_solve"),
)
SETUP_OP = -1  # op id of the workload's set-up; repeated set-ups count down from it


def _targets(package):
    """(owner, attribute, function, span name) for every traced callable."""
    found = []
    for layer in TRACED_MODULES:
        module = importlib.import_module(f"{package.__name__}.{layer}")
        names = ["main"] if layer == "cli" else sorted(vars(module))
        for name in names:
            obj = vars(module)[name]
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found.append((module, name, obj, f"{layer}.{name}"))
            elif inspect.isclass(obj):
                for attr, member in sorted(vars(obj).items()):
                    if not attr.startswith("_") and inspect.isfunction(member):
                        found.append((obj, attr, member, f"{layer}.{obj.__name__}.{attr}"))
    return found


@contextlib.contextmanager
def patched(package, make_wrapper, only=None):
    """Swap traced callables for wrappers at every binding in the package."""
    targets = _targets(package)
    if only is not None:
        targets = [t for t in targets if t[3] in only]
    wrappers = {fn: make_wrapper(span, fn) for _, _, fn, span in targets}
    modules = [package] + [importlib.import_module(f"{package.__name__}.{m}") for m in TRACED_MODULES]
    undo = []
    for owner, attr, fn, _ in targets:
        if inspect.isclass(owner):
            undo.append((owner, attr, fn))
            setattr(owner, attr, wrappers[fn])
    for module in modules:
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                undo.append((module, name, obj))
                setattr(module, name, wrappers[obj])
    try:
        yield
    finally:
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)


class Tracer:
    """In-memory span recorder; `op` is set by the caller before each op."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, op]
        self.op = SETUP_OP
        self._stack = []

    def wrapper(self, span, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            record = [span, 0, 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")

    def per_op(self):
        """{op: {span name: [self ns, calls, whole ns]}} and {op: ns covered by root spans}."""
        child = [0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table, covered = {}, {}
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            cell = table.setdefault(op, {}).setdefault(name, [0, 0, 0])
            cell[0] += end - start - child[i]
            cell[1] += 1
            cell[2] += end - start
            if parent < 0:
                covered[op] = covered.get(op, 0) + end - start
        return table, covered


class AllocMeter:
    """Peak bytes each wrapped call adds above the traced level at its entry."""

    def __init__(self):
        self.op = SETUP_OP
        self.peaks = {}  # {(span, op): largest peak in MiB}

    def wrapper(self, span, fn):
        def measured(*args, **kwargs):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                grown = (tracemalloc.get_traced_memory()[1] - before) / 2**20
                key = (span, self.op)
                self.peaks[key] = max(self.peaks.get(key, 0.0), grown)

        return measured


ALLOC_SPANS = frozenset(f"{layer}.{name}" for layer, name in ALLOC_FUNCTIONS)

# per-layer metric -> (unit, better, how it is read). "self" is the median over
# the timed ops that entered the span of its summed self time; "calls" the
# median call count; "layer_*" the same over every span of a module;
# "setup_self" and "setup_total" the span's self and whole time in the set-up,
# median over its repeats.
LAYER_METRICS = {
    "cli.main.self_ms": ("ms", "lower", ("self", "cli.main")),
    "sigio.read_signal.ms": ("ms", "lower", ("self", "sigio.read_signal")),
    "sigio.canonical_json.ms": ("ms", "lower", ("self", "sigio.canonical_json")),
    "sigio.report_kb": ("KiB", "lower", ("figure", "report_kb")),
    "transform.build_ccpt_matrix.ms": ("ms", "lower", ("self", "transform.build_ccpt_matrix")),
    "transform.basis_block.calls": ("count", "lower", ("calls", "transform.basis_block")),
    "transform.basis_block.ms": ("ms", "lower", ("self", "transform.basis_block")),
    "transform.condition.ms": ("ms", "lower", ("self", "transform.NestedPeriodicMatrix.condition")),
    "transform.forward.ms": ("ms", "lower", ("self", "transform.NestedPeriodicMatrix.forward")),
    "transform.divisor_strengths.ms": ("ms", "lower", ("self", "transform.divisor_strengths")),
    "transform.frequency_labels.ms": ("ms", "lower", ("self", "transform.frequency_labels")),
    "transform.build_ccpt_matrix.alloc_mb": ("MB", "lower", ("alloc", "transform.build_ccpt_matrix")),
    "setup.transform.build_ccpt_matrix.total_ms": ("ms", "lower", ("setup_total", "transform.build_ccpt_matrix")),
    "setup.transform.condition.ms": ("ms", "lower", ("setup_self", "transform.NestedPeriodicMatrix.condition")),
    "setup.transform.forward.ms": ("ms", "lower", ("setup_self", "transform.NestedPeriodicMatrix.forward")),
    "baselines.build_rpt_matrix.ms": ("ms", "lower", ("self", "baselines.build_rpt_matrix")),
    "baselines.ramanujan_sum.calls": ("count", "lower", ("calls", "baselines.ramanujan_sum")),
    "baselines.dft.ms": ("ms", "lower", ("self", "baselines.dft")),
    "baselines.dft_divisor_strengths.ms": ("ms", "lower", ("self", "baselines.dft_divisor_strengths")),
    "estimation.range_scan.self_ms": ("ms", "lower", ("self", "estimation.range_scan")),
    "estimation.scan.unique_subspace_ratio": ("ratio", "higher", ("unique_ratio", None)),
    "estimation.build_dictionary.ms": ("ms", "lower", ("self", "estimation.build_dictionary")),
    "estimation.build_dictionary.alloc_mb": ("MB", "lower", ("alloc", "estimation.build_dictionary")),
    "estimation.dictionary.n_hat": ("count", "lower", ("figure", "n_hat")),
    "estimation.dictionary_solve.ms": ("ms", "lower", ("self", "estimation.dictionary_solve")),
    "estimation.dictionary_solve.alloc_mb": ("MB", "lower", ("alloc", "estimation.dictionary_solve")),
    "estimation.dictionary_solve.ridge_fallbacks": ("count", "lower", ("figure_sum", "ridge_fallback")),
    "estimation.dictionary_strength_profile.ms": ("ms", "lower", ("self", "estimation.dictionary_strength_profile")),
    "numtheory.calls": ("count", "lower", ("layer_calls", "numtheory.")),
    "numtheory.ms": ("ms", "lower", ("layer_self", "numtheory.")),
    "ccps.ccps.calls": ("count", "lower", ("calls", "ccps.ccps")),
    "ccps.ccps.ms": ("ms", "lower", ("self", "ccps.ccps")),
    "untraced.ms": ("ms", "lower", ("untraced", None)),
    "trace.overhead_ms": ("ms", "lower", ("overhead", None)),
}


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer, alloc, op_ns_traced, op_ns_plain, figures):
    """Every per-layer metric of one traced run.

    A metric whose layer no op entered reads 0. The set-up repeats (ops
    SETUP_OP and below) are kept out of the per-op medians and read only by
    the `setup.*` metrics, so work moved into set-up shows there.
    """
    table, covered = tracer.per_op()
    timed = [cells for op, cells in table.items() if op >= 0]
    setups = [cells for op, cells in table.items() if op <= SETUP_OP]
    out = {}
    for metric, (unit, _, (kind, key)) in LAYER_METRICS.items():
        if kind in ("self", "calls", "layer_self", "layer_calls"):
            index = 0 if kind.endswith("self") else 1
            per_op = []
            for cells in timed:
                if kind in ("self", "calls"):
                    hit = [cells[key]] if key in cells else []
                else:
                    hit = [c for name, c in cells.items() if name.startswith(key)]
                if hit:
                    per_op.append(sum(c[index] for c in hit))
            value = _median(per_op)
            if index == 0:
                value /= 1e6
        elif kind in ("setup_self", "setup_total"):
            index = 0 if kind == "setup_self" else 2
            value = _median([cells.get(key, [0, 0, 0])[index] / 1e6 for cells in setups])
        elif kind == "alloc":
            value = _median([mb for (span, _), mb in alloc.peaks.items() if span == key])
        elif kind == "figure":
            value = _median([f[key] for f in figures.values() if key in f])
        elif kind == "figure_sum":
            value = float(sum(f.get(key, 0) for f in figures.values()))
        elif kind == "unique_ratio":
            value = _median(
                [
                    f["distinct_periods"] / table[op]["transform.basis_block"][1]
                    for op, f in figures.items()
                    if "distinct_periods" in f and "transform.basis_block" in table.get(op, {})
                ]
            )
        elif kind == "untraced":
            value = _median([(ns - covered.get(op, 0)) / 1e6 for op, ns in enumerate(op_ns_traced)])
        else:
            value = _median([(a - b) / 1e6 for a, b in zip(op_ns_traced, op_ns_plain)])
        out[metric] = {"value": value, "unit": unit}
    return out
