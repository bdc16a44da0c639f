"""Benchmark for the erdos_clopen library: one closed-loop client, one thread.

    python3 bench/run.py --workload membership --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from its `src`
directory and nowhere else. With `--trace 0` the run sets up the workload
several times (imports, input generation, point pools, warm-up pass) and
reports the median set-up time, then walks the workload's task cycle for
`--seconds` seconds of operation time and prints the end-to-end metrics.
With `--trace 1` it sets up once and runs a fixed pass of operations twice,
untraced and then with a span around every public library function listed in
`tracing.py`, and prints the per-layer metrics; the counts of a traced run
depend only on the workload and the seed. Every output is checked against the
benchmark's own reference decisions, outside the timed region. Metrics are
printed one per line as `name value unit`; the last line of standard output
is one JSON object.
"""

from __future__ import annotations

import argparse
import gzip
import importlib
import json
import math
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns

from tracing import SPAN_NAMES, Tracer
from workloads import OUT_DIR, SCAN_RUNGS, WORKLOADS, VerifySuite

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("exact", "space", "clopen", "witness", "harness", "cli")
SETUPS = 5
PROBE_NOMINAL_S = 0.00025  # _probe_work on an uncontended 2.1 GHz Xeon core
PROBE_EVERY_NS = 10_000_000


class Library:
    """A fresh import of the erdos_clopen package from the checkout's `src`.

    Each instance purges the package from `sys.modules` first, so its
    caches start cold, as they would in a new process.
    """

    def __init__(self):
        for name in [n for n in sys.modules if n.split(".")[0] == "erdos_clopen"]:
            del sys.modules[name]
        self.pkg = importlib.import_module("erdos_clopen")
        if Path(self.pkg.__file__).resolve().parent != SRC / "erdos_clopen":
            raise ImportError(f"erdos_clopen imported from {self.pkg.__file__}, not {SRC}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"erdos_clopen.{name}"))

    def modules(self) -> list:
        return [self.pkg] + [getattr(self, name) for name in MODULES]


def _probe_work() -> int:
    """Fixed pure-Python work of the kind the library does: Fraction
    arithmetic, tuples, dicts and big-integer products."""
    table = {}
    total = Fraction(0)
    for i in range(1, 100):
        total += Fraction(i, i + 7)
        table[i % 31] = (i, total.numerator * total.denominator % 1000003)
    return sum(v for _, v in table.values())


class HostMeter:
    """How much slower than nominal the host ran a stretch of work.

    On a shared host the speed at which identical work runs drifts by up to
    2x as neighbours contend for the cores, in stretches that can outlast a
    whole run, so raw timings move from run to run with the neighbours'
    load rather than with the code. The meter times a fixed computation
    that does not touch the library, every PROBE_EVERY_NS while the work
    runs, and divides its mean time by that computation's time on an
    uncontended host. Library code and probe slow down together, so
    dividing the stretch's times by the factor leaves the code's own cost.
    """

    def __init__(self):
        self.probe_ns = 0
        self.probes = 0
        self._next = 0

    def tick(self) -> None:
        """Sample the probe if PROBE_EVERY_NS has passed since the last one."""
        if perf_counter_ns() < self._next:
            return
        start = perf_counter_ns()
        _probe_work()
        end = perf_counter_ns()
        self.probe_ns += end - start
        self.probes += 1
        self._next = end + PROBE_EVERY_NS

    def slowdown(self) -> float:
        return self.probe_ns / self.probes / 1e9 / PROBE_NOMINAL_S


def set_up(workload_name: str, seed: int, meter: HostMeter):
    """Import, generate inputs, build the pools and run the warm-up pass.

    Returns the workload and the set-up time, less the meter's probes.
    """
    start = perf_counter_ns()
    probe_ns = meter.probe_ns
    meter.tick()
    workload = WORKLOADS[workload_name](Library(), seed)
    meter.tick()
    for task in workload.warmup:
        try:
            workload.run(task)
        except Exception:  # counted as failed when the measured pass runs it
            pass
        meter.tick()
    elapsed_ns = perf_counter_ns() - start - (meter.probe_ns - probe_ns)
    return workload, elapsed_ns / 1e9


class Outcome:
    """Operations run, their latencies and the digests kept for checking."""

    def __init__(self, workload):
        self.workload = workload
        self.ops = 0
        self.failed = 0
        self.busy_ns = 0
        self.latencies_ms = []
        self.first = {}  # task -> first digest seen
        self.ops_per_task = {}
        self.errors = []

    def run(self, task: int) -> None:
        workload = self.workload
        weight = workload.weight
        start = perf_counter_ns()
        try:
            output = workload.run(task)
        except Exception as exc:  # a failed operation is counted, not fatal
            output = exc
        elapsed = perf_counter_ns() - start
        self.busy_ns += elapsed
        self.ops += weight
        self.latencies_ms.append(elapsed / weight / 1e6)
        if isinstance(output, Exception):
            self.failed += weight
            self.errors.append(f"task {task}: {output!r}")
            return
        digest = workload.digest(task, output)
        first = self.first.setdefault(task, digest)
        if first != digest:
            self.failed += weight
            self.errors.append(f"task {task}: output differs from an earlier run")
        else:
            self.ops_per_task[task] = self.ops_per_task.get(task, 0) + weight

    def check(self) -> None:
        """Verify each distinct output once; its repeats were compared to it."""
        for task, digest in self.first.items():
            if not self.workload.verify(task, digest):
                self.failed += self.ops_per_task.get(task, 0)
                self.errors.append(f"task {task}: output failed the check")


def _percentile(sorted_values: list, share: float) -> float:
    return sorted_values[math.ceil(share * len(sorted_values)) - 1]


def timed_run(workload_name: str, seed: int, seconds: float) -> tuple:
    """Walk the task cycle until `seconds` of operation time have passed,
    finishing the cycle in progress.

    Every cycle runs the same operations. The times of each cycle, and of
    each set-up, are divided by the host slowdown a `HostMeter` measured
    during it; metrics are medians over cycles (over set-ups for `setup_s`).
    The raw medians are printed alongside.
    """
    setups = []  # (set-up s, host slowdown)
    for _ in range(SETUPS):
        meter = HostMeter()
        workload, setup_s = set_up(workload_name, seed, meter)
        setups.append((setup_s, meter.slowdown()))
    outcome = Outcome(workload)
    cycles = []  # (ops, busy s, sorted latencies in ms, host slowdown)
    while outcome.busy_ns < seconds * 1e9:
        ops, busy_ns, first_latency = outcome.ops, outcome.busy_ns, len(outcome.latencies_ms)
        meter = HostMeter()
        for task in workload.tasks:
            outcome.run(task)
            meter.tick()
        cycles.append((outcome.ops - ops, (outcome.busy_ns - busy_ns) / 1e9,
                       sorted(outcome.latencies_ms[first_latency:]), meter.slowdown()))
    outcome.check()

    median = statistics.median
    metrics = {
        "ops_per_s": (median(ops / busy * slow for ops, busy, _, slow in cycles), "1/s"),
        "op_p50_ms": (median(median(lat) / slow for _, _, lat, slow in cycles), "ms"),
        "op_p99_ms": (median(_percentile(lat, 0.99) / slow for _, _, lat, slow in cycles),
                      "ms"),
        "setup_s": (median(setup_s / slow for setup_s, slow in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "failed_ratio": (outcome.failed / outcome.ops, "ratio"),
        "raw_ops_per_s": (median(ops / busy for ops, busy, _, _ in cycles), "1/s"),
        "raw_op_p50_ms": (median(median(lat) for _, _, lat, _ in cycles), "ms"),
        "raw_op_p99_ms": (median(_percentile(lat, 0.99) for _, _, lat, _ in cycles), "ms"),
        "raw_setup_s": (median(setup_s for setup_s, _ in setups), "s"),
        "host_slowdown": (median(slow for _, _, _, slow in cycles), "ratio"),
        "cycles": (len(cycles), "count"),
        "latency_samples_per_cycle": (len(cycles[0][2]), "count"),
    }
    return outcome, metrics, notes


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _cache_counts(cache_fn) -> tuple:
    info = cache_fn.cache_info()
    return info.hits, info.misses


def traced_run(workload_name: str, seed: int) -> tuple:
    workload, _ = set_up(workload_name, seed, HostMeter())
    lib = workload.lib
    outcome = Outcome(workload)
    for task in workload.trace_tasks:
        outcome.run(task)
    untraced_ns = outcome.busy_ns

    caches = {"pair": lib.clopen._cached_pair, "root": lib.exact._root_enclosure}
    before = {key: _cache_counts(fn) for key, fn in caches.items()}
    rung_counts = {rung: [0, 0] for rung in SCAN_RUNGS}
    scan_rung = getattr(workload, "scan_rung", {})
    tracer = Tracer()
    tracer.install(lib)
    try:
        for op, task in enumerate(workload.trace_tasks):
            tracer.op = op
            pair_before = _cache_counts(caches["pair"])
            outcome.run(task)
            rung = scan_rung.get(task)
            if rung is not None:
                pair_after = _cache_counts(caches["pair"])
                rung_counts[rung][0] += pair_after[0] - pair_before[0]
                rung_counts[rung][1] += pair_after[1] - pair_before[1]
    finally:
        tracer.uninstall()
    traced_ns = outcome.busy_ns - untraced_ns
    outcome.check()
    after = {key: _cache_counts(fn) for key, fn in caches.items()}

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (tracer.calls[name], "count")
        metrics[f"{name}.self_s"] = (tracer.self_ns[name] / 1e9, "s")
    for claim in VerifySuite.CLAIMS:
        metrics[f"harness.verify_claim.{claim}.s"] = (
            tracer.total_ns[f"harness.verify_claim.{claim}"] / 1e9, "s")
    for key, metric in (("pair", "clopen.pair_cache"), ("root", "exact.root_enclosure")):
        hits = after[key][0] - before[key][0]
        misses = after[key][1] - before[key][1]
        metrics[f"{metric}.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
        metrics[f"{metric}.hits"] = (hits, "count")
        metrics[f"{metric}.misses"] = (misses, "count")
    for rung, (hits, misses) in rung_counts.items():
        metrics[f"witness.pair_cache.hit_ratio.r_{rung.numerator}_{rung.denominator}"] = (
            _ratio(hits, hits + misses), "ratio")
    metrics["clopen.in_A_per_in_O"] = (
        _ratio(tracer.nested_calls("clopen.in_A", "clopen.in_O"),
               tracer.calls["clopen.in_O"]), "ratio")
    report_bytes = (sum(outcome.first[task][2] for task in workload.trace_tasks
                        if task in outcome.first)
                    if isinstance(workload, VerifySuite) else 0)
    metrics["cli.report_bytes"] = (report_bytes, "bytes")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.untraced_pass_s"] = (untraced_ns / 1e9, "s")
    metrics["trace.traced_pass_s"] = (traced_ns / 1e9, "s")
    metrics["trace.overhead_pct"] = (100 * (traced_ns / untraced_ns - 1), "%")

    spans_path = OUT_DIR / f"spans-{workload_name}-{seed}.tsv.gz"
    with gzip.open(spans_path, "wt", encoding="utf-8", compresslevel=1) as handle:
        tracer.write(handle)
    notes = {"failed_ratio": (_ratio(outcome.failed, outcome.ops), "ratio"),
             "spans_file": (spans_path.relative_to(ROOT), "path")}
    return outcome, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "erdos_clopen" / "__init__.py").is_file():
        sys.stderr.write(f"error: no erdos_clopen package under {SRC}; "
                         "run from a checkout of the repository\n")
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)

    if args.trace:
        outcome, metrics, notes = traced_run(args.workload, args.seed)
    else:
        outcome, metrics, notes = timed_run(args.workload, args.seed, args.seconds)

    for error in outcome.errors[:20]:
        sys.stderr.write(f"failed: {error}\n")
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={outcome.ops} failed={outcome.failed}")
    for name, (value, unit) in {**metrics, **notes}.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.ops,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
