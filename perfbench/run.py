"""Benchmark entry point: one workload, one seed, a fixed measuring time.

Usage, from the repository root::

    python3 perfbench/run.py --workload tables-cold --seed 0 --seconds 15 --trace 0

The run sets up (imports, and for ``tables-warm`` fills a store), then
repeats passes of the workload for about ``--seconds``.  With
``--trace 0`` every pass is untraced and the run reports the end-to-end
metrics; with ``--trace 1`` untraced and traced passes alternate and the
run reports the per-layer metrics.  Every pass is checked: against the
reference outputs at seed 0, against the first pass always, and on
traced passes against the exact per-pass layer call counts.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import reference
from tracing import NullTracer, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("tables-cold", "tables-warm", "sweep-assoc", "run-classify")

#: Passes every run makes however long they take: two untraced passes,
#: or one untraced and one traced pass.
MIN_PASSES = 2

#: Fresh interpreters timed for ``setup_s``; the median is reported.
IMPORT_SAMPLES = 3
IMPORT_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import repro.experiments, repro.runtime.driver, repro.store, repro.sweep"
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "miss_reduction_pct": "%",
    "success_rate": "ratio",
}

PER_LAYER_UNITS = {
    "trace.record_s": "s",
    "trace.record_calls": "count",
    "trace.events": "count",
    "trace.events_per_s": "1/s",
    "profiling.profile_s": "s",
    "profiling.profile_calls": "count",
    "profiling.events_per_s": "1/s",
    "profiling.trg_edges": "count",
    "core.place_s": "s",
    "core.place_calls": "count",
    "runtime.measure_s": "s",
    "runtime.measure_calls": "count",
    "runtime.measure_self_s": "s",
    "cache.consume_s": "s",
    "cache.events": "count",
    "cache.dm_events_per_s": "1/s",
    "cache.assoc_events_per_s": "1/s",
    "cache.classify_events_per_s": "1/s",
    "store.get_s": "s",
    "store.get_calls": "count",
    "store.hit_ratio": "ratio",
    "store.put_s": "s",
    "store.put_calls": "count",
    "store.bytes_written": "B",
    "store.save_trace_s": "s",
    "store.save_trace_calls": "count",
    "store.probe_s": "s",
    "sched.run_s": "s",
    "sched.self_s": "s",
    "sched.jobs_total": "count",
    "sched.jobs_executed": "count",
    "sched.jobs_deduped": "count",
    "sched.executed_ratio": "ratio",
    "experiments.self_s": "s",
    "bench.span_coverage": "ratio",
    "bench.tracing_overhead_s": "s",
}


@dataclass
class PassRecord:
    traced: bool
    #: Host seconds of the timed pass.
    wall: float
    #: Peak resident memory of the process so far, after the pass.
    peak_rss_mib: float = 0.0
    out: object = None
    layers: dict | None = None
    error: str | None = None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 runs the pinned paper inputs")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: alternate traced passes, report per-layer metrics")
    return parser.parse_args(argv)


def time_imports() -> float:
    """Median wall time of a fresh interpreter importing the program."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET, str(SRC)],
            cwd=ROOT, check=True, timeout=120,
        )
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def stamp(seed: int) -> dict:
    """Where and on what this record was measured."""
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
        if result.returncode == 0:
            commit = result.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def run_pass(bench, traced: bool, first_ops, expected):
    """One prepared, timed and checked pass.

    ``first_ops`` are the run's first pass's ops, ``expected`` the
    reference (seed 0 only); either may be ``None``.
    """
    bench.prepare()
    tracer = Tracer() if traced else NullTracer()
    start = time.perf_counter()
    try:
        with tracer.installed() if traced else nullcontext():
            start = time.perf_counter()
            bench.run(tracer)
            wall = time.perf_counter() - start
        out = bench.collect()
    except Exception:
        return PassRecord(traced, time.perf_counter() - start,
                          error=traceback.format_exc())
    if expected is not None:
        reference.check(bench.name, expected, out)
    if first_ops is not None:
        for label, value in out.ops.items():
            if label not in out.failures and value != first_ops.get(label):
                out.failures[label] = "differs from the run's first pass"
    layers = None
    if traced:
        layers = layer_metrics(tracer.spans, wall)
        layers["store.bytes_written"] = out.bytes_written
        for key, expected in bench.expected_calls.items():
            if layers[key] != expected:
                out.pass_failures.append(f"{key}={layers[key]}, expected {expected}")
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return PassRecord(traced, wall, peak_rss_mib, out=out, layers=layers)


def failed_ops(record: PassRecord, ops_per_pass: int) -> int:
    """Ops of one pass that count as failed: all of them on a pass-level fault."""
    if record.error or record.out.pass_failures:
        return ops_per_pass
    missing = ops_per_pass - len(record.out.ops)
    return min(ops_per_pass, len(record.out.failures) + max(0, missing))


def reduction_pct(natural: list[float], placed: list[float]) -> float:
    """Reduction of the mean miss rate, CCDP against natural, in percent."""
    total = sum(natural)
    return 100.0 * (total - sum(placed)) / total if total else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import_s = time_imports()
    import workloads

    bench = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    try:
        fill_start = time.perf_counter()
        bench.setup()
        setup_s = import_s + time.perf_counter() - fill_start
        print(f"setup: {setup_s:.3f}s (fresh-interpreter imports {import_s:.3f}s)")
        records = measure(bench, args)
    finally:
        bench.close()

    attempted = bench.ops_per_pass * len(records)
    failed = sum(failed_ops(record, bench.ops_per_pass) for record in records)
    good = [record for record in records if not record.error]
    untraced = [record.wall for record in good if not record.traced]
    if args.trace:
        traced = [record for record in good if record.traced]
        units = PER_LAYER_UNITS
        metrics = {key: 0.0 for key in units}
        if traced:
            for key, unit in units.items():
                if key not in traced[0].layers:
                    continue
                # Counts stay whole numbers: take the lower middle value.
                if unit in ("count", "B"):
                    median = statistics.median_low
                else:
                    median = statistics.median
                metrics[key] = median(record.layers[key] for record in traced)
            if untraced:
                metrics["bench.tracing_overhead_s"] = statistics.median(
                    record.wall for record in traced
                ) - statistics.median(untraced)
        width = max(len(key) for key in units)
        for key in units:
            print(f"  {key:<{width}} {metrics[key]:>16.6g} {units[key]}")
    else:
        # Later passes run in a heap the earlier ones grew, so the peak a
        # user's one-shot command sees is the peak up to the first pass.
        first = good[0] if good else None
        out = first.out if first else None
        metrics = {
            "wall_s": statistics.median(untraced) if untraced else 0.0,
            "setup_s": setup_s,
            "peak_rss_mib": first.peak_rss_mib if first else 0.0,
            "miss_reduction_pct": reduction_pct(out.natural, out.placed) if out else 0.0,
            "success_rate": 1.0 - failed / attempted,
        }
        units = END_TO_END_UNITS
    print("stamp: " + json.dumps(stamp(args.seed), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": metrics[key], "unit": units[key]} for key in units
        },
    }))
    return 0


def measure(bench, args) -> list[PassRecord]:
    """Repeat checked passes for about ``args.seconds``."""
    import workloads

    expected = None
    if args.seed == workloads.DEFAULT_SEED:
        expected = reference.load(args.workload)
    records: list[PassRecord] = []
    first_ops = None
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(records) % 2 == 1
        record = run_pass(bench, traced, first_ops, expected)
        records.append(record)
        if record.error:
            print(record.error, file=sys.stderr)
            return records
        first_ops = first_ops or record.out.ops
        problems = list(record.out.pass_failures) + [
            f"{label}: {message}" for label, message in record.out.failures.items()
        ]
        print(f"pass {len(records)}: {'traced' if traced else 'untraced'} "
              f"{record.wall:.3f}s" + (f" FAILED {problems}" if problems else ""))
        elapsed = time.perf_counter() - start
        if len(records) >= MIN_PASSES and (
            elapsed + elapsed / len(records) / 2 >= args.seconds
        ):
            return records


if __name__ == "__main__":
    sys.exit(main())
