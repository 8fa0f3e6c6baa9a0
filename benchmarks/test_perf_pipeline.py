"""Bench: the table pipeline plus the raw-kernel microbenchmark.

Runs :func:`repro.runtime.bench.run_bench` in quick mode (two programs)
under the benchmark timer and writes ``BENCH_pipeline.json`` so every PR
leaves a machine-readable perf trajectory next to the table artifacts.

Shapes asserted:

* the pipeline arm processes a positive logical event count;
* the raw direct-mapped kernel is at least 3x the scalar simulator
  (``run_bench`` itself raises if any kernel diverges from its scalar
  fallback);
* the JSON report exists and round-trips with the headline numbers.
"""

from __future__ import annotations

import json
import os

from conftest import run_once

from repro.runtime.bench import run_bench

OUTPUT = os.path.join(os.path.dirname(__file__), "..", "BENCH_pipeline.json")


def test_perf_pipeline(benchmark):
    result = run_once(benchmark, run_bench, quick=True, output=OUTPUT)

    batched = result["arms"]["batched"]
    assert batched["events"] > 0
    assert result["kernel"]["speedup"] >= 3.0

    with open(OUTPUT) as handle:
        report = json.load(handle)
    assert report["programs"] == result["programs"]
    assert report["kernel"]["speedup"] == result["kernel"]["speedup"]
    assert set(report["arms"]) == {"batched"}
    for arm in report["arms"].values():
        assert set(arm["tables_s"]) == {"table1", "table2", "table4"}
