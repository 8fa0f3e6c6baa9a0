"""The benchmark leaves the repository tree as it found it.

Run from the repository root with ``python3 -m pytest perfbench/test_hermetic.py``
(about half a minute: one ``tables-warm`` run, which fills and reads a
store, with traced passes).
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED_DIRS = {".git", "__pycache__", ".pytest_cache"}


def snapshot() -> dict[str, tuple[int, int]]:
    files = {}
    for path in ROOT.rglob("*"):
        relative = path.relative_to(ROOT)
        if SKIPPED_DIRS & set(relative.parts) or not path.is_file():
            continue
        stat = path.stat()
        files[str(relative)] = (stat.st_size, stat.st_mtime_ns)
    return files


def run_bench(workload: str, trace: int) -> dict:
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_run_leaves_tree_unchanged_and_reports_declared_metrics():
    before = snapshot()
    record = run_bench("tables-warm", trace=1)
    after = snapshot()
    assert after == before
    assert not (ROOT / ".repro-cache").exists()
    assert not list(ROOT.glob(".perfbench-store-*"))

    assert record["correct"] and record["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {metric["name"]: metric["unit"] for metric in declared["per_layer"]}
    reported = {name: value["unit"] for name, value in record["metrics"].items()}
    assert reported == per_layer
    assert record["metrics"]["bench.span_coverage"]["value"] >= 0.95


def test_end_to_end_metrics_match_benchmark_json():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOAD_NAMES)
