"""Reference outputs the benchmark checks each pass against (seed 0 only).

The files under ``reference/`` are verbatim extracts of the program's
committed outputs, captured once so the benchmark does not depend on
those files staying where they are:

* ``tables.txt`` — the Table 2 and Table 4 renders from
  ``paper_tables_output.txt``;
* ``sweep_8192.json`` — the 8192-byte rows of ``BENCH_sweep.json``;
* ``run_classify.json`` — classified original/CCDP statistics of the
  nine programs, from one ``run-classify`` pass.

Regenerate with ``python3 perfbench/reference.py`` from the repository
root (it reads the committed files and runs one pass).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
SWEEP_FIELDS = (
    "ok", "cost_model", "natural_miss_rate", "placed_miss_rate",
    "reduction_pp", "verdict",
)


def _table_block(text: str, title_prefix: str) -> str:
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(title_prefix))
    end = start
    while end < len(lines) and lines[end].strip():
        end += 1
    return "\n".join(lines[start:end])


def load(workload: str):
    """The reference for ``workload``, keyed the way its pass labels ops."""
    if workload in ("tables-cold", "tables-warm"):
        blocks = (REFERENCE_DIR / "tables.txt").read_text().split("\n\n")
        return dict(zip(("table2", "table4"), (block.strip("\n") for block in blocks)))
    if workload == "sweep-assoc":
        cells = json.loads((REFERENCE_DIR / "sweep_8192.json").read_text())
        return {f"{cell['workload']}@{cell['geometry']}": cell for cell in cells}
    return json.loads((REFERENCE_DIR / "run_classify.json").read_text())


def check(workload: str, reference, out) -> None:
    """Record in ``out.failures`` every op that disagrees with the reference."""
    if workload in ("tables-cold", "tables-warm"):
        for label, value in out.ops.items():
            table_id = label.split("/")[0]
            if value["line"] not in reference[table_id].splitlines():
                out.failures[label] = f"row differs from reference: {value['line']!r}"
        for table_id, render in out.renders.items():
            if render != reference[table_id]:
                out.pass_failures.append(f"{table_id} render differs from reference")
        return
    for label, value in out.ops.items():
        expected = reference.get(label)
        if expected is None:
            out.failures[label] = "no reference for this op"
        elif workload == "sweep-assoc":
            wrong = [key for key in SWEEP_FIELDS if value[key] != expected[key]]
            if wrong:
                out.failures[label] = f"differs from reference in {wrong}"
        elif value != expected:
            out.failures[label] = "differs from reference"
    if set(reference) != set(out.ops):
        out.pass_failures.append("ops do not match the reference's ops")


def capture(repo_root: Path) -> None:
    """Write the reference files from the committed outputs and one pass."""
    sys.path.insert(0, str(repo_root / "src"))
    import workloads

    paper = (repo_root / "paper_tables_output.txt").read_text()
    tables = "\n\n".join(
        _table_block(paper, title) for title in ("Table 2: ", "Table 4: ")
    )
    sweep = json.loads((repo_root / "BENCH_sweep.json").read_text())
    cells = [cell for cell in sweep["cells"] if cell["size"] == 8192]
    bench = workloads.RunClassify(workloads.DEFAULT_SEED, repo_root)
    try:
        bench.prepare()
        bench.run(workloads.NullTracer())
        classify = bench.collect().ops
    finally:
        bench.close()
    REFERENCE_DIR.mkdir(exist_ok=True)
    (REFERENCE_DIR / "tables.txt").write_text(tables + "\n")
    (REFERENCE_DIR / "sweep_8192.json").write_text(
        json.dumps(cells, indent=1, sort_keys=True) + "\n"
    )
    (REFERENCE_DIR / "run_classify.json").write_text(
        json.dumps(classify, indent=1, sort_keys=True) + "\n"
    )


if __name__ == "__main__":
    capture(HERE.parent)
