"""The four benchmark workloads, each a user-facing path of the program.

Every workload splits one pass into ``prepare`` (untimed: reset the
process-global memo and point at the right store), ``run`` (timed: the
product call) and ``collect`` (untimed: turn the product's output into
per-op values and miss rates).  One op is one experiment or one sweep
cell.  All calls go through the program's public Python entry points in
this process, serially.

``seed`` 0 runs the pinned paper inputs.  Any other seed re-seeds each
program's training and testing :class:`~repro.workloads.WorkloadInput`
at the same scale (through ``register`` / ``register_family``), so the
program sees only different generated inputs.
"""

from __future__ import annotations

import gc
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro import workloads as wl
from repro.cache.config import CacheConfig
from repro.experiments.common import all_programs, clear_cache
from repro.experiments.missrate_tables import run_table2, run_table4
from repro.obs import invariants
from repro.runtime import parallel
from repro.runtime.driver import run_experiment
from repro.sched.executor import last_summary
from repro.store import ArtifactStore, current_store, use_store
from repro.sweep import DEFAULT_WORKLOADS, build_grid, run_sweep
from tracing import NullTracer

#: The seed that means "the pinned paper inputs, unchanged".
DEFAULT_SEED = 0

#: The paper's cache: 8 KB direct-mapped, 32-byte lines.
PAPER_CACHE = CacheConfig(size=8192, line_size=32, associativity=1)


def _input_seed(seed: int, program: str, input_name: str) -> int:
    return random.Random(f"{seed}/{program}/{input_name}").getrandbits(31)


def _reseeded(workload, seed: int):
    workload.inputs = {
        name: wl.WorkloadInput(name, _input_seed(seed, workload.name, name), spec.scale)
        for name, spec in workload.inputs.items()
    }
    return workload


def reseed(seed: int, programs) -> Callable[[], None]:
    """Re-seed ``programs``' inputs for ``seed``; returns the undo callable."""
    if seed == DEFAULT_SEED:
        return lambda: None
    originals = {}
    families = {
        **wl.DRIFT_WORKLOADS,
        **wl.ALLOCMIX_WORKLOADS,
        **wl.PQUEUE_WORKLOADS,
    }
    for program in programs:
        if program in families:
            factory = families[program]
            wl.register_family(
                {program: lambda factory=factory: _reseeded(factory(), seed)}
            )
            originals[program] = ("family", factory)
            continue
        cls = type(wl.make_workload(program))

        def __init__(self, cls=cls):
            cls.__init__(self)
            _reseeded(self, seed)

        wl.register(type(cls.__name__, (cls,), {"__init__": __init__}))
        originals[program] = ("benchmark", cls)

    def undo():
        for program, (kind, original) in originals.items():
            if kind == "family":
                wl.register_family({program: original})
            else:
                wl.register(original)

    return undo


def stats_summary(stats) -> dict:
    """The comparable fields of one :class:`CacheStats`."""
    return {
        "accesses": stats.accesses,
        "misses": stats.misses,
        "compulsory": stats.compulsory,
        "capacity": stats.capacity,
        "conflict": stats.conflict,
        "writebacks": stats.writebacks,
        "misses_by_category": {
            category.name: count
            for category, count in sorted(
                stats.misses_by_category.items(), key=lambda item: item[0].name
            )
        },
    }


@dataclass
class PassOutput:
    """What one pass produced, ready for checking."""

    #: op label -> comparable value (determinism and reference checks).
    ops: dict[str, object] = field(default_factory=dict)
    #: op label -> failure message, for ops whose own check failed.
    failures: dict[str, str] = field(default_factory=dict)
    #: Per-op natural and CCDP miss rates, in percent.
    natural: list[float] = field(default_factory=list)
    placed: list[float] = field(default_factory=list)
    #: Messages for pass-level check failures (cold/warm proof, counts).
    pass_failures: list[str] = field(default_factory=list)
    #: Rendered tables, for the verbatim reference check.
    renders: dict[str, str] = field(default_factory=dict)
    bytes_written: int = 0


class Workload:
    """One benchmark workload; stores it creates go under ``scratch_root``."""

    name = ""
    ops_per_pass = 0
    programs: tuple = ()
    #: Exact per-pass layer call counts a traced pass must show.
    expected_calls: dict[str, int] = {}

    def __init__(self, seed: int, scratch_root: Path):
        self.scratch_root = scratch_root
        self._undo = reseed(seed, self.programs)

    def setup(self) -> None:
        """Work users pay once before passes (timed into ``setup_s``)."""

    def prepare(self) -> None:
        clear_cache()
        parallel.reset_fanout_reports()
        # Free the previous pass's artifacts now, so that neither the
        # pass's time nor the peak RSS depends on when a collection runs.
        gc.collect()

    def run(self, tracer) -> None:
        raise NotImplementedError

    def collect(self) -> PassOutput:
        raise NotImplementedError

    def close(self) -> None:
        self._undo()


class _Tables(Workload):
    """Table 2 + Table 4 through the memo getters (``repro tables``)."""

    ops_per_pass = 18

    def __init__(self, seed, scratch_root):
        self.programs = tuple(all_programs())
        super().__init__(seed, scratch_root)
        self.store_root: Path | None = None
        self.store: ArtifactStore | None = None
        self.tables = ()

    def _fresh_root(self) -> Path:
        return Path(tempfile.mkdtemp(prefix=".perfbench-store-", dir=self.scratch_root))

    def run(self, tracer) -> None:
        with use_store(self.store):
            with tracer.span("experiments"):
                table2 = run_table2()
            with tracer.span("experiments"):
                table4 = run_table4()
        self.tables = (table2, table4)

    def collect(self) -> PassOutput:
        out = PassOutput(bytes_written=self.store.counters.bytes_written)
        for table_id, table in zip(("table2", "table4"), self.tables):
            render = table.render()
            lines = render.splitlines()
            for row in table.rows:
                label = f"{table_id}/{row.program}"
                line = next(text for text in lines if text.startswith(row.program + " "))
                out.ops[label] = {
                    "line": line,
                    "original": row.original.as_tuple(),
                    "ccdp": row.ccdp.as_tuple(),
                }
                out.natural.append(row.original.d_miss)
                out.placed.append(row.ccdp.d_miss)
            if table.skipped:
                out.pass_failures.append(f"{table_id} skipped {table.skipped}")
            out.renders[table_id] = render
        return out

    def close(self) -> None:
        if self.store_root is not None:
            shutil.rmtree(self.store_root, ignore_errors=True)
            self.store_root = None
        super().close()


class TablesCold(_Tables):
    """Each pass gets a fresh empty store: every stage runs and is written."""

    name = "tables-cold"
    expected_calls = {
        "trace.record_calls": 18,
        "profiling.profile_calls": 9,
        "core.place_calls": 9,
        "runtime.measure_calls": 36,
    }

    def prepare(self) -> None:
        super().prepare()
        if self.store_root is not None:
            shutil.rmtree(self.store_root, ignore_errors=True)
        self.store_root = self._fresh_root()
        self.store = ArtifactStore(self.store_root)

    def collect(self) -> PassOutput:
        out = super().collect()
        counters = self.store.counters
        if counters.writes == 0 or counters.misses == 0:
            out.pass_failures.append(
                f"cold pass was not cold: writes={counters.writes} "
                f"misses={counters.misses}"
            )
        return out


class TablesWarm(_Tables):
    """Each pass reassembles the tables from the store filled in set-up."""

    name = "tables-warm"
    expected_calls = {
        "trace.record_calls": 0,
        "profiling.profile_calls": 0,
        "core.place_calls": 0,
        "runtime.measure_calls": 0,
    }
    #: Store hits one warm pass makes (18 experiments, 7 entries each).
    WARM_HITS = 126

    def setup(self) -> None:
        self.store_root = self._fresh_root()
        self.store = ArtifactStore(self.store_root)
        super().prepare()
        self.run(NullTracer())
        self.cold = super().collect().ops

    def prepare(self) -> None:
        super().prepare()
        self.store = ArtifactStore(self.store_root)

    def collect(self) -> PassOutput:
        out = super().collect()
        counters = self.store.counters
        if (counters.hits, counters.misses, counters.writes) != (self.WARM_HITS, 0, 0):
            out.pass_failures.append(
                f"warm pass was not warm: hits={counters.hits} "
                f"misses={counters.misses} writes={counters.writes}"
            )
        for label, value in out.ops.items():
            if value != self.cold.get(label):
                out.failures[label] = "warm result differs from the cold fill"
        return out


class SweepAssoc(Workload):
    """The default sweep workloads x {1, 2, 4} ways at 8 KB, no store."""

    name = "sweep-assoc"
    ops_per_pass = 15
    programs = DEFAULT_WORKLOADS
    expected_calls = {
        "trace.record_calls": 10,
        "profiling.profile_calls": 15,
        "core.place_calls": 15,
        "runtime.measure_calls": 30,
        "sched.jobs_total": 85,
        "sched.jobs_executed": 70,
        "sched.jobs_deduped": 20,
    }

    def run(self, tracer) -> None:
        self.payload = run_sweep(build_grid(sizes=(8192,)), jobs=1)

    def collect(self) -> PassOutput:
        out = PassOutput()
        summary = last_summary()
        counts = (summary.total, summary.executed, summary.deduped)
        expected = tuple(
            self.expected_calls[f"sched.jobs_{kind}"]
            for kind in ("total", "executed", "deduped")
        )
        if counts != expected:
            out.pass_failures.append(f"sched total/executed/deduped = {counts}")
        if current_store() is not None:
            out.pass_failures.append("a store was installed during the sweep")
        for cell in self.payload["cells"]:
            label = f"{cell['workload']}@{cell['geometry']}"
            out.ops[label] = cell
            if not cell["ok"]:
                out.failures[label] = "cell failed"
                continue
            out.natural.append(cell["natural_miss_rate"])
            out.placed.append(cell["placed_miss_rate"])
        return out


class RunClassify(Workload):
    """``run_experiment(classify=True)`` per paper program, no store."""

    name = "run-classify"
    ops_per_pass = 9
    expected_calls = {
        "trace.record_calls": 18,
        "profiling.profile_calls": 9,
        "core.place_calls": 9,
        "runtime.measure_calls": 18,
    }

    def __init__(self, seed, scratch_root):
        self.programs = tuple(all_programs())
        super().__init__(seed, scratch_root)

    def run(self, tracer) -> None:
        self.results = []
        for program in self.programs:
            with tracer.span("experiments"):
                result = run_experiment(
                    wl.make_workload(program), cache_config=PAPER_CACHE, classify=True
                )
            self.results.append(result)

    def collect(self) -> PassOutput:
        out = PassOutput()
        for result in self.results:
            label = result.workload
            out.ops[label] = {
                "original": stats_summary(result.original.cache),
                "ccdp": stats_summary(result.ccdp.cache),
            }
            problems = []
            for arm in (result.original.cache, result.ccdp.cache):
                problems += invariants.cache_stats_failures(arm)
                if arm.misses and arm.compulsory + arm.capacity + arm.conflict == 0:
                    problems.append("classified run has no three-Cs split")
            if problems:
                out.failures[label] = "; ".join(problems)
            out.natural.append(result.original.cache.miss_rate)
            out.placed.append(result.ccdp.cache.miss_rate)
        return out


WORKLOADS = {cls.name: cls for cls in (TablesCold, TablesWarm, SweepAssoc, RunClassify)}
