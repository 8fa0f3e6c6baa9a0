"""End-to-end pipeline benchmark and raw-kernel microbenchmark.

``repro bench`` times the paper's table pipeline (Table 1 statistics and
the Table 2/4 miss-rate tables) over the benchmark programs: each
(workload, input) is recorded once as structure-of-arrays columns, and
statistics, profiles, and all placement measurements are derived from
the columns by the vectorized kernels, optionally fanning experiments
out across worker processes.

A raw-kernel microbenchmark gives the per-event view: events/sec through
the cache simulators on a recorded trace, for the direct-mapped, 4-way
and classified kernels, each checked against the scalar
:class:`~repro.cache.simulator.CacheSimulator` (the fallback when the
native kernel cannot be built), plus profiling on the native TRG kernel
checked against its Python fallback.  Either check raises on any
divergence.  Results are written as JSON, by default to
``BENCH_pipeline.json``.
"""

from __future__ import annotations

import json
import time
from typing import Callable
from unittest import mock

from ..cache import native
from ..cache.batch import BatchCacheSimulator
from ..cache.config import CacheConfig
from ..cache.simulator import CacheSimulator
from ..obs import telemetry as obs
from ..profiling.batch import profile_trace
from ..trace.buffer import DEFAULT_CHUNK_EVENTS, record_trace
from ..workloads import make_workload
from .resolvers import NaturalResolver
from .scale import (  # noqa: F401  (re-exported: bench façade)
    SCALE_OUTPUT,
    render_scale_bench,
    run_scale_bench,
)

#: Programs benchmarked by ``--quick`` (CI smoke) vs the full run.
QUICK_PROGRAMS = ("deltablue", "espresso")
DEFAULT_OUTPUT = "BENCH_pipeline.json"
CACHE_OUTPUT = "BENCH_cache.json"
DAG_OUTPUT = "BENCH_dag.json"


def _time_tables(programs: list[str]) -> dict[str, float]:
    """Run the table pipeline once, timing each table."""
    from ..experiments import run_table1, run_table2, run_table4

    timings: dict[str, float] = {}
    for label, runner in (
        ("table1", run_table1),
        ("table2", run_table2),
        ("table4", run_table4),
    ):
        start = time.perf_counter()
        runner(programs)
        timings[label] = time.perf_counter() - start
    return timings


def _pipeline_events(programs: list[str]) -> int:
    """Logical references processed by one pipeline pass.

    Per program the tables touch: Table 1 statistics over the training
    and testing inputs, Table 2 (profile + two measurements of the
    training input), and Table 4 (profile the training input, measure
    the testing input twice) — five passes over the training references
    and three over the testing references.
    """
    from ..experiments.common import cached_stats

    total = 0
    for name in programs:
        workload = make_workload(name)
        train = cached_stats(name, workload.train_input)
        test = cached_stats(name, workload.test_input)
        total += 5 * (train.loads + train.stores)
        total += 3 * (test.loads + test.stores)
    return total


def _run_arm(programs: list[str], jobs: int) -> dict[str, object]:
    from ..experiments.common import clear_cache, set_parallel_jobs

    clear_cache()
    set_parallel_jobs(jobs)
    start = time.perf_counter()
    tables = _time_tables(programs)
    total = time.perf_counter() - start
    events = _pipeline_events(programs)
    return {
        "tables_s": tables,
        "total_s": total,
        "events": events,
        "events_per_sec": events / total if total else 0.0,
    }


#: Geometries the kernel microbenchmark times: (label, config, classify).
#: One per simulation kernel: the numpy direct-mapped kernel, and the
#: native LRU kernel set-associative and with three-Cs classification.
KERNEL_GEOMETRIES = (
    ("8K-direct", CacheConfig(), False),
    ("8K-4way", CacheConfig(associativity=4), False),
    ("8K-direct-classify", CacheConfig(), True),
)


def _time_kernel(columns, events: int, config: CacheConfig, classify: bool):
    """Time batched vs scalar simulation of ``columns``; check they agree."""
    addr, size, obj, cat, store = columns
    start = time.perf_counter()
    engine = BatchCacheSimulator(config, classify=classify)
    for begin in range(0, len(addr), DEFAULT_CHUNK_EVENTS):
        chunk = slice(begin, begin + DEFAULT_CHUNK_EVENTS)
        engine.consume(addr[chunk], size[chunk], obj[chunk], cat[chunk], store[chunk])
    batch_s = time.perf_counter() - start

    from ..trace.events import Category

    categories = tuple(Category)
    scalar = CacheSimulator(config, classify=classify)
    access = scalar.access
    start = time.perf_counter()
    for a, sz, o, c, st in zip(
        addr.tolist(), size.tolist(), obj.tolist(), cat.tolist(), store.tolist()
    ):
        access(a, sz, o, categories[c], bool(st))
    scalar_s = time.perf_counter() - start
    if engine.stats != scalar.stats:
        raise RuntimeError(
            f"{config.describe()} kernel (classify={classify}) diverged "
            "from the scalar simulator during bench"
        )
    return {
        "batch_s": batch_s,
        "scalar_s": scalar_s,
        "batch_events_per_sec": events / batch_s if batch_s else 0.0,
        "scalar_events_per_sec": events / scalar_s if scalar_s else 0.0,
        "speedup": scalar_s / batch_s if batch_s else 0.0,
    }


def _profile_once(trace) -> tuple[float, tuple]:
    """Time one batched profile; return it with its eviction count."""
    registry = obs.Telemetry()
    with obs.use(registry):
        start = time.perf_counter()
        profile = profile_trace(trace)
        elapsed = time.perf_counter() - start
    evictions = registry.counters["profile.queue_evictions"]
    derived = (
        list(profile.trg.items()),
        list(profile.popularity().items()),
        list(profile.entity_affinity().items()),
    )
    return elapsed, (profile, derived, evictions)


def _time_profile(trace) -> dict[str, float]:
    """Time profiling on the native TRG kernel and on the Python fallback.

    Raises when the two profiles differ in any field, in edge insertion
    order, in the derived reductions, or in the queue eviction count.
    """
    native_s, on_kernel = _profile_once(trace)
    with mock.patch.object(native, "load", return_value=None):
        python_s, on_fallback = _profile_once(trace)
    if on_kernel != on_fallback:
        raise RuntimeError(
            "native TRG recency kernel diverged from the Python fallback "
            "during bench"
        )
    events = trace.events
    return {
        "native_s": native_s,
        "python_s": python_s,
        "native_events_per_sec": events / native_s if native_s else 0.0,
        "python_events_per_sec": events / python_s if python_s else 0.0,
        "speedup": python_s / native_s if native_s else 0.0,
    }


def _kernel_microbench(program: str) -> dict[str, object]:
    """Events/sec through the raw cache simulators on one recorded trace.

    Every geometry of :data:`KERNEL_GEOMETRIES` is timed and
    parity-checked against the scalar simulator; the top-level figures
    are the paper's direct-mapped geometry.  Profiling the same trace is
    timed and parity-checked on the native TRG kernel against the Python
    fallback (``profile``).  The native kernels are loaded (and, on a
    cold cache, built) before any timing starts.
    """
    native.load()
    workload = make_workload(program)
    trace = record_trace(workload, workload.train_input)
    addr = trace.resolve(NaturalResolver())
    obj, _offset, size, cat, store = trace.columns()
    columns = (addr, size, obj, cat, store)
    events = trace.events
    geometries = {
        label: _time_kernel(columns, events, config, classify)
        for label, config, classify in KERNEL_GEOMETRIES
    }
    return {
        "program": program,
        "events": events,
        **geometries[KERNEL_GEOMETRIES[0][0]],
        "geometries": geometries,
        "profile": _time_profile(trace),
    }


def run_bench(
    quick: bool = False,
    jobs: int = 1,
    output: str | None = DEFAULT_OUTPUT,
    programs: list[str] | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict[str, object]:
    """Benchmark the table pipeline and the raw kernels; write JSON.

    Returns the result dict (also written to ``output`` unless None):
    per-table wall-clock of the pipeline arm, pipeline events/sec, and
    the raw kernel microbenchmark.
    """
    from ..experiments.common import all_programs, clear_cache, set_parallel_jobs

    say = progress or (lambda _message: None)
    if programs is None:
        programs = list(QUICK_PROGRAMS) if quick else all_programs()

    say(f"kernel microbench ({programs[0]})...")
    kernel = _kernel_microbench(programs[0])
    say("batched pipeline arm...")
    batched_arm = _run_arm(programs, jobs=jobs)
    clear_cache()
    set_parallel_jobs(1)

    result: dict[str, object] = {
        "quick": quick,
        "programs": programs,
        "jobs": jobs,
        "arms": {"batched": batched_arm},
        "kernel": kernel,
    }
    if output:
        with open(output, "w") as handle:
            json.dump(result, handle, indent=2)
        result["output"] = output
    return result


def run_cache_bench(
    quick: bool = True,
    output: str | None = CACHE_OUTPUT,
    programs: list[str] | None = None,
    cache_dir: str | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict[str, object]:
    """Benchmark the artifact store: cold vs warm pipeline run.

    Runs the Table 2/4 pipeline twice over the same persistent store —
    once against an empty store (every stage computes and persists),
    once against the store the first pass filled (every stage loads).
    The in-process memo cache is cleared between arms, so the only
    state carried over is the on-disk store; the warm arm's results
    must be bit-identical to the cold arm's.

    Returns the result dict (also written to ``output`` unless None):
    wall-clock per arm, the headline warm ``speedup``, per-arm store
    counters, and an ``identical`` flag covering the rendered tables
    and every placement map.
    """
    import shutil
    import tempfile

    from ..experiments import run_table2, run_table4
    from ..experiments.common import all_programs, cached_placement, clear_cache
    from ..profiling.serialize import placement_to_dict
    from ..store import ArtifactStore, use_store

    say = progress or (lambda _message: None)
    if programs is None:
        programs = list(QUICK_PROGRAMS) if quick else all_programs()
    own_dir = cache_dir is None
    root = cache_dir or tempfile.mkdtemp(prefix="repro-cache-bench-")

    def run_arm(label: str) -> dict[str, object]:
        say(f"{label} arm...")
        clear_cache()
        store = ArtifactStore(root)
        with use_store(store):
            start = time.perf_counter()
            table2 = run_table2(programs)
            table4 = run_table4(programs)
            elapsed = time.perf_counter() - start
            placements = {
                name: placement_to_dict(cached_placement(name)[1])
                for name in programs
            }
        tallies = store.counters
        return {
            "total_s": elapsed,
            "tables": {"table2": table2.render(), "table4": table4.render()},
            "placements": placements,
            "store": {
                "hits": tallies.hits,
                "misses": tallies.misses,
                "corrupt": tallies.corrupt,
                "writes": tallies.writes,
                "bytes_written": tallies.bytes_written,
            },
        }

    try:
        cold = run_arm("cold")
        warm = run_arm("warm")
    finally:
        clear_cache()
        if own_dir:
            shutil.rmtree(root, ignore_errors=True)

    identical = (
        cold["tables"] == warm["tables"]
        and cold["placements"] == warm["placements"]
    )
    result: dict[str, object] = {
        "quick": quick,
        "programs": programs,
        "cache_dir": None if own_dir else root,
        "arms": {
            "cold": {k: cold[k] for k in ("total_s", "store")},
            "warm": {k: warm[k] for k in ("total_s", "store")},
        },
        "identical": identical,
        "speedup": (
            cold["total_s"] / warm["total_s"] if warm["total_s"] else 0.0
        ),
    }
    if output:
        with open(output, "w") as handle:
            json.dump(result, handle, indent=2)
        result["output"] = output
    return result


def run_dag_bench(
    quick: bool = True,
    jobs: int = 4,
    output: str | None = DAG_OUTPUT,
    programs: list[str] | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict[str, object]:
    """Benchmark job-graph scheduling cold and warm.

    Two arms over the Table 2 + Table 4 pipeline at the same worker
    count, each from a cleared in-process memo and over one store:

    * **dag-cold** — fresh store: both tables planned as one job graph,
      shared training stages deduplicated before execution, stage jobs
      dispatched longest-estimated-first.
    * **dag-warm** — rerun over the cold arm's store: the probe pass
      must prune every stage job (``executed == 0``).

    Both arms must render byte-identical tables.  Their scheduler
    summaries and the per-kind mean job seconds (the cost priors'
    feedback history) are included in the JSON.
    """
    import shutil
    import tempfile

    from ..experiments import run_table2, run_table4
    from ..experiments.common import (
        all_programs,
        clear_cache,
        prefetch_experiment_batches,
        set_parallel_jobs,
    )
    from ..sched.executor import _effective_cpus, last_summary
    from ..store import ArtifactStore, use_store

    say = progress or (lambda _message: None)
    if programs is None:
        programs = list(QUICK_PROGRAMS) if quick else all_programs()
    batches = [
        {"programs": programs, "same_input": True},
        {"programs": programs, "same_input": False},
    ]
    root = tempfile.mkdtemp(prefix="repro-dag-bench-")

    def run_arm(label: str) -> dict[str, object]:
        say(f"{label} arm...")
        clear_cache()
        store = ArtifactStore(root)
        with use_store(store):
            set_parallel_jobs(jobs)
            start = time.perf_counter()
            prefetch_experiment_batches(batches, jobs=jobs)
            table2 = run_table2(programs)
            table4 = run_table4(programs)
            elapsed = time.perf_counter() - start
        arm: dict[str, object] = {
            "total_s": elapsed,
            "tables": {"table2": table2.render(), "table4": table4.render()},
        }
        summary = last_summary()
        if summary is not None:
            arm["sched"] = {
                "total": summary.total,
                "executed": summary.executed,
                "deduped": summary.deduped,
                "pruned": summary.pruned,
                "critical_path_s": summary.critical_path_seconds,
            }
            arm["job_seconds_by_kind"] = dict(summary.job_seconds_by_kind)
        return arm

    try:
        dag_cold = run_arm("dag-cold")
        dag_warm = run_arm("dag-warm")
    finally:
        set_parallel_jobs(1)
        clear_cache()
        shutil.rmtree(root, ignore_errors=True)

    result: dict[str, object] = {
        "quick": quick,
        "programs": programs,
        "jobs": jobs,
        # Critical-path overlap only shows with real cores.
        "effective_cpus": _effective_cpus(),
        "arms": {
            "dag_cold": {
                key: dag_cold[key] for key in dag_cold if key != "tables"
            },
            "dag_warm": {
                key: dag_warm[key] for key in dag_warm if key != "tables"
            },
        },
        "identical": dag_cold["tables"] == dag_warm["tables"],
        "warm_executed": (dag_warm.get("sched") or {}).get("executed"),
        "job_seconds_by_kind": dag_cold.get("job_seconds_by_kind", {}),
    }
    if output:
        with open(output, "w") as handle:
            json.dump(result, handle, indent=2)
        result["output"] = output
    return result


def render_dag_bench(result: dict[str, object]) -> str:
    """Human-readable summary of a :func:`run_dag_bench` result."""
    arms = result["arms"]
    sched = arms["dag_cold"].get("sched", {})
    warm_sched = arms["dag_warm"].get("sched", {})
    lines = [
        f"job-graph scheduler ({', '.join(result['programs'])}, "
        f"--jobs {result['jobs']}, "
        f"{result.get('effective_cpus', '?')} effective cpu(s)):",
        f"  dag cold     {arms['dag_cold']['total_s']:6.2f}s   "
        f"(jobs={sched.get('total', '?')}, executed={sched.get('executed', '?')}, "
        f"deduped={sched.get('deduped', '?')}, "
        f"critical path {sched.get('critical_path_s', 0.0):.2f}s)",
        f"  dag warm     {arms['dag_warm']['total_s']:6.2f}s   "
        f"(executed={warm_sched.get('executed', '?')}, "
        f"pruned={warm_sched.get('pruned', '?')})",
        "  -> tables " + ("bit-identical" if result["identical"] else "MISMATCH"),
    ]
    if "output" in result:
        lines.append(f"wrote {result['output']}")
    return "\n".join(lines)


def render_cache_bench(result: dict[str, object]) -> str:
    """Human-readable summary of a :func:`run_cache_bench` result."""
    cold = result["arms"]["cold"]
    warm = result["arms"]["warm"]
    lines = [
        f"artifact store ({', '.join(result['programs'])}):",
        f"  cold  {cold['total_s']:6.2f}s   "
        f"(misses={cold['store']['misses']}, writes={cold['store']['writes']}, "
        f"{cold['store']['bytes_written']:,} bytes)",
        f"  warm  {warm['total_s']:6.2f}s   "
        f"(hits={warm['store']['hits']}, misses={warm['store']['misses']})",
        f"  -> {result['speedup']:.1f}x warm speedup, results "
        + ("bit-identical" if result["identical"] else "MISMATCH"),
    ]
    if "output" in result:
        lines.append(f"wrote {result['output']}")
    return "\n".join(lines)


def render_bench(result: dict[str, object]) -> str:
    """Human-readable summary of a :func:`run_bench` result."""
    lines = []
    batched = result["arms"]["batched"]
    kernel = result["kernel"]
    lines.append(f"pipeline ({', '.join(result['programs'])}; jobs={result['jobs']}):")
    for label, seconds in batched["tables_s"].items():
        lines.append(f"  {label:<8} {seconds:6.2f}s")
    lines.append(f"  {'total':<8} {batched['total_s']:6.2f}s")
    lines.append(f"  events/sec: {batched['events_per_sec']:,.0f}")
    lines.append(
        f"kernel ({kernel['program']}, {kernel['events']} events): "
        f"scalar {kernel['scalar_events_per_sec']:,.0f} ev/s, "
        f"batched {kernel['batch_events_per_sec']:,.0f} ev/s "
        f"({kernel['speedup']:.1f}x)"
    )
    for label, timing in kernel["geometries"].items():
        lines.append(
            f"  {label:<18} scalar {timing['scalar_events_per_sec']:,.0f} ev/s, "
            f"batched {timing['batch_events_per_sec']:,.0f} ev/s "
            f"({timing['speedup']:.1f}x)"
        )
    profile = kernel["profile"]
    lines.append(
        f"  {'profile':<18} python {profile['python_events_per_sec']:,.0f} ev/s, "
        f"native {profile['native_events_per_sec']:,.0f} ev/s "
        f"({profile['speedup']:.1f}x)"
    )
    if "output" in result:
        lines.append(f"wrote {result['output']}")
    return "\n".join(lines)
