"""Graph executor: prune, dispatch along the critical path, assemble.

:func:`run_experiments_dag` is the only multi-job experiment executor;
``--jobs N`` on every verb plans one job graph and runs it here:

1. **Plan** — :func:`~repro.sched.jobs.plan_experiments` expands the
   specs into a deduplicated stage-job graph.
2. **Prune** — :func:`~repro.sched.jobs.probe_graph` marks every job
   whose artifact is already in the store ``warm-pruned``; a fully-warm
   graph schedules zero executions.
3. **Dispatch** — the surviving frontier runs through
   :func:`~repro.runtime.parallel._resilient_map` (retry, respawn and
   fault injection), fed dynamically: each settled job unlocks its
   ready dependents, and the pending set is drained
   longest-estimated-first so the critical path starts immediately.
   Pooled workers hand artifacts back through a store root, so a
   store-less pooled run dispatches under a private temporary store
   that is removed when dispatch ends.
4. **Assemble** — aggregate nodes run in the parent, rebuilding each
   spec's :class:`~repro.runtime.driver.ExperimentResult` from the
   in-memory bag (inline runs), the artifacts pooled workers shipped
   back, or the store (warm-pruned roles).

A failed job cancels its transitive dependents; the affected specs come
back as ``None`` holes with one spec-level
:class:`~repro.runtime.faults.FanoutReport` recorded per run for the
usual partial-results rendering.
"""

from __future__ import annotations

import os
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from ..obs import telemetry as obs
from ..runtime import parallel
from ..runtime.faults import (
    FanoutReport,
    FaultToleranceError,
    RetryPolicy,
    TaskFailure,
)
from ..store import ArtifactStore, current_store, use_store
from . import jobs as sched_jobs
from .graph import (
    CANCELLED,
    DONE,
    FAILED,
    PENDING,
    PRUNED,
    RUNNING,
    Job,
    JobGraph,
)

@dataclass
class PlanSummary:
    """One scheduler run, condensed: the ``[sched]`` summary line."""

    total: int = 0
    executed: int = 0
    deduped: int = 0
    pruned: int = 0
    failed: int = 0
    cancelled: int = 0
    critical_path_seconds: float = 0.0
    wall_seconds: float = 0.0
    job_seconds_by_kind: dict[str, float] = field(default_factory=dict)

    def line(self) -> str:
        return (
            f"[sched] total={self.total} executed={self.executed} "
            f"deduped={self.deduped} pruned={self.pruned} "
            f"failed={self.failed} cancelled={self.cancelled} "
            f"critical_path={self.critical_path_seconds:.2f}s "
            f"wall={self.wall_seconds:.2f}s"
        )


_last_summary: PlanSummary | None = None


def last_summary() -> PlanSummary | None:
    """The most recent :func:`run_experiments_dag`'s summary, if any."""
    return _last_summary


def _effective_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - no affinity API (macOS)
        return os.cpu_count() or 1


def _mean_seconds_by_kind(graph: JobGraph) -> dict[str, float]:
    """Mean executed seconds per stage kind (the cost-prior feedback)."""
    sums: dict[str, list[float]] = {}
    for job in graph:
        if job.state == DONE and job.seconds > 0:
            sums.setdefault(job.kind, []).append(job.seconds)
    return {
        kind: sum(values) / len(values) for kind, values in sums.items()
    }


def _dispatch(
    graph: JobGraph,
    jobs: int,
    policy: RetryPolicy | None,
    bag: dict | None,
    harvest: dict | None = None,
) -> tuple[FanoutReport, list[Job]]:
    """Run every pending stage job through the resilient executor.

    The fan-out starts from the ready frontier and grows via ``feed``:
    settling a job marks it done and returns its newly-ready dependents
    as fresh tasks.  Aggregate nodes never dispatch — they are assembled
    in the parent afterwards.  Returns the job-level report and the
    dispatch list (task index → job).
    """
    store = current_store()
    use_pool = jobs > 1
    store_root = str(store.root) if store is not None else None
    with_telemetry = obs.current() is not None
    dispatch: list[Job] = []

    def task_args(job: Job):
        if use_pool:
            return (job.spec, store_root, with_telemetry)
        return job.spec

    def admit(job: Job) -> tuple:
        graph.mark_running(job)
        obs.count("sched.ready")
        dispatch.append(job)
        return (task_args(job), job.label, job.cost)

    def feed(index: int, result) -> list[tuple]:
        job = dispatch[index]
        seconds = (
            float(result.get("seconds", 0.0))
            if isinstance(result, dict)
            else 0.0
        )
        graph.mark_done(job, seconds)
        if harvest is not None and isinstance(result, dict):
            artifact = result.get("artifact")
            if artifact is not None:
                harvest[sched_jobs.bag_key(job.spec)] = artifact
        fed = [
            dependent
            for dependent in job.dependents
            if dependent.kind != "aggregate" and dependent.ready()
        ]
        fed.sort(key=lambda ready_job: -ready_job.cost)
        return [admit(ready_job) for ready_job in fed]

    frontier = [
        job
        for job in graph.ready_jobs()
        if job.kind != "aggregate" and job.state == PENDING
    ]
    frontier.sort(key=lambda job: -job.cost)
    if not frontier:
        return FanoutReport(), dispatch
    items: list = []
    labels: list[str] = []
    priorities: list[float] = []
    for job in frontier:
        args, label, priority = admit(job)
        items.append(args)
        labels.append(label)
        priorities.append(priority)
    _results, report = parallel._resilient_map(
        items,
        labels,
        sched_jobs.job_entry,
        lambda spec: sched_jobs.run_job(spec, bag),
        jobs,
        policy,
        priorities=priorities,
        feed=feed,
    )
    # The caller records one spec-level report per run; dropping the
    # job-level one keeps every shard counted once.
    parallel._reports.remove(report)
    for failure in report.failures:
        graph.mark_failed(dispatch[failure.index], failure.error)
    for job in graph:
        # A pending job here was never fed — its dependency chain broke
        # before it became ready (e.g. a mid-chain failure already
        # cancelled the edge between them).
        if job.kind != "aggregate" and job.state in (PENDING, RUNNING):
            job.state = CANCELLED
            job.error = job.error or "never became ready"
    return report, dispatch


@contextmanager
def _private_store():
    """Install a throwaway store for one store-less pooled dispatch.

    Pool workers hand artifacts back through a store root; the
    directory is removed when dispatch ends, crash or not.
    """
    with tempfile.TemporaryDirectory(prefix="repro-sched-") as root:
        with use_store(ArtifactStore(root)):
            yield


def _spec_failure(spec_index: int, spec, aggregate: Job) -> TaskFailure:
    """Synthesized spec-level failure from the aggregate's broken deps."""
    kind = "error"
    error = aggregate.error or "dependency failed"
    for dep in aggregate.deps:
        if dep.state == FAILED:
            error = f"{dep.label}: {dep.error}"
            break
        if dep.state == CANCELLED:
            error = f"{dep.label}: {dep.error}"
    return TaskFailure(
        index=spec_index,
        label=spec.workload,
        kind=kind,
        attempts=1,
        error=error,
    )


def run_experiments_dag(
    specs,
    jobs: int | None = None,
    policy: RetryPolicy | None = None,
) -> tuple[list, JobGraph, PlanSummary]:
    """Run experiment specs as one deduplicated job graph.

    Returns ``(results, graph, summary)`` with results in spec order
    (``None`` holes for specs whose jobs failed under a best-effort
    policy).  Exactly one spec-level :class:`FanoutReport` is recorded
    via :func:`repro.runtime.parallel.record_report`, so partial-results
    rendering counts each spec once.
    """
    global _last_summary
    specs = list(specs)
    policy = parallel.current_retry_policy() if policy is None else policy
    start = time.perf_counter()
    graph, aggregates = sched_jobs.plan_experiments(specs)
    store = current_store()
    if store is not None:
        sched_jobs.probe_graph(store, graph)
    critical_path = graph.critical_path_seconds()
    obs.gauge("sched.critical_path_seconds", critical_path)
    jobs = parallel.default_jobs() if jobs is None else jobs
    # Executor selection is resource-aware: a worker pool only pays off
    # when the host can actually run workers concurrently.  On a single
    # effective CPU the pool is pure fork/IPC/store round-trip overhead
    # interleaved on one core, so the graph runs inline instead — same
    # jobs, same artifacts, same results.
    jobs = max(1, min(jobs, _effective_cpus()))
    # Inline runs keep an in-memory artifact bag so assembly never pays
    # a JSON decode.  Pooled workers ship their artifacts back in the
    # job payload instead; the harvest plays the bag's role at assembly
    # so the parent never re-decodes what a worker just computed.
    bag: dict | None = {} if jobs == 1 else None
    harvest: dict = {} if bag is None else bag
    with _private_store() if store is None and jobs > 1 else nullcontext():
        job_report, _dispatched = _dispatch(
            graph, jobs, policy, bag, harvest=None if bag is not None else harvest
        )

    results: list = []
    spec_report = FanoutReport(total=len(specs))
    for spec_index, (spec, aggregate) in enumerate(zip(specs, aggregates)):
        result = None
        if all(dep.state in (DONE, PRUNED) for dep in aggregate.deps):
            result = sched_jobs.assemble_experiment(
                spec, aggregate, store, harvest
            )
        if result is not None:
            graph.mark_done(aggregate)
            spec_report.completed += 1
        else:
            if aggregate.state not in (FAILED, CANCELLED):
                aggregate.state = CANCELLED
                aggregate.error = "result assembly failed"
            spec_report.failures.append(
                _spec_failure(spec_index, spec, aggregate)
            )
        results.append(result)
    spec_report.retries = job_report.retries
    spec_report.timeouts = job_report.timeouts
    spec_report.crashes = job_report.crashes
    spec_report.corrupt = job_report.corrupt
    spec_report.injected = job_report.injected
    if spec_report.failures and store is not None:
        parallel._attach_checkpoints(
            spec_report,
            lambda failure: parallel._experiment_checkpoints(
                store, specs[failure.index]
            ),
        )
    parallel.record_report(spec_report)
    if spec_report.failures and not policy.best_effort:
        # Fail-fast surfaced inside _resilient_map already; this guard
        # only matters for assembly-stage surprises.
        raise FaultToleranceError(spec_report)

    counts = graph.counts()
    summary = PlanSummary(
        total=len(graph),
        executed=sum(
            1
            for job in graph
            if job.kind != "aggregate" and job.state == DONE
        ),
        deduped=counts.get("deduped", 0),
        pruned=counts.get(PRUNED, 0),
        failed=counts.get(FAILED, 0),
        cancelled=counts.get(CANCELLED, 0),
        critical_path_seconds=critical_path,
        wall_seconds=time.perf_counter() - start,
        job_seconds_by_kind=_mean_seconds_by_kind(graph),
    )
    _last_summary = summary
    return results, graph, summary
