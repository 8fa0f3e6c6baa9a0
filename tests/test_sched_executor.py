"""DAG executor end-to-end: equality, warm resume, fault handling.

The graph-shaped dispatcher must be invisible in the results: whatever
the coarse per-spec reference — one :func:`repro.runtime.driver.\
run_experiment` per spec — computes, the DAG path must reproduce
bit-for-bit: store-less inline, store-less pooled (under a private
temporary store), cold-with-store, and warm (where it additionally
schedules *zero* stage executions).  Failures ride the resilient
executor's retry/best-effort machinery and are reported once per spec.
"""

from __future__ import annotations

import os
import tempfile

import pytest

from repro.experiments.common import clear_cache
from repro.runtime import faults, parallel
from repro.runtime.driver import run_experiment
from repro.runtime.faults import FaultToleranceError, RetryPolicy
from repro.runtime.parallel import ExperimentSpec
from repro.sched import costs, executor
from repro.sched.executor import last_summary, run_experiments_dag
from repro.store import ArtifactStore, current_store, use_store
from repro.workloads import make_workload
from tests.test_store_pipeline import assert_same_experiment


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_cache()
    yield
    clear_cache()


def _specs():
    return [
        ExperimentSpec(workload="deltablue", same_input=True),
        ExperimentSpec(workload="deltablue", same_input=False),
    ]


def _per_spec(specs):
    """The coarse reference: one full pipeline run per spec."""
    results = []
    for spec in specs:
        workload = make_workload(spec.workload)
        test = workload.train_input if spec.same_input else workload.test_input
        results.append(
            run_experiment(
                workload,
                test_input=test,
                cache_config=spec.cache_config,
                include_random=spec.include_random,
                classify=spec.classify,
                track_pages=spec.track_pages,
            )
        )
    return results


def _scratch_stores():
    return {
        name
        for name in os.listdir(tempfile.gettempdir())
        if name.startswith("repro-sched-")
    }


class TestEquality:
    def test_storeless_inline_matches_coarse_path(self):
        direct = _per_spec(_specs())
        clear_cache()
        via_dag, graph, summary = run_experiments_dag(_specs(), jobs=1)
        for first, second in zip(direct, via_dag):
            assert_same_experiment(first, second)
        assert summary.executed > 0
        assert summary.failed == 0
        # Table 2 and Table 4 share the training trace/profile/placement.
        assert summary.deduped == 3

    def test_cold_store_run_matches_coarse_path(self, tmp_path):
        with use_store(ArtifactStore(tmp_path / "a")):
            direct = _per_spec(_specs())
        clear_cache()
        with use_store(ArtifactStore(tmp_path / "b")):
            via_dag, _, summary = run_experiments_dag(_specs(), jobs=1)
        for first, second in zip(direct, via_dag):
            assert_same_experiment(first, second)
        assert summary.pruned == 0

    def test_storeless_pooled_matches_inline(self, monkeypatch):
        monkeypatch.setattr(executor, "_effective_cpus", lambda: 2)
        dispatch_roots = []
        dispatch = executor._dispatch

        def spy(*args, **kwargs):
            store = current_store()
            dispatch_roots.append(None if store is None else store.root.name)
            return dispatch(*args, **kwargs)

        monkeypatch.setattr(executor, "_dispatch", spy)
        before = _scratch_stores()
        inline, _, _ = run_experiments_dag(_specs(), jobs=1)
        clear_cache()
        pooled, _, summary = run_experiments_dag(_specs(), jobs=2)
        for first, second in zip(inline, pooled):
            assert_same_experiment(first, second)
        assert summary.failed == 0
        # Only the pooled run borrows a private store, and only for the
        # dispatch: nothing stays installed or on disk afterwards.
        assert dispatch_roots[0] is None
        assert dispatch_roots[1].startswith("repro-sched-")
        assert current_store() is None
        assert _scratch_stores() <= before

    def test_last_summary_tracks_most_recent_run(self):
        _, _, summary = run_experiments_dag(_specs()[:1], jobs=1)
        assert last_summary() is summary


class TestWarmResume:
    def test_warm_rerun_executes_nothing(self, tmp_path):
        root = tmp_path / "store"
        with use_store(ArtifactStore(root)):
            cold, _, cold_summary = run_experiments_dag(_specs(), jobs=1)
        assert cold_summary.executed > 0
        clear_cache()
        warm_store = ArtifactStore(root)
        with use_store(warm_store):
            warm, _, warm_summary = run_experiments_dag(_specs(), jobs=1)
        assert warm_summary.executed == 0
        assert warm_summary.pruned > 0
        assert warm_summary.failed == 0
        # One counter source of truth: a fully-warm resume is all hits.
        assert warm_store.counters.misses == 0
        assert warm_store.counters.hits > 0
        for first, second in zip(cold, warm):
            assert_same_experiment(first, second)

    def test_partially_warm_graph_runs_only_the_cold_jobs(self, tmp_path):
        root = tmp_path / "store"
        with use_store(ArtifactStore(root)):
            run_experiments_dag(_specs()[:1], jobs=1)
        clear_cache()
        with use_store(ArtifactStore(root)):
            _, graph, summary = run_experiments_dag(_specs(), jobs=1)
        # The table-2 half is warm; only table-4's extra jobs execute.
        assert summary.pruned > 0
        assert 0 < summary.executed < summary.total
        assert summary.failed == 0


class TestFaults:
    def test_transient_fault_heals_via_retry(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "oom@0")
        policy = RetryPolicy(backoff=0.0)
        results, _, summary = run_experiments_dag(
            _specs()[:1], jobs=1, policy=policy
        )
        assert results[0] is not None
        assert summary.failed == 0

    def test_permanent_fault_cancels_downstream_best_effort(
        self, monkeypatch
    ):
        monkeypatch.setenv(faults.ENV_FAULTS, "oom@0#*")
        policy = RetryPolicy(max_retries=1, backoff=0.0, best_effort=True)
        results, graph, summary = run_experiments_dag(
            _specs()[:1], jobs=1, policy=policy
        )
        assert results == [None]
        assert summary.failed == 1
        assert summary.cancelled >= 1
        report = parallel.last_fanout_report()
        assert report is not None
        assert [f.label for f in report.failures] == ["deltablue"]

    def test_permanent_fault_raises_under_fail_fast(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "oom@0#*")
        policy = RetryPolicy(max_retries=0, backoff=0.0, best_effort=False)
        with pytest.raises(FaultToleranceError):
            run_experiments_dag(_specs()[:1], jobs=1, policy=policy)

    def test_degraded_spec_is_reported_once(self, monkeypatch, tmp_path):
        # Static cost priors fix the dispatch order: the frontier is the
        # three training traces, longest first, so task 1 is espresso's.
        monkeypatch.chdir(tmp_path)
        costs.refresh_history()
        monkeypatch.setenv(faults.ENV_FAULTS, "oom@1#*")
        parallel.reset_fanout_reports()
        policy = RetryPolicy(max_retries=1, backoff=0.0, best_effort=True)
        specs = [
            ExperimentSpec(workload=name, same_input=True)
            for name in ("compress", "espresso", "deltablue")
        ]
        try:
            results, _, _ = run_experiments_dag(specs, jobs=2, policy=policy)
        finally:
            costs.refresh_history()
        assert [result is None for result in results] == [False, True, False]
        assert len(parallel.fanout_reports()) == 1
        report = parallel.combined_fanout_report()
        assert [f.label for f in report.failures] == ["espresso"]
        assert report.render().startswith(
            "[faults] partial results: 2/3 shards completed "
            "(1 failed, 1 retries, 0 timeouts, 0 crashes)"
        )
