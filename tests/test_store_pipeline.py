"""Incremental pipeline execution on top of the artifact store.

A second run of the same experiment against a warm store must (a) never
execute the workload, (b) report zero misses, and (c) reproduce the cold
run's results bit-for-bit.  The job-graph executor must prune warm
stages and dispatch only the cold remainder.
"""

from __future__ import annotations

import pytest

from repro.profiling.serialize import placement_to_dict
from repro.runtime.driver import run_experiment
from repro.runtime.parallel import ExperimentSpec
from repro.sched.executor import run_experiments_dag
from repro.store import ArtifactStore, use_store
from repro.workloads import make_workload


def assert_same_experiment(first, second):
    assert placement_to_dict(first.placement) == placement_to_dict(
        second.placement
    )
    assert first.profile == second.profile
    for arm in ("original", "ccdp", "random"):
        a, b = getattr(first, arm), getattr(second, arm)
        if a is None:
            assert b is None
            continue
        assert a.cache == b.cache
        assert a.paging == b.paging


class TestWarmExperiment:
    @pytest.mark.parametrize("classify,track_pages", [(False, False), (True, True)])
    def test_second_run_is_all_hits(self, tmp_path, classify, track_pages):
        root = tmp_path / "store"
        with use_store(ArtifactStore(root)):
            cold = run_experiment(
                make_workload("compress"),
                include_random=True,
                classify=classify,
                track_pages=track_pages,
            )
        warm_store = ArtifactStore(root)
        with use_store(warm_store):
            warm = run_experiment(
                make_workload("compress"),
                include_random=True,
                classify=classify,
                track_pages=track_pages,
            )
        assert warm_store.counters.misses == 0
        assert warm_store.counters.writes == 0
        assert warm_store.counters.hits > 0
        assert_same_experiment(cold, warm)

    def test_warm_run_never_executes_workload(self, tmp_path, monkeypatch):
        root = tmp_path / "store"
        with use_store(ArtifactStore(root)):
            run_experiment(make_workload("compress"))

        def boom(self, sink, input_name):
            raise AssertionError("workload ran on a warm store")

        with use_store(ArtifactStore(root)):
            workload = make_workload("compress")
            monkeypatch.setattr(type(workload), "run", boom)
            run_experiment(workload)


class TestWarmFanOut:
    def test_warm_rerun_serves_every_shard_from_store(self, tmp_path):
        specs = [
            ExperimentSpec(workload="compress"),
            ExperimentSpec(workload="deltablue"),
        ]
        root = tmp_path / "store"
        with use_store(ArtifactStore(root)):
            cold, _, _ = run_experiments_dag(specs, jobs=1)
        warm_store = ArtifactStore(root)
        with use_store(warm_store):
            warm, _, summary = run_experiments_dag(specs, jobs=2)
        assert summary.executed == 0
        assert warm_store.counters.misses == 0
        for first, second in zip(cold, warm):
            assert_same_experiment(first, second)

    def test_partial_warm_dispatches_only_cold(self, tmp_path):
        root = tmp_path / "store"
        with use_store(ArtifactStore(root)):
            run_experiments_dag([ExperimentSpec(workload="compress")], jobs=1)
        mixed_store = ArtifactStore(root)
        specs = [
            ExperimentSpec(workload="compress"),
            ExperimentSpec(workload="deltablue"),
        ]
        with use_store(mixed_store):
            results, _, _ = run_experiments_dag(specs, jobs=1)
        assert len(results) == 2
        assert results[0].workload == "compress"
        assert results[1].workload == "deltablue"
        # The deltablue shard computed fresh and persisted its stages.
        assert mixed_store.counters.writes > 0
        rerun_store = ArtifactStore(root)
        with use_store(rerun_store):
            run_experiments_dag(specs, jobs=1)
        assert rerun_store.counters.misses == 0


class TestGcPins:
    """``repro cache gc`` must not collect fingerprints a live daemon pinned."""

    def _seed_trace(self, store):
        from repro.store import remember_and_save
        from repro.trace.buffer import record_trace

        workload = make_workload("compress")
        trace = record_trace(workload, "smalltest")
        return remember_and_save(store, "compress", "smalltest", trace)

    def test_gc_spares_pinned_trace(self, tmp_path):
        from repro.store import load_trace_by_fingerprint, trace_data_path

        store = ArtifactStore(tmp_path / "store")
        fingerprint = self._seed_trace(store)
        store.pin_trace(fingerprint)
        # Aggressive gc from a *second* store handle (as `repro cache gc`
        # in another process would open): age and byte pressure together
        # would normally evict everything.
        gc_store = ArtifactStore(tmp_path / "store")
        gc_store.gc(max_bytes=0, max_age_days=0.0)
        assert load_trace_by_fingerprint(store, fingerprint) is not None
        assert trace_data_path(store, fingerprint).exists()

    def test_gc_collects_after_unpin(self, tmp_path):
        from repro.store import trace_data_path

        store = ArtifactStore(tmp_path / "store")
        fingerprint = self._seed_trace(store)
        store.pin_trace(fingerprint)
        store.unpin_trace(fingerprint)
        store.gc(max_bytes=0, max_age_days=0.0)
        assert not trace_data_path(store, fingerprint).exists()

    def test_stale_pin_from_dead_pid_is_swept(self, tmp_path):
        from repro.store import trace_data_path

        store = ArtifactStore(tmp_path / "store")
        fingerprint = self._seed_trace(store)
        # Forge a pin from a pid that cannot be alive.
        store.pins_dir.mkdir(parents=True, exist_ok=True)
        dead = store.pins_dir / f"{fingerprint}.999999999.pin"
        dead.write_text("999999999\n")
        assert store.pinned_fingerprints() == set()
        assert not dead.exists()
        store.gc(max_bytes=0, max_age_days=0.0)
        assert not trace_data_path(store, fingerprint).exists()

    def test_release_pins_drops_only_this_process(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        fingerprint = self._seed_trace(store)
        store.pin_trace(fingerprint)
        foreign = store.pins_dir / f"{fingerprint}.1.pin"
        foreign.write_text("1\n")  # pid 1 is always alive
        assert store.release_pins() == 1
        assert foreign.exists()
        assert store.pinned_fingerprints() == {fingerprint}


class TestPersistOnce:
    """A process persists each trace once: repeat saves read nothing back."""

    def _record(self):
        from repro.trace.buffer import record_trace

        return record_trace(make_workload("compress"), "smalltest")

    def test_second_remember_and_save_makes_no_get(self, tmp_path, monkeypatch):
        from repro.store import remember_and_save

        store = ArtifactStore(tmp_path / "store")
        trace = self._record()
        fingerprint = remember_and_save(store, "compress", "smalltest", trace)
        writes = store.counters.writes
        gets = []
        original = ArtifactStore.get

        def counting_get(self, kind, digest):
            gets.append(kind)
            return original(self, kind, digest)

        monkeypatch.setattr(ArtifactStore, "get", counting_get)
        assert remember_and_save(store, "compress", "smalltest", trace) == fingerprint
        assert gets == []
        assert store.counters.writes == writes

    def test_validated_entries_are_known_to_a_new_handle(self, tmp_path):
        from repro.store import load_trace, remember_and_save

        root = tmp_path / "store"
        fingerprint = remember_and_save(
            ArtifactStore(root), "compress", "smalltest", self._record()
        )
        reader = ArtifactStore(root)
        loaded = load_trace(reader, "compress", "smalltest")
        before = reader.counters.hits + reader.counters.misses
        assert remember_and_save(reader, "compress", "smalltest", loaded) == fingerprint
        assert reader.counters.hits + reader.counters.misses == before
        assert reader.counters.writes == 0
        loaded.close()

    def test_deleted_files_are_rewritten_despite_the_record(self, tmp_path):
        from repro.store import (
            load_trace_by_fingerprint,
            remember_and_save,
            trace_data_path,
        )

        store = ArtifactStore(tmp_path / "store")
        trace = self._record()
        fingerprint = remember_and_save(store, "compress", "smalltest", trace)
        # Another process (a `repro cache gc`, say) removes the columns.
        trace_data_path(store, fingerprint).unlink()
        remember_and_save(store, "compress", "smalltest", trace)
        assert trace_data_path(store, fingerprint).exists()
        loaded = load_trace_by_fingerprint(ArtifactStore(store.root), fingerprint)
        assert loaded is not None
        loaded.close()

    def test_record_holds_only_trace_kinds(self, tmp_path):
        """Only the re-saved trace kinds are recorded, so a long-lived
        store's record does not grow with every profile, placement or
        measurement it serves."""
        from repro.store import remember_and_save
        from repro.store.stages import KIND_PROFILE, KIND_TRACE_META
        from repro.store.store import RECORDED_KINDS
        from repro.store.traces import KIND_TRACE

        assert RECORDED_KINDS == {KIND_TRACE, KIND_TRACE_META}
        store = ArtifactStore(tmp_path / "store")
        trace = self._record()
        remember_and_save(store, "compress", "smalltest", trace)
        fields = {"n": 1}
        digest = store.key(KIND_PROFILE, fields)
        store.put(KIND_PROFILE, digest, fields, {"x": 1})
        assert store.get(KIND_PROFILE, digest) == {"x": 1}
        assert store.known(KIND_PROFILE, digest) is None
        assert {path.parent.parent.name for path in store._known} == RECORDED_KINDS
