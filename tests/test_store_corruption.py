"""Defensive reads: corrupt store entries degrade to recompute-and-rewrite.

A truncated file, a tampered payload, an envelope from another code
version, or an undecodable artifact must never crash a run or serve
wrong data — the store treats each as a miss, deletes the entry, and the
caller recomputes and rewrites it (mirroring how the trace layer
degrades on :class:`~repro.trace.sinks.TraceError`).
"""

from __future__ import annotations

import json

import pytest

from repro.store import ArtifactStore, use_store


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def put_entry(store, payload=None, kind="profile", fields=None):
    fields = fields or {"trace": "abc"}
    digest = store.key(kind, fields)
    store.put(kind, digest, fields, payload or {"value": 1})
    return digest, store.entry_path(kind, digest)


class TestCorruptEntries:
    def test_roundtrip_hit(self, store):
        digest, _path = put_entry(store, {"value": 42})
        assert store.get("profile", digest) == {"value": 42}
        assert store.counters.hits == 1

    def test_truncated_payload(self, store):
        digest, path = put_entry(store)
        path.write_text(path.read_text()[:40])
        assert store.get("profile", digest) is None
        assert store.counters.corrupt == 1
        assert not path.exists(), "corrupt entry must be deleted"

    def test_empty_file(self, store):
        digest, path = put_entry(store)
        path.write_text("")
        assert store.get("profile", digest) is None
        assert store.counters.corrupt == 1

    def test_tampered_payload_fails_digest(self, store):
        digest, path = put_entry(store, {"value": 1})
        envelope = json.loads(path.read_text())
        envelope["payload"]["value"] = 2  # digest no longer matches
        path.write_text(json.dumps(envelope))
        assert store.get("profile", digest) is None
        assert store.counters.corrupt == 1
        assert not path.exists()

    def test_version_salt_mismatch(self, store, monkeypatch):
        digest, path = put_entry(store)
        monkeypatch.setenv("REPRO_CACHE_SALT", "a-newer-code-version")
        assert store.get("profile", digest) is None
        assert store.counters.corrupt == 1
        assert not path.exists(), "stale-salt entry must be evicted"

    def test_kind_mismatch(self, store):
        digest, _path = put_entry(store, kind="profile")
        target = store.entry_path("placement", digest)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(store.entry_path("profile", digest).read_text())
        assert store.get("placement", digest) is None
        assert store.counters.corrupt == 1

    def test_missing_entry_is_plain_miss(self, store):
        assert store.get("profile", "0" * 64) is None
        assert store.counters.misses == 1
        assert store.counters.corrupt == 0


class TestRecomputeAndRewrite:
    def test_get_or_compute_recovers(self, store):
        fields = {"trace": "abc"}
        calls = []

        def compute():
            calls.append(1)
            return {"value": 7}

        identity = dict
        first = store.get_or_compute(
            "profile", fields, encode=identity, decode=identity, compute=compute
        )
        # Corrupt the freshly written entry in place.
        path = store.entry_path("profile", store.key("profile", fields))
        path.write_text(path.read_text()[:25])
        second = store.get_or_compute(
            "profile", fields, encode=identity, decode=identity, compute=compute
        )
        assert first == second == {"value": 7}
        assert len(calls) == 2, "corruption must trigger recompute"
        assert path.exists(), "recompute must rewrite the entry"
        # Third call: the rewritten entry serves a clean hit.
        third = store.get_or_compute(
            "profile", fields, encode=identity, decode=identity, compute=compute
        )
        assert third == {"value": 7}
        assert len(calls) == 2

    def test_decode_failure_treated_as_corruption(self, store):
        fields = {"trace": "abc"}

        def bad_decode(payload):
            raise ValueError("schema drift")

        store.put("profile", store.key("profile", fields), fields, {"v": 1})
        value = store.get_or_compute(
            "profile",
            fields,
            encode=dict,
            decode=bad_decode,
            compute=lambda: {"v": 2},
        )
        assert value == {"v": 2}
        assert store.counters.corrupt == 1

    def test_pipeline_recovers_from_truncation(
        self, tmp_path, toy_workload, small_cache
    ):
        """End-to-end: a truncated placement entry heals on the next run."""
        from repro.profiling.serialize import placement_to_dict
        from repro.runtime.driver import build_placement
        from repro.trace.buffer import record_trace

        root = tmp_path / "store"
        trace = record_trace(toy_workload, toy_workload.train_input)
        with use_store(ArtifactStore(root)):
            _, placement_cold = build_placement(
                toy_workload, cache_config=small_cache, trace=trace
            )
        for path in (root / "objects" / "placement").rglob("*.json"):
            path.write_text(path.read_text()[: len(path.read_text()) // 2])
        rerun = ArtifactStore(root)
        with use_store(rerun):
            _, placement_warm = build_placement(
                toy_workload, cache_config=small_cache, trace=trace
            )
        assert rerun.counters.corrupt >= 1
        assert rerun.counters.writes >= 1, "entry must be rewritten"
        assert placement_to_dict(placement_warm) == placement_to_dict(
            placement_cold
        )


class TestGcAndClear:
    def test_gc_removes_stale_salt(self, store, monkeypatch):
        put_entry(store, fields={"trace": "a"})
        monkeypatch.setenv("REPRO_CACHE_SALT", "next-version")
        removed, removed_bytes = store.gc()
        assert removed == 1
        assert removed_bytes > 0
        assert store.stats().entries == 0

    def test_gc_max_bytes_keeps_newest(self, store):
        import os
        import time

        first, first_path = put_entry(store, fields={"trace": "a"})
        second, second_path = put_entry(store, fields={"trace": "b"})
        old = time.time() - 1000
        os.utime(first_path, (old, old))
        size = second_path.stat().st_size
        removed, _bytes = store.gc(max_bytes=size)
        assert removed == 1
        assert not first_path.exists()
        assert second_path.exists()

    def test_gc_max_age(self, store):
        import os
        import time

        _digest, path = put_entry(store)
        old = time.time() - 10 * 86400
        os.utime(path, (old, old))
        removed, _bytes = store.gc(max_age_days=5)
        assert removed == 1

    def test_clear(self, store):
        put_entry(store, fields={"trace": "a"})
        put_entry(store, fields={"trace": "b"})
        assert store.clear() == 2
        assert store.stats().entries == 0


class TestEnvelopeBytes:
    """The envelope digests the payload bytes exactly as written."""

    def test_whitespace_reserialized_payload_is_corrupt(self, store):
        digest, path = put_entry(store, {"value": 1, "items": [1, 2]})
        head, _sep, _body = path.read_bytes().rpartition(b'"payload":')
        # Same payload value, different bytes: spaces after separators.
        path.write_bytes(head + b'"payload":{"items": [1, 2], "value": 1}}')
        assert json.loads(path.read_text())["payload"] == {
            "value": 1,
            "items": [1, 2],
        }
        assert store.get("profile", digest) is None
        assert store.counters.corrupt == 1
        assert not path.exists()

    def test_format_1_envelope_is_stale(self, store):
        from repro.store.keys import code_salt, digest_json

        fields = {"trace": "abc"}
        digest = store.key("profile", fields)
        path = store.entry_path("profile", digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"value": 1}
        path.write_text(
            json.dumps(
                {
                    "format": 1,
                    "kind": "profile",
                    "salt": code_salt(),
                    "fields": fields,
                    "payload_sha256": digest_json(payload),
                    "payload": payload,
                }
            )
        )
        summary = store.stats()
        assert (summary.entries, summary.stale) == (1, 1)
        assert store.get("profile", digest) is None
        assert store.counters.corrupt == 1
        assert not path.exists()

    def test_gc_removes_format_1_envelope(self, store):
        _digest, path = put_entry(store)
        envelope = json.loads(path.read_text())
        envelope["format"] = 1
        path.write_text(json.dumps(envelope))
        removed, _bytes = store.gc()
        assert removed == 1
        assert not path.exists()


class TestTraceOpsFile:
    """A trace's ``.ops`` file degrades exactly like its column file."""

    @pytest.fixture
    def saved(self, store, toy_workload):
        from repro.store.traces import remember_and_save
        from repro.trace.buffer import record_trace

        trace = record_trace(toy_workload, toy_workload.train_input)
        fingerprint = remember_and_save(store, "toyprog", "train", trace)
        return trace, fingerprint

    def _heals(self, store, saved, toy_workload, damage):
        from repro.store.traces import (
            load_trace_by_fingerprint,
            remember_and_save,
            trace_data_path,
            trace_ops_path,
        )
        from repro.trace.buffer import record_trace

        _trace, fingerprint = saved
        ops_path = trace_ops_path(store, fingerprint)
        data_path = trace_data_path(store, fingerprint)
        damage(ops_path)
        # A fresh handle, as the next process would open the store.
        reader = ArtifactStore(store.root)
        assert load_trace_by_fingerprint(reader, fingerprint) is None
        assert reader.counters.corrupt == 1
        assert not ops_path.exists() and not data_path.exists()
        fields = {"fingerprint": fingerprint}
        entry = reader.entry_path("trace", reader.key("trace", fields))
        assert not entry.exists()
        # Recompute and rewrite: the caller re-records and re-saves.
        trace = record_trace(toy_workload, toy_workload.train_input)
        assert remember_and_save(reader, "toyprog", "train", trace) == fingerprint
        assert ops_path.exists() and data_path.exists()
        loaded = load_trace_by_fingerprint(ArtifactStore(store.root), fingerprint)
        assert loaded is not None
        assert loaded.ops == trace.ops
        loaded.close()

    def test_truncated_ops_file_recomputes(self, store, saved, toy_workload):
        def truncate(path):
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])

        self._heals(store, saved, toy_workload, truncate)

    def test_tampered_ops_file_recomputes(self, store, saved, toy_workload):
        def tamper(path):
            raw = bytearray(path.read_bytes())
            at = raw.index(b'"max_stack_depth":') + len(b'"max_stack_depth":')
            raw[at] = ord("9") if raw[at] != ord("9") else ord("8")
            path.write_bytes(bytes(raw))  # same size, different digest

        self._heals(store, saved, toy_workload, tamper)

    def test_missing_ops_file_recomputes(self, store, saved, toy_workload):
        self._heals(store, saved, toy_workload, lambda path: path.unlink())

    def test_gc_reclaims_orphan_ops_file(self, store, saved):
        from repro.store.traces import trace_ops_path

        _trace, fingerprint = saved
        orphan = trace_ops_path(store, "ee" + "0" * 62)
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_bytes(b"{}")
        removed, removed_bytes = store.gc()
        assert (removed, removed_bytes) == (1, 2)
        assert not orphan.exists()
        assert trace_ops_path(store, fingerprint).exists()

    def test_clear_removes_ops_files(self, store, saved):
        from repro.store.traces import trace_ops_path

        _trace, fingerprint = saved
        store.clear()
        assert not trace_ops_path(store, fingerprint).exists()


class TestConcurrentWriters:
    """Two threads of one process writing the same entry must not collide."""

    def test_threads_put_one_digest(self, store):
        import sys
        import threading

        fields = {"trace": "shared"}
        digest = store.key("profile", fields)
        writers = 4  # more writers than this suite's CI cores
        barrier = threading.Barrier(writers)
        errors = []

        def writer(tag):
            barrier.wait()
            for index in range(200):
                try:
                    store.put("profile", digest, fields, {"writer": tag, "i": index})
                except Exception as exc:
                    errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=writer, args=(tag,)) for tag in range(writers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert store.get("profile", digest)["i"] == 199
        assert list(store.entry_path("profile", digest).parent.glob(".*.tmp")) == []

    def test_two_threads_save_one_trace(self, tmp_path, toy_workload):
        import threading

        from repro.store.keys import trace_fingerprint
        from repro.store.traces import load_trace_by_fingerprint, save_trace
        from repro.trace.buffer import record_trace

        trace = record_trace(toy_workload, toy_workload.train_input)
        fingerprint = trace_fingerprint(trace)
        for round_index in range(10):
            root = tmp_path / f"store-{round_index}"
            barrier = threading.Barrier(2)
            errors = []

            def writer():
                barrier.wait()
                try:
                    save_trace(ArtifactStore(root), trace)
                except Exception as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=writer) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            loaded = load_trace_by_fingerprint(ArtifactStore(root), fingerprint)
            assert loaded is not None
            loaded.close()
