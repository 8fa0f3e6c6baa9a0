"""Fingerprint-keyed memmap trace artifacts: record once, attach zero-copy.

A recorded trace is the most expensive artifact in the pipeline — it
costs a full workload run — so the store persists the recording itself,
as two files plus one small entry:

* The **data file** ``<root>/traces/<fp[:2]>/<fp>.trace`` holds the
  access columns in the :mod:`repro.trace.plane` container format,
  streamed chunk-wise from the source columns.
* The **ops file** ``<fp>.ops`` beside it holds the lifetime ops and
  counters as the exact canonical JSON text
  (:func:`~repro.store.keys.ops_json`) that the fingerprint hashed —
  one encoding per trace serves both the fingerprint and the file.
* The **store entry** (kind ``trace``, keyed by the fingerprint) carries
  metadata only: the event count, the counters, the data file's byte
  size, and the ops file's byte size and SHA-256.  The usual envelope
  validation (salt, payload digest) guards it.

Both files are written atomically (temp + ``os.replace``).  Loading
checks the data file's size and header and the ops file's size and
digest, then attaches the columns as a read-only memory map
(:meth:`~repro.trace.buffer.TraceRecorder.attach` semantics): no copy,
no workload run, bounded RSS when streamed with ``advise_done``.  A
missing, truncated or tampered data or ops file degrades exactly like
a corrupt JSON entry (``tests/test_store_corruption.py``): the entry
and both files are deleted, ``store.corrupt`` is counted, and the
caller re-records and rewrites.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from ..obs import telemetry as obs
from ..trace import plane
from ..trace.buffer import (
    _OP_ALLOC,
    _OP_COMPUTE,
    _OP_FREE,
    _OP_OBJECT,
    _OP_STACK_DEPTH,
    DEFAULT_CHUNK_EVENTS,
    TraceRecorder,
)
from ..trace.events import Category, ObjectInfo, TraceError
from .keys import digest_bytes, fingerprint_with_ops, memoized_fingerprint, ops_json
from .store import (
    TRACE_DATA_SUFFIX,
    TRACE_OPS_SUFFIX,
    ArtifactStore,
    temp_path,
    write_atomic,
)

#: Entry kind for persisted trace columns (the ``objects/trace/`` dir).
KIND_TRACE = "trace"

#: Op kinds whose payload is a single integer.
_INT_PAYLOAD_KINDS = (_OP_FREE, _OP_STACK_DEPTH, _OP_COMPUTE)


def _decode_info(raw: list) -> ObjectInfo:
    obj_id, category, size, symbol, decl_index, alloc_name = raw
    if not (
        type(obj_id) is int
        and type(category) is int
        and type(size) is int
        and (symbol is None or type(symbol) is str)
        and type(decl_index) is int
        and (alloc_name is None or type(alloc_name) is int)
    ):
        raise ValueError(f"malformed object fields {raw!r}")
    return ObjectInfo(
        obj_id=obj_id,
        category=Category(category),
        size=size,
        symbol=symbol,
        decl_index=decl_index,
        alloc_name=alloc_name,
    )


def decode_ops(raw: list) -> list[tuple[int, int, object]]:
    """Rebuild a recorder's op list from its parsed JSON rendering.

    The inverse of the ``"ops"`` member of
    :func:`~repro.store.keys.ops_json`: payload dataclasses and tuples
    come back exactly as the recorder held them.  Ops arrive here from
    outside the program too (``repro serve`` trace uploads), and
    :func:`~repro.store.keys.ops_json` writes integers verbatim, so
    every field must have exactly the type the recorder gives it (an
    ``int``, never a ``bool`` or a string); anything else raises
    :class:`ValueError`.
    """
    ops: list[tuple[int, int, object]] = []
    for position, kind, payload in raw:
        if type(position) is not int or type(kind) is not int:
            raise ValueError(f"malformed op [{position!r}, {kind!r}, ...]")
        if kind == _OP_OBJECT:
            payload = _decode_info(payload)
        elif kind == _OP_ALLOC:
            info, return_addresses = payload
            return_addresses = tuple(return_addresses)
            if not all(type(address) is int for address in return_addresses):
                raise ValueError(f"malformed return addresses {return_addresses!r}")
            payload = (_decode_info(info), return_addresses)
        elif kind not in _INT_PAYLOAD_KINDS or type(payload) is not int:
            raise ValueError(f"malformed op [{position}, {kind}, {payload!r}]")
        ops.append((position, kind, payload))
    return ops


def trace_data_path(store: ArtifactStore, fingerprint: str) -> Path:
    """Where the column container for ``fingerprint`` lives on disk."""
    return (
        store.root
        / "traces"
        / fingerprint[:2]
        / f"{fingerprint}{TRACE_DATA_SUFFIX}"
    )


def trace_ops_path(store: ArtifactStore, fingerprint: str) -> Path:
    """Where the ops file for ``fingerprint`` lives (beside its data file)."""
    return trace_data_path(store, fingerprint).with_suffix(TRACE_OPS_SUFFIX)


def _trace_fields(fingerprint: str) -> dict:
    return {"fingerprint": fingerprint}


def _discard(path: Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass


def _size(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return -1


def _write_columns(trace: TraceRecorder, path: Path) -> None:
    """Stream the trace's columns chunk-wise into a container at ``path``."""
    temp = temp_path(path)
    storage = plane.MmapStorage(temp, trace.events, create=True, persist=True)
    try:
        columns = trace.columns()
        position = 0
        for start in range(0, trace.events, DEFAULT_CHUNK_EVENTS):
            end = min(start + DEFAULT_CHUNK_EVENTS, trace.events)
            chunk = tuple(column[start:end] for column in columns)
            position += storage.write_at(position, chunk)
            trace.advise_done(start, end)
        storage.close()
        os.replace(temp, path)
    finally:
        _discard(temp)


def save_trace(store: ArtifactStore, trace: TraceRecorder) -> str:
    """Persist a sealed trace's columns + ops; returns the fingerprint.

    The ops are encoded at most once: together with the fingerprint when
    the recorder has not memoized one, otherwise only when something has
    to be written.

    Idempotent: when a valid entry and both files already exist,
    nothing is written, and when this process itself wrote or validated
    the entry (:meth:`ArtifactStore.known`) not even the entry is read
    back.  The files are staged under temp names and moved into place
    atomically, so a crashed writer never leaves a half-written
    artifact under its final name; the entry is written last.
    """
    ops = None
    fingerprint = memoized_fingerprint(trace)
    if fingerprint is None:
        fingerprint, ops = fingerprint_with_ops(trace)
    fields = _trace_fields(fingerprint)
    digest = store.key(KIND_TRACE, fields)
    path = trace_data_path(store, fingerprint)
    ops_path = trace_ops_path(store, fingerprint)
    _layout, expected_bytes = plane.column_layout(trace.events)
    if (
        store.known(KIND_TRACE, digest) is not None
        and _size(path) == expected_bytes
        and _size(ops_path) >= 0
    ):
        return fingerprint
    existing = store.get(KIND_TRACE, digest)
    if (
        isinstance(existing, dict)
        and _size(path) == expected_bytes
        and _size(ops_path) == existing.get("ops_bytes")
    ):
        return fingerprint
    # No entry, or one without (valid) files: write everything.
    if ops is None:
        ops = ops_json(trace)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_columns(trace, path)
    write_atomic(ops_path, ops)
    store.put(
        KIND_TRACE,
        digest,
        fields,
        {
            "fingerprint": fingerprint,
            "events": trace.events,
            "compute_instructions": trace.compute_instructions,
            "max_stack_depth": trace.max_stack_depth,
            "data_bytes": expected_bytes,
            "ops_bytes": len(ops),
            "ops_sha256": digest_bytes(ops),
        },
    )
    obs.count("trace.save")
    obs.count("trace.save.bytes", expected_bytes + len(ops))
    return fingerprint


def _read_ops(path: Path, payload: dict) -> list[tuple[int, int, object]]:
    """Verify an ops file against its entry, then decode its op list."""
    raw = path.read_bytes()
    if len(raw) != payload["ops_bytes"] or digest_bytes(raw) != payload["ops_sha256"]:
        raise TraceError(f"ops file {path} fails its size or digest check")
    return decode_ops(json.loads(raw)["ops"])


def load_trace_by_fingerprint(
    store: ArtifactStore, fingerprint: str
) -> TraceRecorder | None:
    """Attach the persisted trace for ``fingerprint``, or ``None``.

    A missing entry is a plain miss.  A present entry whose data file is
    missing, truncated, or fails its header check, or whose ops file is
    missing or fails its size or SHA-256 check, is treated as
    corruption: the entry *and* both files are discarded
    (``store.corrupt`` counted) so the caller re-records and rewrites —
    the recompute-and-rewrite discipline of :mod:`repro.store.store`
    extended to the trace's own files.
    """
    fields = _trace_fields(fingerprint)
    digest = store.key(KIND_TRACE, fields)
    payload = store.get(KIND_TRACE, digest)
    if not isinstance(payload, dict) or "events" not in payload:
        return None
    path = trace_data_path(store, fingerprint)
    ops_path = trace_ops_path(store, fingerprint)
    try:
        ops = _read_ops(ops_path, payload)
        storage = plane.MmapStorage(path, int(payload["events"]), create=False)
    except (OSError, TraceError, ValueError, TypeError, KeyError):
        store.counters.corrupt += 1
        obs.count("store.corrupt")
        store._discard(store.entry_path(KIND_TRACE, digest))
        _discard(path)
        _discard(ops_path)
        return None
    trace = TraceRecorder.from_storage(
        storage,
        ops=ops,
        compute_instructions=int(payload.get("compute_instructions", 0)),
        max_stack_depth=int(payload.get("max_stack_depth", 0)),
        fingerprint=fingerprint,
    )
    obs.count("trace.attach")
    return trace


def load_trace(
    store: ArtifactStore, workload: str, input_name: str
) -> TraceRecorder | None:
    """Attach the persisted trace for a (workload, input) pair, or ``None``.

    Resolves the pair to its last recorded fingerprint via the
    ``trace-meta`` entry, then attaches the columns zero-copy.
    """
    from .stages import known_fingerprint

    fingerprint = known_fingerprint(store, workload, input_name)
    if fingerprint is None:
        return None
    return load_trace_by_fingerprint(store, fingerprint)


def remember_and_save(
    store: ArtifactStore, workload: str, input_name: str, trace: TraceRecorder
) -> str:
    """Persist the trace, then refresh the trace-meta entry naming it.

    :func:`save_trace` computes (and memoizes) the fingerprint from the
    same encoding of the ops that it writes, so ``remember_trace`` finds
    it ready; the trace entry lands before the entry that points at it.
    """
    from .stages import remember_trace

    fingerprint = save_trace(store, trace)
    remember_trace(store, workload, input_name, trace)
    return fingerprint
