"""Batched profiling: build a Profile from a recorded trace, vectorized.

The scalar :class:`~repro.profiling.profiler.ProfilerSink` does four
things per memory reference: map the object to its placement entity, tick
the entity's reference/lifetime counters, compute the TRG chunk, and feed
the recency queue.  Over a recorded trace
(:class:`~repro.trace.buffer.TraceRecorder`) the first three are exactly
expressible as column operations:

* The object -> entity map is *write-once* (object ids are never reused
  and each is bound to exactly one entity at declaration/allocation), so
  the whole entity column is one vectorized gather with the final map.
* Reference counts and first/last access timestamps per entity fall out
  of one stable argsort of the entity column.
* The TRG's front-of-queue fast path skips every reference whose
  (entity, chunk) pair equals the previous reference's pair, so only the
  *boundaries* of consecutive-duplicate runs ever touch the queue.  They
  are rank-compressed, so every piece of queue state is sized by the
  number of distinct (entity, chunk) keys.

The recency queue itself (insertion, move-to-front, byte-bounded
eviction, and the walk over entries in front of a hit) is inherently
sequential.  It runs in the native ``trg_pass`` kernel
(:mod:`repro.cache.native`), which adds each walked pair straight into
an open-addressing edge table whose first-increment stamps recover the
scalar builder's dict insertion order — which downstream tie-breaking
may observe.  When the native library is unavailable, the same ranks
run through an :class:`~collections.OrderedDict` loop, the kernel's
oracle, whose walked pairs are grouped by one sort.

The one time-varying input — an entity's byte size, which decides the
queue-entry accounting for small entities — is replayed exactly via a
timeline of (position, entity, entry_bytes) updates emitted while the
(rare) lifetime ops run through the scalar sink hooks.  The result is
equal, dict for dict, to profiling the live run.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from itertools import takewhile

import numpy as np

from ..cache import native
from ..cache.config import CacheConfig
from ..naming.xor import DEFAULT_NAME_DEPTH
from ..obs import telemetry as obs
from ..trace.buffer import (
    TraceRecorder,
    _OP_ALLOC,
    _OP_FREE,
    _OP_OBJECT,
    _OP_STACK_DEPTH,
)
from ..trace.events import STACK_OBJECT_ID
from .profile_data import Profile, STACK_ENTITY_ID
from .profiler import ProfilerSink
from .trg import DEFAULT_CHUNK_SIZE


def trace_entity_map(
    trace: TraceRecorder, name_depth: int = DEFAULT_NAME_DEPTH
) -> np.ndarray:
    """Object id -> entity id for a recorded trace, lifetime ops only.

    Replays just the (rare) lifetime ops through a fresh
    :class:`ProfilerSink`, reproducing the deterministic entity
    numbering a full profile of the same trace assigns — the reference
    stream itself is never touched.  Consumers that have per-*object*
    statistics (e.g. the two-level calibration pass of
    :func:`repro.cache.hierarchy.entity_l2_penalties`) use this to
    aggregate them onto placement entities.
    """
    sink = ProfilerSink(name_depth=name_depth)
    obj_col, *_rest = trace.columns()
    max_obj = int(obj_col.max()) if len(obj_col) else STACK_OBJECT_ID
    entity_of_object = sink._entity_of_object
    eid_map = np.zeros(max(max_obj, STACK_OBJECT_ID) + 1, dtype=np.int64)
    eid_map[STACK_OBJECT_ID] = STACK_ENTITY_ID
    for _position, kind, payload in trace.lifetime_ops:
        if kind == _OP_OBJECT:
            sink.on_object(payload)
            if payload.obj_id <= max_obj:
                eid_map[payload.obj_id] = entity_of_object[payload.obj_id]
        elif kind == _OP_ALLOC:
            info, return_addresses = payload
            sink.on_alloc(info, return_addresses)
            if info.obj_id <= max_obj:
                eid_map[info.obj_id] = entity_of_object[info.obj_id]
        elif kind == _OP_FREE:
            sink.on_free(payload)
        elif kind == _OP_STACK_DEPTH:
            sink.on_stack_depth(payload)
    return eid_map


def _entry_bytes_column(
    kept_eids: np.ndarray,
    kept_pos: np.ndarray,
    size_updates: list[tuple[int, int, int]],
    chunk_size: int,
) -> np.ndarray:
    """Queue-entry bytes in effect at each kept access, vectorized.

    ``size_updates`` holds (stream position, entity, entry bytes) in
    position order; an update at position ``p`` fires before the access
    at position ``p``.  Merging updates and accesses into one sequence
    sorted by (entity, position, updates-first) turns "latest update at
    or before this access" into a per-entity forward fill.
    """
    m = len(kept_eids)
    if not size_updates or m == 0:
        return np.full(m, chunk_size, dtype=np.int64)
    upd_pos, upd_eid, upd_val = (
        np.array(column, dtype=np.int64) for column in zip(*size_updates)
    )
    count = len(upd_pos)
    eids = np.concatenate((upd_eid, kept_eids))
    pos = np.concatenate((upd_pos, kept_pos))
    # Updates sort before the same-position access; ties between updates
    # keep list order (the later update wins the forward fill).
    tie = np.concatenate(
        (np.arange(count), np.full(m, count, dtype=np.int64))
    )
    order = np.lexsort((tie, pos, eids))
    is_update = order < count
    n = count + m
    rows = np.arange(n, dtype=np.int64)
    last_update = np.maximum.accumulate(np.where(is_update, rows, -1))
    sorted_eids = eids[order]
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_eids[1:], sorted_eids[:-1], out=boundary[1:])
    group_start = np.maximum.accumulate(np.where(boundary, rows, -1))
    values = np.full(n, chunk_size, dtype=np.int64)
    valid = last_update >= group_start
    values[valid] = upd_val[order[last_update[valid]]]
    entry = np.empty(m, dtype=np.int64)
    access_rows = ~is_update
    entry[order[access_rows] - count] = values[access_rows]
    return entry


#: Slots of the native pass's first edge table; it doubles as needed.
_EDGE_TABLE_START = 1024


def _edge_table(cap: int) -> list[np.ndarray]:
    """An empty native edge table: keys (-1 = empty), weights, stamps."""
    keys = np.full(cap, -1, dtype=np.int64)
    return [keys, np.empty(cap, dtype=np.int64), np.empty(cap, dtype=np.int64)]


def _recency_pass_native(library, ranks, entry, num_keys, threshold):
    """The TRG recency pass in the native kernel (``trg_pass``).

    Takes the kept-boundary stream as ranks ``0..num_keys-1`` with each
    event's queue-entry bytes.  Returns ``(pairs, weights, evictions)``:
    the distinct edges as ``lo * num_keys + hi`` rank pairs with their
    weights, in first-increment order (the scalar builder's dict
    insertion order), and the queue's eviction count.
    """
    ranks = np.ascontiguousarray(ranks, dtype=np.int64)
    entry = np.ascontiguousarray(entry, dtype=np.int64)
    n = len(ranks)
    # The kernel indexes its K-sized arrays by rank unchecked, and reads
    # zero entry bytes as "not queued".
    if len(entry) != n or n and (
        ranks.min() < 0 or ranks.max() >= num_keys or entry.min() <= 0
    ):
        raise ValueError("trg_pass needs ranks in [0, num_keys) and entry > 0")
    queued = np.zeros(num_keys, dtype=np.int64)
    prev = np.empty(num_keys, dtype=np.int64)
    nxt = np.empty(num_keys, dtype=np.int64)
    # next event, head, tail, length, bytes, evictions, edges
    state = np.array([0, -1, -1, 0, 0, 0, 0], dtype=np.int64)
    stream = (n, ranks, entry, num_keys, threshold, queued, prev, nxt, state)
    table = _edge_table(_EDGE_TABLE_START)
    while library.trg_pass(*stream, len(table[0]) - 1, *table) < n:
        # The next walk could fill the table past half: double it.
        grown = _edge_table(2 * len(table[0]))
        library.trg_rehash(len(table[0]), *table, len(grown[0]) - 1, *grown)
        table = grown
    keys, weights, stamps = table
    slots = np.flatnonzero(keys >= 0)
    # Stamps number the distinct edges 0..edges-1 in first-increment order.
    in_order = np.empty(len(slots), dtype=np.int64)
    in_order[stamps[slots]] = slots
    return keys[in_order], weights[in_order], int(state[5])


def _recency_pass_python(ranks, entry, num_keys, threshold):
    """The TRG recency pass in Python: the fallback and the kernel's oracle.

    Same inputs and outputs as :func:`_recency_pass_native`.  The queue
    bookkeeping runs as an :class:`~collections.OrderedDict` loop that
    only appends each walked rank; the per-edge accounting is batched
    afterwards as one sort-based grouping.
    """
    walked = array("q")
    walk_append = walked.append
    walk_extend = walked.extend
    queue: "OrderedDict[int, int]" = OrderedDict()
    queue_get = queue.get
    move_to_end = queue.move_to_end
    popitem = queue.popitem
    queued_bytes = 0
    evictions = 0
    # The walk consumes queue entries newer than the hit key;
    # ``takewhile(key.__ne__, ...)`` into ``extend`` keeps the whole walk
    # in C.  A hit never has the key at the front (consecutive duplicates
    # were collapsed), and a hit implies at least two queued entries, so
    # the pre-event invariant "bytes <= threshold unless a single entry
    # overflows alone" lets unchanged-entry hits skip the byte accounting
    # and the eviction check entirely.
    for key, size in zip(ranks.tolist(), entry.tolist()):
        old = queue_get(key)
        if old is not None:
            # ~key < 0 marks the hit boundary inside the walk list.
            walk_append(~key)
            walk_extend(takewhile(key.__ne__, reversed(queue)))
            move_to_end(key)
            if size == old:
                continue
        queue[key] = size
        queued_bytes += size - (old or 0)
        while queued_bytes > threshold and len(queue) > 1:
            _evicted, evicted_bytes = popitem(last=False)
            queued_bytes -= evicted_bytes
            evictions += 1
    if not walked:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), evictions
    # One edge increment per walked rank, in the scalar builder's
    # increment order, so the first occurrence of each distinct edge
    # reproduces its dict insertion order.
    arr = np.frombuffer(walked, dtype=np.int64)
    boundary = arr < 0
    hit_pos = np.flatnonzero(boundary)
    counts = np.diff(np.concatenate((hit_pos, [len(arr)]))) - 1
    other = arr[~boundary]
    hit = np.repeat(~arr[hit_pos], counts)
    pair = np.minimum(other, hit) * num_keys + np.maximum(other, hit)
    if num_keys * num_keys <= np.iinfo(np.uint32).max:
        pair = pair.astype(np.uint32)
    uniq, first_idx, weights = np.unique(
        pair, return_index=True, return_counts=True
    )
    insert_order = np.argsort(first_idx)
    return (
        uniq[insert_order].astype(np.int64),
        weights[insert_order],
        evictions,
    )


def profile_trace(
    trace: TraceRecorder,
    cache_config: CacheConfig | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    name_depth: int = DEFAULT_NAME_DEPTH,
    queue_threshold: int | None = None,
) -> Profile:
    """Profile a recorded trace; equal to profiling the live run.

    Accepts the same knobs as
    :func:`~repro.runtime.driver.profile_workload` and produces a
    :class:`~repro.profiling.profile_data.Profile` identical to what the
    scalar :class:`~repro.profiling.profiler.ProfilerSink` yields on the
    same stream.
    """
    sink = ProfilerSink(
        cache_config=cache_config,
        chunk_size=chunk_size,
        name_depth=name_depth,
        queue_threshold=queue_threshold,
    )
    obj_col, offset_col, _size, _cat, _store = trace.columns()
    total = len(obj_col)
    max_obj = int(obj_col.max()) if total else STACK_OBJECT_ID

    entities = sink.profile.entities
    entity_of_object = sink._entity_of_object
    eid_map = np.zeros(max(max_obj, STACK_OBJECT_ID) + 1, dtype=np.int64)
    eid_map[STACK_OBJECT_ID] = STACK_ENTITY_ID

    def entry_bytes(entity_size: int) -> int:
        if entity_size and entity_size < chunk_size:
            return entity_size
        return chunk_size

    # Replay the lifetime ops through the scalar sink hooks, in order.
    # This reproduces the op-side profile exactly (entity creation, heap
    # naming, collision flags, allocation adjacency) and emits the entity
    # size timeline the TRG walk below needs.
    size_updates: list[tuple[int, int, int]] = []
    for position, kind, payload in trace.lifetime_ops:
        if kind == _OP_OBJECT:
            sink.on_object(payload)
            eid = entity_of_object[payload.obj_id]
            if payload.obj_id <= max_obj:
                eid_map[payload.obj_id] = eid
            size_updates.append((position, eid, entry_bytes(entities[eid].size)))
        elif kind == _OP_ALLOC:
            info, return_addresses = payload
            sink.on_alloc(info, return_addresses)
            eid = entity_of_object[info.obj_id]
            if info.obj_id <= max_obj:
                eid_map[info.obj_id] = eid
            size_updates.append((position, eid, entry_bytes(entities[eid].size)))
        elif kind == _OP_FREE:
            sink.on_free(payload)
        elif kind == _OP_STACK_DEPTH:
            sink.on_stack_depth(payload)
            size_updates.append(
                (
                    position,
                    STACK_ENTITY_ID,
                    entry_bytes(entities[STACK_ENTITY_ID].size),
                )
            )
        # Compute ops carry no profiler-visible state.

    if total:
        eid_col = eid_map[obj_col]
        chunk_col = offset_col // chunk_size

        # Per-entity reference counts and first/last access clocks via one
        # stable sort: within each entity group the original positions are
        # ascending, so group head/tail are the first/last accesses.  The
        # narrowed dtype makes the stable sort a short radix sort.
        order = np.argsort(
            eid_col.astype(np.min_scalar_type(int(eid_col.max())), copy=False),
            kind="stable",
        )
        sorted_eids = eid_col[order]
        heads = np.empty(total, dtype=bool)
        heads[0] = True
        np.not_equal(sorted_eids[1:], sorted_eids[:-1], out=heads[1:])
        head_pos = np.flatnonzero(heads)
        tail_pos = np.concatenate((head_pos[1:], [total])) - 1
        group_eids = sorted_eids[head_pos].tolist()
        group_refs = np.diff(np.concatenate((head_pos, [total]))).tolist()
        group_first = (order[head_pos] + 1).tolist()
        group_last = (order[tail_pos] + 1).tolist()
        for eid, refs, first, last in zip(
            group_eids, group_refs, group_first, group_last
        ):
            entity = entities[eid]
            entity.refs = refs
            entity.first_access = first
            entity.last_access = last

        # TRG: only boundaries of consecutive-duplicate (entity, chunk)
        # runs reach the queue — the scalar front-of-queue check skips the
        # rest, and the queue front is always the previous reference's
        # pair, so the two skip sets are identical.  Pairs are packed
        # into single ints (chunk < span, so packed order == tuple order)
        # so the recency pass and the edge columns stay cheap.
        span = int(chunk_col.max()) + 1
        packed = eid_col * span + chunk_col
        keep = np.empty(total, dtype=bool)
        keep[0] = True
        np.not_equal(packed[1:], packed[:-1], out=keep[1:])
        kept = np.flatnonzero(keep)
        stream = packed[kept]

        entry_col = _entry_bytes_column(
            eid_col[kept], kept, size_updates, chunk_size
        )
        obs.count("profile.kept_boundaries", len(stream))

        # Rank-compress the kept keys, so the recency pass works on
        # dense ranks 0..K-1.  Ranks are monotone in the packed keys, so
        # min/max of ranks == min/max of keys, and ``uniq_keys[rank]``
        # recovers the key.
        uniq_keys, ranks = np.unique(stream, return_inverse=True)
        num_keys = len(uniq_keys)
        threshold = sink._trg.queue_threshold
        library = native.load()
        if library is None:
            obs.count("profile.native_unavailable")
            pairs, w, evictions = _recency_pass_python(
                ranks, entry_col, num_keys, threshold
            )
        else:
            pairs, w, evictions = _recency_pass_native(
                library, ranks, entry_col, num_keys, threshold
            )
        sink._trg.evictions = evictions

        if len(pairs):
            lo = uniq_keys[pairs // num_keys]
            hi = uniq_keys[pairs % num_keys]
            lo_eid = lo // span
            hi_eid = hi // span
            edge_cols = zip(
                lo_eid.tolist(),
                (lo % span).tolist(),
                hi_eid.tolist(),
                (hi % span).tolist(),
                w.tolist(),
            )
            edges = sink._trg.edges
            for eid_a, chunk_a, eid_b, chunk_b, weight in edge_cols:
                edges[((eid_a, chunk_a), (eid_b, chunk_b))] = weight

            # Popularity and entity affinity are pure edge reductions;
            # precompute them here so the placer never re-scans the edge
            # dict.  Both reproduce the scalar derivations exactly:
            # popularity keys follow entity order (the scalar dict is
            # pre-seeded with every entity), affinity keys follow first
            # occurrence of each entity pair in edge insertion order, and
            # lo <= hi implies lo_eid <= hi_eid so the packed endpoints
            # are already the canonical pair.
            num_eids = max(entities) + 1
            pop = np.zeros(num_eids, dtype=np.int64)
            np.add.at(pop, lo_eid, w)
            cross = lo_eid != hi_eid
            np.add.at(pop, hi_eid[cross], w[cross])
            pop_list = pop.tolist()
            sink.profile._popularity = {eid: pop_list[eid] for eid in entities}

            if cross.any():
                pk = lo_eid[cross] * np.int64(num_eids) + hi_eid[cross]
                _u, pair_first, inverse = np.unique(
                    pk, return_index=True, return_inverse=True
                )
                sums = np.bincount(inverse, weights=w[cross]).astype(np.int64)
                pair_order = np.argsort(pair_first)
                pair_rows = pair_first[pair_order]
                sink.profile._affinity = dict(
                    zip(
                        zip(
                            lo_eid[cross][pair_rows].tolist(),
                            hi_eid[cross][pair_rows].tolist(),
                        ),
                        sums[pair_order].tolist(),
                    )
                )
            else:
                sink.profile._affinity = {}

    sink._clock = total
    if trace.ended:
        sink.on_end()
    return sink.profile
