"""Vectorized cache-simulation kernels over structure-of-arrays chunks.

A direct-mapped cache admits a data-parallel formulation the scalar
simulator cannot exploit: group a chunk of block references by cache set
(a stable argsort), and within each set a reference hits exactly when it
touches the same block as the previous reference to that set — the first
reference of each set-group compares against a carried per-set tag array
instead.  Hit/miss, per-category and per-object attribution, and
write-back accounting all become numpy reductions; Python-level work per
*chunk* replaces Python-level work per *event*.

Write-backs use the same segmented view: every miss starts a new
*resident run* of its set; a run is dirty when any of its accesses is a
store (or when it continues a dirty line carried in from the previous
chunk); evicting a dirty run costs one write-back.

Set-associative geometries and three-Cs classification need true LRU
order, which has no such segmented form: :class:`_NativeLRUKernel`
advances per-set LRU state (and, when classifying, a fully associative
LRU shadow) over each chunk in a small C kernel (``_lru.c``, built on
first use by :mod:`repro.cache.native`), then shares the direct-mapped
kernel's ``bincount`` attribution.

:class:`BatchCacheSimulator` exposes the kernels behind a chunk-consumer
API, so callers never need to branch; only when the C kernel cannot be
built or loaded does it fall back to the scalar
:class:`~repro.cache.simulator.CacheSimulator`, whose
:class:`~repro.cache.simulator.CacheStats` every kernel reproduces
exactly.
"""

from __future__ import annotations

import numpy as np

from ..obs import invariants
from ..obs import telemetry as obs
from ..trace.events import Category
from . import native
from .config import CacheConfig
from .simulator import CacheSimulator, CacheStats

_CATEGORIES = tuple(Category)
_NUM_CATEGORIES = len(_CATEGORIES)
#: Tag of an empty direct-mapped set; no block index can equal it
#: (block -1 is real: it holds addresses -line_size .. -1).
_EMPTY = np.iinfo(np.int64).min


def expand_blocks(
    addr: np.ndarray,
    size: np.ndarray,
    line_size: int,
    *columns: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Expand references into per-block touches, replicating ``columns``.

    A reference spanning a line boundary touches every covered block, and
    the scalar simulator counts each touched block as one access; this is
    the vectorized equivalent.  Returns ``(blocks, *expanded_columns)``
    where ``blocks`` are block *indices* (``block_addr // line_size``).
    """
    first = addr // line_size
    last = (addr + size - 1) // line_size
    counts = last - first + 1
    if not len(addr) or int(counts.max()) == 1:
        return (first, *columns)
    index = np.repeat(np.arange(len(addr)), counts)
    starts = np.cumsum(counts) - counts
    offsets = np.arange(len(index)) - starts[index]
    blocks = first[index] + offsets
    return (blocks, *(column[index] for column in columns))


class _Counters:
    """Access, miss and write-back totals with category/object attribution."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.num_sets = config.num_sets
        self.line_size = config.line_size
        self.accesses = 0
        self.misses = 0
        self.writebacks = 0
        self.acc_by_cat = np.zeros(_NUM_CATEGORIES, dtype=np.int64)
        self.miss_by_cat = np.zeros(_NUM_CATEGORIES, dtype=np.int64)
        self.acc_by_obj = np.zeros(0, dtype=np.int64)
        self.miss_by_obj = np.zeros(0, dtype=np.int64)

    def _grow_object_counters(self, max_obj: int) -> None:
        if max_obj >= len(self.acc_by_obj):
            grown = max(max_obj + 1, 2 * len(self.acc_by_obj))
            self.acc_by_obj = np.concatenate(
                [self.acc_by_obj, np.zeros(grown - len(self.acc_by_obj), np.int64)]
            )
            self.miss_by_obj = np.concatenate(
                [self.miss_by_obj, np.zeros(grown - len(self.miss_by_obj), np.int64)]
            )

    def _expand(
        self,
        addr: np.ndarray,
        size: np.ndarray,
        obj_id: np.ndarray,
        category: np.ndarray,
        is_store: np.ndarray,
    ) -> tuple[np.ndarray, ...]:
        """Expand a chunk into block touches and count their accesses."""
        blocks, obj_e, cat_e, store_e = expand_blocks(
            addr.astype(np.int64, copy=False),
            size.astype(np.int64, copy=False),
            self.line_size,
            obj_id,
            category,
            is_store.astype(bool, copy=False),
        )
        self.accesses += len(blocks)
        self.acc_by_cat += np.bincount(cat_e, minlength=_NUM_CATEGORIES)
        self._grow_object_counters(int(obj_e.max()))
        self.acc_by_obj += np.bincount(obj_e, minlength=len(self.acc_by_obj))
        return blocks, obj_e, cat_e, store_e

    def _count_misses(self, miss: np.ndarray, obj: np.ndarray, cat: np.ndarray) -> int:
        """Attribute the touches flagged in ``miss``; return how many."""
        self.miss_by_cat += np.bincount(cat[miss], minlength=_NUM_CATEGORIES)
        self.miss_by_obj += np.bincount(obj[miss], minlength=len(self.miss_by_obj))
        misses = int(np.count_nonzero(miss))
        self.misses += misses
        return misses

    def fill_stats(self, stats: CacheStats) -> None:
        """Accumulate the kernel counters into a :class:`CacheStats`."""
        stats.accesses += self.accesses
        stats.misses += self.misses
        stats.writebacks += self.writebacks
        for category in _CATEGORIES:
            stats.accesses_by_category[category] += int(self.acc_by_cat[category])
            stats.misses_by_category[category] += int(self.miss_by_cat[category])
        for source, target in (
            (self.acc_by_obj, stats.accesses_by_object),
            (self.miss_by_obj, stats.misses_by_object),
        ):
            nonzero = np.flatnonzero(source)
            for obj, count in zip(nonzero.tolist(), source[nonzero].tolist()):
                target[obj] = target.get(obj, 0) + count


class _DirectMappedKernel(_Counters):
    """Carried state + chunk consumer for the direct-mapped fast path."""

    def __init__(self, config: CacheConfig):
        super().__init__(config)
        #: Narrowest dtype holding a set index: radix-sorting one or two
        #: bytes is far cheaper than radix-sorting int64 keys.
        self._set_dtype = np.min_scalar_type(self.num_sets - 1)
        #: Resident block index per set; ``_EMPTY`` means empty.
        self.tags = np.full(self.num_sets, _EMPTY, dtype=np.int64)
        #: Dirty bit of the resident line per set.
        self.dirty = np.zeros(self.num_sets, dtype=bool)

    def consume(
        self,
        addr: np.ndarray,
        size: np.ndarray,
        obj_id: np.ndarray,
        category: np.ndarray,
        is_store: np.ndarray,
    ) -> None:
        """Simulate one chunk of references."""
        if not len(addr):
            return
        blocks, obj_e, cat_e, store_e = self._expand(
            addr, size, obj_id, category, is_store
        )
        total = len(blocks)

        # Sort by set; stable keeps program order within each set-group.
        sets = blocks % self.num_sets
        order = np.argsort(
            sets.astype(self._set_dtype, copy=False), kind="stable"
        )
        b = blocks[order]
        s = sets[order]
        st = store_e[order]

        same_set = np.empty(total, dtype=bool)
        same_set[0] = False
        np.equal(s[1:], s[:-1], out=same_set[1:])
        set_start = ~same_set

        hit = np.empty(total, dtype=bool)
        hit[0] = False
        np.equal(b[1:], b[:-1], out=hit[1:])
        hit &= same_set
        # First access of each set-group compares to the carried tag.
        hit[set_start] = b[set_start] == self.tags[s[set_start]]
        miss = ~hit
        self._count_misses(miss, obj_e[order], cat_e[order])

        # Resident runs: every miss fills a line and starts a run; the
        # first access of a set-group also starts a (possibly continued)
        # run so segment reductions never span two sets.
        run_start = miss | set_start
        seg_id = np.cumsum(run_start) - 1
        seg_starts = np.flatnonzero(run_start)
        seg_dirty = np.bitwise_or.reduceat(st.view(np.int8), seg_starts).astype(bool)
        # A segment that starts with a hit can only be a set-group head
        # continuing the carried resident line: inherit its dirty bit.
        continues = hit[seg_starts]
        if continues.any():
            seg_dirty |= continues & self.dirty[s[seg_starts]]

        # Write-backs: a miss evicts the previous resident run of its set
        # (the carried line for set-group heads) when that run is dirty.
        miss_pos = np.flatnonzero(miss)
        at_head = set_start[miss_pos]
        head_sets = s[miss_pos[at_head]]
        wb_head = (self.tags[head_sets] != _EMPTY) & self.dirty[head_sets]
        inner = miss_pos[~at_head]
        wb_inner = seg_dirty[seg_id[inner] - 1]
        self.writebacks += int(wb_head.sum()) + int(wb_inner.sum())

        # Carry out: the last access of each set-group leaves its block
        # resident with its run's accumulated dirty bit.
        set_end = np.empty(total, dtype=bool)
        set_end[-1] = True
        np.not_equal(s[1:], s[:-1], out=set_end[:-1])
        end_pos = np.flatnonzero(set_end)
        self.tags[s[end_pos]] = b[end_pos]
        self.dirty[s[end_pos]] = seg_dirty[seg_id[end_pos]]


class _NativeLRUKernel(_Counters):
    """Carried LRU state + chunk consumer over the C kernel (``_lru.c``).

    All state lives in numpy arrays handed to the kernel on every call:
    per-way tags, recency stamps (0 = empty way) and dirty bits, a global
    clock, and — when classifying — the fully associative shadow (a
    block -> slot hash plus a recency list) and the sorted array of
    blocks ever missed on, which splits off compulsory misses.
    """

    def __init__(self, config: CacheConfig, classify: bool):
        super().__init__(config)
        self.ways = config.associativity
        lines = config.num_lines
        self.tags = np.zeros(lines, dtype=np.int64)
        self.stamps = np.zeros(lines, dtype=np.int64)
        self.dirty = np.zeros(lines, dtype=np.uint8)
        self.clock = np.zeros(1, dtype=np.int64)
        self.classify = classify
        self.compulsory = 0
        self.capacity = 0
        self.conflict = 0
        if classify:
            buckets = 1 << (2 * lines - 1).bit_length()  # load factor <= 1/2
            self.fa_keys = np.zeros(buckets, dtype=np.int64)
            self.fa_slots = np.full(buckets, -1, dtype=np.int32)
            self.fa_block = np.zeros(lines, dtype=np.int64)
            self.fa_prev = np.full(lines, -1, dtype=np.int32)
            self.fa_next = np.full(lines, -1, dtype=np.int32)
            #: Most recent slot, least recent slot, slots in use.
            self.fa_meta = np.array([-1, -1, 0], dtype=np.int64)
            self.seen = np.zeros(0, dtype=np.int64)

    def consume(
        self,
        addr: np.ndarray,
        size: np.ndarray,
        obj_id: np.ndarray,
        category: np.ndarray,
        is_store: np.ndarray,
    ) -> None:
        """Simulate one chunk of references."""
        if not len(addr):
            return
        kernel = native.load()
        blocks, obj_e, cat_e, store_e = self._expand(
            addr, size, obj_id, category, is_store
        )
        total = len(blocks)
        miss = np.empty(total, dtype=np.uint8)
        self.writebacks += kernel.lru_consume(
            total,
            blocks,
            np.ascontiguousarray(store_e).view(np.uint8),
            self.num_sets,
            self.ways,
            self.tags,
            self.stamps,
            self.dirty,
            self.clock,
            miss,
        )
        miss = miss.view(bool)
        misses = self._count_misses(miss, obj_e, cat_e)
        if not self.classify:
            return

        in_shadow = np.empty(total, dtype=np.uint8)
        kernel.fa_consume(
            total,
            blocks,
            self.config.num_lines,
            len(self.fa_keys) - 1,
            self.fa_keys,
            self.fa_slots,
            self.fa_block,
            self.fa_prev,
            self.fa_next,
            self.fa_meta,
            in_shadow,
        )
        # A block's first-ever touch always misses, so the compulsory
        # misses are the distinct missed blocks not seen before.
        missed = np.unique(blocks[miss])
        pos = np.searchsorted(self.seen, missed)
        known = pos < len(self.seen)
        known[known] = self.seen[pos[known]] == missed[known]
        fresh = ~known
        compulsory = int(np.count_nonzero(fresh))
        if compulsory:
            self.seen = np.insert(self.seen, pos[fresh], missed[fresh])
        # A never-seen block is never in the shadow, so every miss that
        # hit the shadow is a conflict miss; the rest are capacity.
        conflict = int(np.count_nonzero(miss & in_shadow.view(bool)))
        self.compulsory += compulsory
        self.conflict += conflict
        self.capacity += misses - compulsory - conflict

    def fill_stats(self, stats: CacheStats) -> None:
        super().fill_stats(stats)
        stats.compulsory += self.compulsory
        stats.capacity += self.capacity
        stats.conflict += self.conflict


def _make_kernel(config: CacheConfig, classify: bool):
    """The vectorized kernel for this geometry, or ``None`` to run scalar."""
    if config.associativity == 1 and not classify:
        return _DirectMappedKernel(config)
    if native.load() is None:
        obs.count("sim.native_unavailable")
        return None
    return _NativeLRUKernel(config, classify)


class BatchCacheSimulator:
    """Chunk-consuming cache simulator over the vectorized kernels.

    Args:
        config: Cache geometry; the paper's 8K/32B direct-mapped default.
        classify: Three-Cs classification (compulsory / capacity /
            conflict), computed by the native LRU kernel.

    Direct-mapped geometries without classification run the numpy
    kernel; every other geometry runs the native LRU kernel, or the
    scalar simulator when that kernel cannot be built or loaded (one
    ``sim.native_unavailable`` telemetry count per such simulator).

    Consume whole column chunks via :meth:`consume` (or a
    :class:`~repro.trace.buffer.TraceBuffer` via :meth:`consume_buffer`),
    then read :attr:`stats`.
    """

    def __init__(
        self,
        config: CacheConfig | None = None,
        classify: bool = False,
    ):
        self.config = config or CacheConfig()
        self.classify = classify
        self._kernel = _make_kernel(self.config, classify)
        self._scalar = (
            CacheSimulator(self.config, classify=classify)
            if self._kernel is None
            else None
        )
        self._stats: CacheStats | None = None

    def consume(
        self,
        addr: np.ndarray,
        size: np.ndarray,
        obj_id: np.ndarray,
        category: np.ndarray,
        is_store: np.ndarray,
    ) -> None:
        """Simulate one chunk of (addr, size, obj_id, category, is_store)."""
        self._stats = None
        obs.count("sim.events", len(addr))
        obs.count("sim.chunks")
        if self._kernel is not None:
            self._kernel.consume(addr, size, obj_id, category, is_store)
            return
        access = self._scalar.access
        categories = _CATEGORIES
        for a, sz, obj, cat, st in zip(
            addr.tolist(),
            size.tolist(),
            obj_id.tolist(),
            category.tolist(),
            is_store.tolist(),
        ):
            access(a, sz, obj, categories[cat], bool(st))

    def consume_buffer(self, buffer) -> None:
        """Drain a :class:`~repro.trace.buffer.TraceBuffer` into the kernel."""
        for chunk in buffer.drain():
            self.consume(*chunk)

    @property
    def stats(self) -> CacheStats:
        """Accumulated statistics, identical to the scalar simulator's."""
        if self._kernel is None:
            return self._scalar.stats
        if self._stats is None:
            stats = CacheStats()
            self._kernel.fill_stats(stats)
            invariants.maybe_check_cache_stats(stats, context="batched kernel")
            self._stats = stats
        return self._stats
