"""The ``CACHE`` structure and the TRG conflict-cost metric.

The placement algorithm evaluates candidate placements with a software
model of the target cache: "a CACHE structure, which stores for each cache
block (object ID, chunk NUM) pairs indicating that the chunk NUM of object
ID is mapped to this location in the cache" (paper, Section 3.3).  The
conflict cost of co-locating two chunks in one cache block is the TRGplace
edge weight between them.

:func:`chunk_line_span` maps one chunk of a placed entity onto the cache
sets it occupies, and :class:`TRGIndex` lays the TRGplace edges out as a
CSR adjacency over a dense (entity, chunk) pair universe, which the
vectorized Figure 2 scan
(:class:`~repro.core.placement_engine.ArrayPlacementEngine`) gathers
from.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain

import numpy as np

from ..cache.config import CacheConfig
from ..profiling.profile_data import Profile

PairKey = tuple[int, int]
EdgeKey = tuple[PairKey, PairKey]

#: Bit width of the chunk field in a packed (entity, chunk) pair key.
_CHUNK_BITS = 32


def chunk_line_span(
    cache_offset: int,
    size: int,
    chunk: int,
    chunk_size: int,
    config: CacheConfig,
) -> tuple[int, ...]:
    """Cache lines covered by one chunk of an entity.

    Args:
        cache_offset: Byte offset of the entity's start within the cache
            image (need not be reduced modulo the cache size).
        size: Entity size in bytes.
        chunk: Chunk index within the entity.
        chunk_size: Chunk granularity in bytes.
        config: Target cache geometry.

    Returns:
        The (wrapped) cache *set* indices the chunk occupies.  For a
        direct-mapped cache these are the cache lines; for associative
        geometries the placement algorithm "works the same by placing
        chunks into cache sets instead of cache lines" (paper,
        Section 5.2).
    """
    start = cache_offset + chunk * chunk_size
    end_byte = cache_offset + min(size, (chunk + 1) * chunk_size) - 1
    if end_byte < start:
        end_byte = start
    first_line = start // config.line_size
    last_line = end_byte // config.line_size
    num_sets = config.num_sets
    return tuple((line % num_sets) for line in range(first_line, last_line + 1))


class TRGIndex:
    """CSR adjacency over TRGplace edges with a dense pair universe.

    The pair universe covers every (entity, chunk) pair that participates
    in at least one TRG edge plus chunk 0 of every entity (chunks with no
    temporal relationships can never contribute conflict cost, and
    chunk 0 keeps an edgeless entity on its starting line).  Pairs are sorted
    by packed ``(eid << 32) | chunk`` key, so each entity's pairs occupy
    one contiguous index range and its active chunks come out ascending.

    Each undirected edge appears in both endpoints' rows, self-loops in
    one, laid out as three flat arrays (``indptr``, ``nbr``, ``wt``), so
    one placement builds it once with vectorized passes and every
    conflict scan gathers edge slices without touching a Python-level
    dict.

    Indexes built with :meth:`from_edges` own their edge dict and support
    :meth:`apply_edge_deltas` — the adaptive engine's incremental
    add/retire path, which updates ``wt`` slots in place while the edge
    set is stable and falls back to an insertion-order-preserving rebuild
    only on structural change.
    """

    def __init__(self, profile: Profile):
        self._edges: dict[EdgeKey, int] = profile.trg
        self._owns_edges = False
        self._entity_ids = np.fromiter(
            profile.entities, dtype=np.int64, count=len(profile.entities)
        )
        self.inplace_updates = 0
        self.rebuilds = 0
        self._build()

    @classmethod
    def from_edges(
        cls, edges: dict[EdgeKey, int], entity_ids: Iterable[int]
    ) -> "TRGIndex":
        """Build an index that owns (a copy of) a raw TRG edge dict.

        Unlike the profile constructor, the resulting index may be
        mutated through :meth:`apply_edge_deltas`.  ``entity_ids`` should
        cover every entity the index will ever carry edges for, so that
        chunk 0 of each is always part of the pair universe.
        """
        index = cls.__new__(cls)
        index._edges = dict(edges)
        index._owns_edges = True
        index._entity_ids = np.fromiter(entity_ids, dtype=np.int64)
        index.inplace_updates = 0
        index.rebuilds = 0
        index._build()
        return index

    def _build(self) -> None:
        edges = self._edges
        num_edges = len(edges)
        entity_ids = self._entity_ids
        num_entities = len(entity_ids)
        # Flatten the ((eid, chunk), (eid, chunk)) keys with C-level
        # iterators; a Python generator here dominates the build time.
        flat = np.fromiter(
            chain.from_iterable(chain.from_iterable(edges)),
            dtype=np.int64,
            count=4 * num_edges,
        ).reshape(num_edges, 4)
        weights = np.fromiter(edges.values(), dtype=np.int64, count=num_edges)

        packed_a = (flat[:, 0] << _CHUNK_BITS) | flat[:, 1]
        packed_b = (flat[:, 2] << _CHUNK_BITS) | flat[:, 3]
        universe, inverse = np.unique(
            np.concatenate((entity_ids << _CHUNK_BITS, packed_a, packed_b)),
            return_inverse=True,
        )
        self.pair_eid = universe >> _CHUNK_BITS
        self.pair_chunk = universe & ((1 << _CHUNK_BITS) - 1)
        self.num_pairs = len(universe)

        # Entity id -> contiguous [lo, hi) pair-index range.
        uniq_eids, starts, counts = np.unique(
            self.pair_eid, return_index=True, return_counts=True
        )
        self._entity_range: dict[int, tuple[int, int]] = {
            int(eid): (int(lo), int(lo + n))
            for eid, lo, n in zip(uniq_eids, starts, counts)
        }

        idx_a = inverse[num_entities : num_entities + num_edges]
        idx_b = inverse[num_entities + num_edges :]
        loop = idx_a == idx_b
        src = np.concatenate((idx_a, idx_b[~loop]))
        dst = np.concatenate((idx_b, idx_a[~loop]))
        wt = np.concatenate((weights, weights[~loop]))
        order = np.argsort(src, kind="stable")
        self.nbr = dst[order]
        self.wt = wt[order]
        self.indptr = np.zeros(self.num_pairs + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(src, minlength=self.num_pairs), out=self.indptr[1:]
        )
        # Slot maps for in-place weight updates: the i-th inserted edge
        # owns ``wt`` slot ``_slot_fwd[i]`` and, unless it is a
        # self-loop, the reverse-direction slot ``_slot_rev[i]``.
        positions = np.empty(len(order), dtype=np.int64)
        positions[order] = np.arange(len(order), dtype=np.int64)
        self._slot_fwd = positions[:num_edges]
        slot_rev = np.full(num_edges, -1, dtype=np.int64)
        slot_rev[~loop] = positions[num_edges:]
        self._slot_rev = slot_rev
        self._edge_pos: dict[EdgeKey, int] | None = None

    @property
    def edges(self) -> dict[EdgeKey, int]:
        """The backing TRG edge dict (treat as read-only)."""
        return self._edges

    def total_weight(self) -> int:
        """Sum of all edge weights, each undirected edge counted once."""
        return sum(self._edges.values())

    def apply_edge_deltas(self, deltas: dict[EdgeKey, int]) -> None:
        """Add/retire edge weight incrementally (sliding-window updates).

        Each delta is added to the edge's current weight (missing edges
        count as zero); edges whose weight drops to or below zero are
        removed.  While every delta keeps an existing edge positive —
        the common case once a sliding window has warmed up — the ``wt``
        array is patched in place through the slot maps with no CSR
        rebuild.  Structural changes (new edges, retired edges) mutate
        the backing dict preserving insertion order — new keys append,
        removed keys drop — and rebuild, so the result is always
        bit-identical to a from-scratch build on the same dict.
        """
        if not deltas:
            return
        if not self._owns_edges:
            self._edges = dict(self._edges)
            self._owns_edges = True
        edges = self._edges
        structural = False
        for key, delta in deltas.items():
            old = edges.get(key)
            if old is None or old + delta <= 0:
                structural = True
                break
        if not structural:
            positions = self._edge_pos
            if positions is None:
                positions = self._edge_pos = {
                    key: i for i, key in enumerate(edges)
                }
            wt = self.wt
            slot_fwd = self._slot_fwd
            slot_rev = self._slot_rev
            for key, delta in deltas.items():
                if delta == 0:
                    continue
                new_weight = edges[key] + delta
                edges[key] = new_weight
                i = positions[key]
                wt[slot_fwd[i]] = new_weight
                rev = slot_rev[i]
                if rev >= 0:
                    wt[rev] = new_weight
                self.inplace_updates += 1
            return
        for key, delta in deltas.items():
            new_weight = edges.get(key, 0) + delta
            if new_weight > 0:
                edges[key] = new_weight
            elif key in edges:
                del edges[key]
        self.rebuilds += 1
        self._build()

    @classmethod
    def for_profile(cls, profile: Profile) -> "TRGIndex":
        """The profile's index, built once and memoized on the profile.

        The index is a pure function of the (immutable-after-profiling)
        TRG edge dict and entity set — it does not depend on cache
        geometry — so experiment sweeps that place one profile under
        several geometries share a single build.
        """
        index = getattr(profile, "_trg_index", None)
        if index is None:
            index = cls(profile)
            profile._trg_index = index
        return index

    def pair_range(self, eid: int) -> tuple[int, int]:
        """The ``[lo, hi)`` pair-index range of one entity."""
        return self._entity_range[eid]

    def pair_ids(self, eid: int) -> np.ndarray:
        """Pair indices of one entity's active chunks."""
        lo, hi = self._entity_range[eid]
        return np.arange(lo, hi, dtype=np.int64)

    def active_chunks(self, eid: int) -> tuple[int, ...]:
        """Active chunks of one entity, ascending (chunk 0 always present)."""
        lo, hi = self._entity_range[eid]
        return tuple(int(c) for c in self.pair_chunk[lo:hi])
