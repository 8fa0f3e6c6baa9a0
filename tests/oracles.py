"""Scalar reference oracles for the placement and simulation pipeline.

The product places through the vectorized Figure 2 scan
(:class:`~repro.core.placement_engine.ArrayPlacementEngine`) and
simulates through the batched kernels
(:class:`~repro.cache.batch.BatchCacheSimulator`).  Both are admissible
only because they make exactly the decisions of a literal
implementation.  This module holds that literal implementation, kept
out of the product and sharing none of the vectorized code it checks:

* the dict-based ``CACHE`` structure and Figure 2 scan
  (:class:`CacheImage`, :func:`build_adjacency`,
  :func:`active_chunks_by_entity`, :func:`conflict_cost_scan`) and the
  Phase 6 merger built on them (:class:`CompoundMerger`);
* :class:`ScalarCCDPPlacer`, the product placer with its Phase 2 stack
  scan and its Phase 6 merger factory swapped for the dict-based ones;
* :func:`scalar_measure`, a live per-event run of a workload through
  :class:`~repro.runtime.replay.ReplaySink` and the scalar
  :class:`~repro.cache.simulator.CacheSimulator`;
* :func:`encode_op` and :func:`oracle_ops_text`, the per-op JSON
  rendering of a trace's ops that the store's direct writer
  (:func:`~repro.store.keys.ops_json`) must reproduce byte for byte.

The parity suites and the differential fuzz compare the product against
these oracles.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.paging import PageTracker, PagingSummary
from repro.cache.config import CacheConfig
from repro.cache.simulator import CacheSimulator
from repro.core.algorithm import CCDPPlacer
from repro.core.cache_struct import PairKey, chunk_line_span
from repro.core.compound import CompoundNode
from repro.memory.layout import TEXT_BASE
from repro.memory.static_layout import layout_sequential
from repro.profiling.profile_data import STACK_ENTITY_ID, Profile
from repro.runtime.driver import MeasureResult
from repro.runtime.replay import ReplaySink
from repro.store.keys import canonical_json
from repro.trace.events import Category, ObjectInfo

# -- the CACHE structure and the Figure 2 scan --------------------------------


class CacheImage:
    """Chunk-to-line occupancy map for a group of placed entities.

    ``pairs`` maps each (entity, chunk) pair to the tuple of cache lines
    it occupies under the group's current offsets.  Only *active* chunks —
    those that appear in the TRG — are tracked: chunks with no temporal
    relationships can never contribute conflict cost.
    """

    def __init__(self, config: CacheConfig, chunk_size: int):
        self.config = config
        self.chunk_size = chunk_size
        self.pairs: dict[PairKey, tuple[int, ...]] = {}

    def add_entity(
        self,
        eid: int,
        size: int,
        cache_offset: int,
        active_chunks: tuple[int, ...],
    ) -> None:
        """Map ``active_chunks`` of entity ``eid`` at ``cache_offset``."""
        for chunk in active_chunks:
            self.pairs[(eid, chunk)] = chunk_line_span(
                cache_offset, size, chunk, self.chunk_size, self.config
            )

    def lines_in_use(self) -> set[int]:
        """All cache lines with at least one mapped chunk."""
        used: set[int] = set()
        for span in self.pairs.values():
            used.update(span)
        return used


def build_adjacency(
    profile: Profile,
) -> dict[PairKey, list[tuple[PairKey, int]]]:
    """Index TRGplace edges by endpoint for fast cost evaluation."""
    adjacency: dict[PairKey, list[tuple[PairKey, int]]] = {}
    for (pair_a, pair_b), weight in profile.trg.items():
        adjacency.setdefault(pair_a, []).append((pair_b, weight))
        if pair_b != pair_a:
            adjacency.setdefault(pair_b, []).append((pair_a, weight))
    return adjacency


def active_chunks_by_entity(profile: Profile) -> dict[int, tuple[int, ...]]:
    """Chunks of each entity that participate in at least one TRG edge.

    Every entity is guaranteed at least chunk 0 so that entities with no
    edges still occupy their starting line in cost evaluations.
    """
    chunks: dict[int, set[int]] = {eid: {0} for eid in profile.entities}
    for (pair_a, pair_b) in profile.trg:
        chunks.setdefault(pair_a[0], {0}).add(pair_a[1])
        chunks.setdefault(pair_b[0], {0}).add(pair_b[1])
    return {eid: tuple(sorted(cs)) for eid, cs in chunks.items()}


def conflict_cost_scan(
    fixed: dict[PairKey, tuple[int, ...]],
    moving: dict[PairKey, tuple[int, ...]],
    adjacency: dict[PairKey, list[tuple[PairKey, int]]],
    num_lines: int,
    preferred_start: int = 0,
) -> tuple[int, int]:
    """Find the min-conflict start line for ``moving`` against ``fixed``.

    Implements the Figure 2 scan: for every start location ``i`` (in cache
    lines), the cost is the sum of TRGplace weights between every fixed
    chunk and every moving chunk that would share a cache line.  Ties are
    broken toward ``preferred_start`` in scan order, matching the paper's
    ``cost < best_cost`` strict-improvement loop.

    Returns:
        ``(best_start_line, best_cost)``.
    """
    # Two chunks share a line when the moving group starts at
    # (fixed_line - moving_line) mod num_lines.  With contiguous spans of
    # lengths sf and sm starting at F and M, the collision count per
    # start offset is the trapezoid conv(1_sf, 1_sm) beginning at
    # F - (M + sm - 1): its second difference is +1, -1, -1, +1 at
    # offsets 0, sf, sm, sf + sm, so each edge costs four delta updates
    # instead of sf * sm scatter increments.
    interval_cache: dict[tuple[int, ...], bool] = {}

    def is_interval(span: tuple[int, ...]) -> bool:
        """Whether ``span`` lists consecutive lines (mod ``num_lines``)."""
        cached = interval_cache.get(span)
        if cached is None:
            start = span[0]
            cached = all(
                line % num_lines == (start + i) % num_lines
                for i, line in enumerate(span)
            )
            interval_cache[span] = cached
        return cached

    width = 2
    deltas: list[tuple[int, int, int, int]] = []
    for moving_pair, moving_span in moving.items():
        if not moving_span:
            continue
        sm = len(moving_span)
        base = moving_span[0] + sm - 1
        moving_ok = is_interval(moving_span)
        for other_pair, weight in adjacency.get(moving_pair, ()):
            fixed_span = fixed.get(other_pair)
            if not fixed_span:
                continue
            if moving_ok and is_interval(fixed_span):
                sf = len(fixed_span)
                deltas.append(
                    ((fixed_span[0] - base) % num_lines, sf, sm, weight)
                )
                if sf + sm > width:
                    width = sf + sm
            else:
                # Arbitrary span tuples (not produced by
                # ``chunk_line_span``, but allowed by the API): fall back
                # to one width-1 trapezoid per colliding line pair.
                for moving_line in moving_span:
                    for fixed_line in fixed_span:
                        deltas.append(
                            (
                                (fixed_line - moving_line) % num_lines,
                                1,
                                1,
                                weight,
                            )
                        )
    pref = preferred_start % num_lines
    if not deltas:
        return pref, 0
    starts, sfs, sms, weights = (
        np.array(column, dtype=np.int64) for column in zip(*deltas)
    )
    # Scatter the second differences into a linear buffer long enough for
    # every trapezoid (start < num_lines, extent <= width), double-cumsum
    # to materialize the trapezoids, then fold the buffer back onto the
    # circle of start positions.
    buffer_rows = (num_lines + width) // num_lines + 1
    second = np.zeros(buffer_rows * num_lines, dtype=np.int64)
    np.add.at(second, starts, weights)
    np.add.at(second, starts + sfs, -weights)
    np.add.at(second, starts + sms, -weights)
    np.add.at(second, starts + sfs + sms, weights)
    cost = (
        np.cumsum(np.cumsum(second))
        .reshape(buffer_rows, num_lines)
        .sum(axis=0)
    )
    # First minimum in (preferred_start, preferred_start + 1, ...) scan
    # order, matching the strict-improvement loop of Figure 2.
    rotated = np.concatenate((cost[pref:], cost[:pref]))
    step = int(np.argmin(rotated))
    return (pref + step) % num_lines, int(rotated[step])


# -- the Phase 6 merger -------------------------------------------------------


class CompoundMerger:
    """Implements ``merge_compound_nodes`` over a fixed background image.

    Args:
        config: Target cache geometry.
        chunk_size: TRG chunk granularity.
        stack_const: The ``Stack_Const`` cache image from Phase 2.
        adjacency: TRGplace edges indexed by endpoint.
        entity_sizes: Placement sizes per entity id.
        active_chunks: TRG-active chunk tuples per entity id.
    """

    def __init__(
        self,
        config: CacheConfig,
        chunk_size: int,
        stack_const: CacheImage,
        adjacency: dict[PairKey, list[tuple[PairKey, int]]],
        entity_sizes: dict[int, int],
        active_chunks: dict[int, tuple[int, ...]],
    ):
        self.config = config
        self.chunk_size = chunk_size
        self.stack_const = stack_const
        self.adjacency = adjacency
        self.entity_sizes = entity_sizes
        self.active_chunks = active_chunks
        self.merge_count = 0
        self.anchor_count = 0

    # -- helpers -----------------------------------------------------------

    def _node_pairs(self, node: CompoundNode) -> dict[PairKey, tuple[int, ...]]:
        """Map every active chunk of ``node`` to the lines it occupies."""
        pairs: dict[PairKey, tuple[int, ...]] = {}
        for eid, offset in node.offsets.items():
            size = self.entity_sizes[eid]
            for chunk in self.active_chunks.get(eid, (0,)):
                pairs[(eid, chunk)] = chunk_line_span(
                    offset, size, chunk, self.chunk_size, self.config
                )
        return pairs

    def anchor(self, node: CompoundNode) -> int:
        """Place an unanchored node against the ``Stack_Const`` image.

        Returns the conflict cost of the chosen location.  Corresponds to
        Figure 2's "find location for n1 in relationship to stack and
        constants".
        """
        moving = self._node_pairs(node)
        start, cost = conflict_cost_scan(
            self.stack_const.pairs,
            moving,
            self.adjacency,
            self.config.num_sets,
            preferred_start=0,
        )
        shift = start * self.config.line_size
        for eid in node.offsets:
            node.offsets[eid] += shift
        node.anchored = True
        self.anchor_count += 1
        return cost

    def merge(self, node1: CompoundNode, node2: CompoundNode) -> int:
        """Merge ``node2`` into ``node1`` at the least-conflict offset.

        ``node1`` is anchored first if needed.  ``node2``'s relative
        layout is preserved; its entities join ``node1`` with adjusted
        absolute offsets.  Returns the conflict cost of the chosen
        location.
        """
        if not node1.anchored:
            self.anchor(node1)
        fixed = self._node_pairs(node1)
        fixed.update(self.stack_const.pairs)
        moving = self._node_pairs(node2)
        preferred = self._initial_scan_point(node1)
        start, cost = conflict_cost_scan(
            fixed,
            moving,
            self.adjacency,
            self.config.num_sets,
            preferred_start=preferred,
        )
        shift = start * self.config.line_size
        for eid, offset in node2.offsets.items():
            node1.offsets[eid] = offset + shift
        node2.offsets.clear()
        node2.anchored = True
        self.merge_count += 1
        return cost

    def _initial_scan_point(self, node: CompoundNode) -> int:
        """``choose_intelligent_initial_start_point`` of Figure 2.

        Start scanning just past the node's highest occupied line: absent
        conflicting edges, this packs nodes densely instead of piling every
        zero-cost node onto line 0.
        """
        if not node.offsets:
            return 0
        line_size = self.config.line_size
        highest = 0
        for eid, offset in node.offsets.items():
            end = offset + self.entity_sizes[eid]
            highest = max(highest, -(-end // line_size))
        return highest % self.config.num_sets


# -- the placer ---------------------------------------------------------------


class ScalarCCDPPlacer(CCDPPlacer):
    """:class:`~repro.core.algorithm.CCDPPlacer` on the dict-based scans.

    Overrides only the two seams where the scan engine enters the
    placer: the Phase 2 stack scan against the constants, and the Phase 6
    merger factory.  Every other phase is the product's own code, so a
    :class:`~repro.core.placement_map.PlacementMap` mismatch against the
    product placer isolates the conflict scans.  Only the classic
    direct-mapped conflict cost has a scalar reference.
    """

    def __init__(self, profile: Profile, cache_config=None, **kwargs):
        cost_model = kwargs.get("cost_model")
        if cost_model is not None and not cost_model.is_trivial:
            raise ValueError("the scalar placer prices direct-mapped cost only")
        super().__init__(profile, cache_config, **kwargs)

    def _place_stack_and_constants(self) -> int:
        """Fix constants at their text addresses, then place the stack."""
        profile = self.profile
        config = self.config
        active = active_chunks_by_entity(profile)
        self._active_chunks = active
        self._adjacency = build_adjacency(profile)

        image = CacheImage(config, profile.chunk_size)
        constants = profile.entities_of(Category.CONST)
        addresses = layout_sequential(
            [(e.key, e.size) for e in sorted(constants, key=lambda e: e.decl_index)],
            TEXT_BASE,
        )
        for entity in constants:
            image.add_entity(
                entity.eid,
                entity.size,
                addresses[entity.key] % config.size,
                active.get(entity.eid, (0,)),
            )

        stack = profile.entities[STACK_ENTITY_ID]
        stack_size = max(stack.size, 1)
        stack_chunks = active.get(stack.eid, (0,))
        moving = CacheImage(config, profile.chunk_size)
        moving.add_entity(stack.eid, stack_size, 0, stack_chunks)
        start_line, _cost = conflict_cost_scan(
            image.pairs, moving.pairs, self._adjacency, config.num_sets
        )
        stack_offset = start_line * config.line_size
        image.add_entity(stack.eid, stack_size, stack_offset, stack_chunks)
        self._stack_const = image
        return stack_offset

    def _make_merger(self, nodes: dict[int, CompoundNode]) -> CompoundMerger:
        """The dict-based Phase 6 merger over the Phase 2 image."""
        profile = self.profile
        return CompoundMerger(
            self.config,
            profile.chunk_size,
            self._stack_const,
            self._adjacency,
            {eid: max(e.size, 1) for eid, e in profile.entities.items()},
            self._active_chunks,
        )


# -- the per-event simulation pipeline ---------------------------------------


def scalar_measure(
    workload,
    input_name: str,
    resolver,
    cache_config: CacheConfig | None = None,
    classify: bool = False,
    track_pages: bool = False,
) -> MeasureResult:
    """Run ``workload`` live, one event at a time, through the scalar cache.

    The workload drives a :class:`~repro.runtime.replay.ReplaySink` that
    resolves every access under ``resolver`` and feeds a
    :class:`~repro.cache.simulator.CacheSimulator` (and a page tracker
    when ``track_pages``): no trace is recorded and no batched kernel
    runs.
    """
    cache = CacheSimulator(cache_config, classify=classify)
    pages = PageTracker() if track_pages else None
    workload.run(ReplaySink(resolver, cache, pages), input_name)
    paging = PagingSummary.from_tracker(pages) if pages else None
    return MeasureResult(cache=cache.stats, paging=paging)


# -- the per-op trace encoding ------------------------------------------------


def encode_op(position: int, kind: int, payload) -> list:
    """JSON-safe rendering of one recorded lifetime/compute op."""
    if isinstance(payload, ObjectInfo):
        payload = [
            payload.obj_id,
            int(payload.category),
            payload.size,
            payload.symbol,
            payload.decl_index,
            payload.alloc_name,
        ]
    elif isinstance(payload, tuple):  # alloc: (ObjectInfo, return_addresses)
        info, return_addresses = payload
        payload = [
            [
                info.obj_id,
                int(info.category),
                info.size,
                info.symbol,
                info.decl_index,
                info.alloc_name,
            ],
            list(return_addresses),
        ]
    return [position, kind, payload]


def oracle_ops_text(trace) -> str:
    """Canonical JSON of a trace's ops and counters, one op at a time."""
    return canonical_json(
        {
            "ops": [encode_op(*op) for op in trace.ops],
            "compute_instructions": trace.compute_instructions,
            "max_stack_depth": trace.max_stack_depth,
            "ended": trace.ended,
        }
    )
