"""Unit + property tests for chunk/line mapping and the conflict-cost scan.

The dict-based ``CACHE`` structure and Figure 2 scan under test here are
the scalar oracle (:mod:`tests.oracles`) the product placer is checked
against, so they are pinned against brute force directly.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cache.config import CacheConfig
from repro.core.cache_struct import TRGIndex, chunk_line_span
from repro.profiling.profile_data import Entity, Profile
from repro.trace.events import Category
from tests.oracles import (
    CacheImage,
    active_chunks_by_entity,
    build_adjacency,
    conflict_cost_scan,
)

CONFIG = CacheConfig(1024, 32, 1)  # 32 lines


class TestChunkLineSpan:
    def test_full_chunk_spans_eight_lines(self):
        span = chunk_line_span(0, 1024, 0, 256, CONFIG)
        assert span == tuple(range(8))

    def test_offset_shifts_lines(self):
        span = chunk_line_span(64, 1024, 0, 256, CONFIG)
        assert span[0] == 2

    def test_wraps_modulo_cache(self):
        span = chunk_line_span(1000, 512, 0, 256, CONFIG)
        assert span[0] == 31
        assert span[1] == 0

    def test_small_object_single_line(self):
        span = chunk_line_span(0, 8, 0, 256, CONFIG)
        assert span == (0,)

    def test_tail_chunk_truncated_by_size(self):
        # object of 300 bytes: chunk 1 covers bytes 256..299 only.
        span = chunk_line_span(0, 300, 1, 256, CONFIG)
        assert span == (8, 9)

    def test_unaligned_offset_straddles_lines(self):
        span = chunk_line_span(30, 8, 0, 256, CONFIG)
        assert span == (0, 1)


class TestCacheImage:
    def test_add_entity_maps_active_chunks(self):
        image = CacheImage(CONFIG, 256)
        image.add_entity(1, 512, 0, (0, 1))
        assert (1, 0) in image.pairs
        assert (1, 1) in image.pairs
        assert image.lines_in_use() == set(range(16))


class TestAdjacencyHelpers:
    def _profile(self) -> Profile:
        profile = Profile(chunk_size=256)
        profile.entities[1] = Entity(1, Category.GLOBAL, "g:a", size=512)
        profile.entities[2] = Entity(2, Category.GLOBAL, "g:b", size=512)
        profile.trg = {((1, 0), (2, 0)): 10, ((1, 1), (2, 0)): 4}
        return profile

    def test_build_adjacency_indexes_both_endpoints(self):
        adjacency = build_adjacency(self._profile())
        assert ((2, 0), 10) in adjacency[(1, 0)]
        assert ((1, 0), 10) in adjacency[(2, 0)]
        assert len(adjacency[(2, 0)]) == 2

    def test_active_chunks_include_chunk_zero(self):
        profile = self._profile()
        chunks = active_chunks_by_entity(profile)
        assert chunks[1] == (0, 1)
        assert chunks[2] == (0,)


class TestConflictCostScan:
    def test_finds_zero_conflict_offset(self):
        # Fixed: entity 1 chunk 0 on lines 0-7.  Moving: entity 2 chunk 0
        # (one line) with a heavy edge to the fixed pair.
        fixed = {(1, 0): tuple(range(8))}
        moving = {(2, 0): (0,)}
        adjacency = {(2, 0): [((1, 0), 100)]}
        start, cost = conflict_cost_scan(fixed, moving, adjacency, 32)
        assert cost == 0
        assert start not in range(8)

    def test_reports_cost_when_unavoidable(self):
        # Fixed occupies every line: no zero-cost start exists.
        fixed = {(1, 0): tuple(range(32))}
        moving = {(2, 0): (0,)}
        adjacency = {(2, 0): [((1, 0), 3)]}
        _start, cost = conflict_cost_scan(fixed, moving, adjacency, 32)
        assert cost == 3

    def test_prefers_preferred_start_on_ties(self):
        fixed = {}
        moving = {(2, 0): (0,)}
        start, cost = conflict_cost_scan(fixed, moving, {}, 32, preferred_start=7)
        assert start == 7 and cost == 0

    def test_picks_cheapest_of_two_conflicts(self):
        fixed = {(1, 0): (0,), (3, 0): (5,)}
        moving = {(2, 0): (0,)}
        adjacency = {(2, 0): [((1, 0), 10), ((3, 0), 2)]}
        cost_at = {}
        for start in range(32):
            _s, c = conflict_cost_scan(
                fixed, moving, adjacency, 32, preferred_start=start
            )
        start, cost = conflict_cost_scan(fixed, moving, adjacency, 32)
        assert cost == 0  # 30 free lines exist

    def test_scan_matches_brute_force(self):
        fixed = {(1, 0): (0, 1, 2), (1, 1): (8, 9)}
        moving = {(2, 0): (0, 1), (2, 1): (4,)}
        adjacency = {
            (2, 0): [((1, 0), 5)],
            (2, 1): [((1, 1), 7)],
        }
        num_lines = 32
        # Brute force: for each start, count co-resident weighted pairs.
        def brute(start: int) -> int:
            cost = 0
            for mpair, mlines in moving.items():
                for opair, weight in adjacency[mpair]:
                    flines = fixed.get(opair, ())
                    for ml in mlines:
                        placed = (ml + start) % num_lines
                        cost += weight * sum(1 for fl in flines if fl == placed)
            return cost

        best_start, best_cost = conflict_cost_scan(
            fixed, moving, adjacency, num_lines
        )
        assert best_cost == min(brute(s) for s in range(num_lines))
        assert brute(best_start) == best_cost


class TestTRGIndex:
    def _profile(self) -> Profile:
        profile = Profile(chunk_size=256)
        profile.entities[1] = Entity(1, Category.GLOBAL, "g:a", size=512)
        profile.entities[2] = Entity(2, Category.GLOBAL, "g:b", size=512)
        profile.entities[3] = Entity(3, Category.GLOBAL, "g:c", size=64)
        profile.trg = {
            ((1, 0), (2, 0)): 10,
            ((1, 1), (2, 0)): 4,
            ((2, 0), (2, 0)): 7,  # self-loop
        }
        return profile

    def test_active_chunks_match_dict_helper(self):
        profile = self._profile()
        index = TRGIndex(profile)
        expected = active_chunks_by_entity(profile)
        for eid in profile.entities:
            assert index.active_chunks(eid) == expected[eid]

    def test_csr_rows_match_build_adjacency(self):
        profile = self._profile()
        index = TRGIndex(profile)
        adjacency = build_adjacency(profile)
        pair_of = {
            idx: (int(index.pair_eid[idx]), int(index.pair_chunk[idx]))
            for idx in range(index.num_pairs)
        }
        for idx in range(index.num_pairs):
            lo, hi = int(index.indptr[idx]), int(index.indptr[idx + 1])
            row = sorted(
                (pair_of[int(nbr)], int(w))
                for nbr, w in zip(index.nbr[lo:hi], index.wt[lo:hi])
            )
            assert row == sorted(adjacency.get(pair_of[idx], []))

    def test_entity_pair_ranges_are_contiguous_and_sorted(self):
        index = TRGIndex(self._profile())
        lo, hi = index.pair_range(1)
        assert list(index.pair_ids(1)) == list(range(lo, hi))
        assert list(index.pair_chunk[lo:hi]) == sorted(index.pair_chunk[lo:hi])

    def test_for_profile_memoizes(self):
        profile = self._profile()
        assert TRGIndex.for_profile(profile) is TRGIndex.for_profile(profile)

    def test_empty_trg_still_covers_chunk_zero(self):
        profile = Profile(chunk_size=256)
        profile.entities[5] = Entity(5, Category.GLOBAL, "g:solo", size=8)
        index = TRGIndex(profile)
        assert index.active_chunks(5) == (0,)
        assert len(index.nbr) == 0


def _brute_scan(fixed, moving, adjacency, num_lines, preferred):
    """O(lines x edges x span^2) reference with Figure 2 tie-breaking."""

    def cost_at(start: int) -> int:
        total = 0
        for mpair, mlines in moving.items():
            for opair, weight in adjacency.get(mpair, ()):
                flines = fixed.get(opair, ())
                for ml in mlines:
                    for fl in flines:
                        if (ml + start) % num_lines == fl % num_lines:
                            total += weight
        return total

    best_start = preferred % num_lines
    best_cost = cost_at(best_start)
    for step in range(1, num_lines):
        start = (preferred + step) % num_lines
        cost = cost_at(start)
        if cost < best_cost:  # strict improvement, scan order from preferred
            best_cost, best_start = cost, start
    return best_start, best_cost


class TestScanFallback:
    """Satellite regressions: arbitrary span tuples in the fallback path."""

    def test_empty_moving_span_is_skipped(self):
        fixed = {(1, 0): (0, 1)}
        moving = {(2, 0): (), (2, 1): (5,)}
        adjacency = {(2, 0): [((1, 0), 9)], (2, 1): [((1, 0), 9)]}
        start, cost = conflict_cost_scan(fixed, moving, adjacency, 32)
        assert cost == 0
        assert start == _brute_scan(fixed, moving, adjacency, 32, 0)[0]

    def test_empty_fixed_span_is_skipped(self):
        fixed = {(1, 0): ()}
        moving = {(2, 0): (0,)}
        adjacency = {(2, 0): [((1, 0), 9)]}
        assert conflict_cost_scan(fixed, moving, adjacency, 32) == (0, 0)

    def test_unwrapped_lines_match_wrapped_equivalent(self):
        # (30, 31, 32) is the same circular interval as (30, 31, 0) on a
        # 32-line cache; both must produce identical scan results.
        moving = {(2, 0): (0, 1)}
        adjacency = {(2, 0): [((1, 0), 5)]}
        wrapped = conflict_cost_scan(
            {(1, 0): (30, 31, 0)}, moving, adjacency, 32, preferred_start=3
        )
        unwrapped = conflict_cost_scan(
            {(1, 0): (30, 31, 32)}, moving, adjacency, 32, preferred_start=3
        )
        assert wrapped == unwrapped

    def test_duplicate_lines_count_twice(self):
        fixed = {(1, 0): (4, 4)}
        moving = {(2, 0): (0,)}
        adjacency = {(2, 0): [((1, 0), 3)]}
        start, cost = conflict_cost_scan(
            fixed, moving, adjacency, 8, preferred_start=4
        )
        assert (start, cost) == (5, 0)
        full = {(1, 0): tuple(range(8)) + (4, 4)}
        _start, cost = conflict_cost_scan(full, moving, adjacency, 8)
        assert cost == 3  # a free line still beats the doubled line 4


_span = st.lists(st.integers(0, 63), min_size=0, max_size=5).map(tuple)


@given(
    st.dictionaries(
        st.tuples(st.integers(1, 3), st.integers(0, 2)), _span,
        min_size=1, max_size=4,
    ),
    st.dictionaries(
        st.tuples(st.just(9), st.integers(0, 3)), _span,
        min_size=1, max_size=3,
    ),
    st.integers(0, 31),
)
@settings(max_examples=120, deadline=None)
def test_fallback_scan_equals_bruteforce(fixed, moving, preferred):
    """Wrapped, unwrapped, duplicated, and empty spans all match brute force."""
    adjacency = {}
    weight = 1
    for mpair in moving:
        adjacency[mpair] = [(fpair, weight) for fpair in fixed]
        weight += 2
    result = conflict_cost_scan(
        fixed, moving, adjacency, 32, preferred_start=preferred
    )
    assert result == _brute_scan(fixed, moving, adjacency, 32, preferred)


@given(
    st.dictionaries(
        st.tuples(st.integers(1, 3), st.integers(0, 2)),
        st.lists(st.integers(0, 31), min_size=1, max_size=4, unique=True).map(tuple),
        min_size=1,
        max_size=4,
    ),
    st.dictionaries(
        st.tuples(st.just(9), st.integers(0, 3)),
        st.lists(st.integers(0, 31), min_size=1, max_size=4, unique=True).map(tuple),
        min_size=1,
        max_size=3,
    ),
    st.integers(0, 31),
)
@settings(max_examples=50, deadline=None)
def test_scan_equals_bruteforce_property(fixed, moving, preferred):
    adjacency = {}
    weight = 1
    for mpair in moving:
        adjacency[mpair] = [(fpair, weight) for fpair in fixed]
        weight += 1

    def brute(start: int) -> int:
        cost = 0
        for mpair, mlines in moving.items():
            for opair, w in adjacency[mpair]:
                flines = fixed.get(opair, ())
                for ml in mlines:
                    placed = (ml + start) % 32
                    cost += w * sum(1 for fl in flines if fl == placed)
        return cost

    best_start, best_cost = conflict_cost_scan(
        fixed, moving, adjacency, 32, preferred_start=preferred
    )
    assert best_cost == min(brute(s) for s in range(32))
    assert brute(best_start) == best_cost
