"""Differential fuzzing: fast engines vs their scalar reference twins.

The fixed parity suites check the batched cache kernel and the array
placement engine against their scalar references (the scalar
``CacheSimulator`` and the dict-based ``tests.oracles.ScalarCCDPPlacer``)
on the nine benchmark workloads.  This harness widens that net with hypothesis-generated
inputs: random access streams over random cache geometries for the
simulators, and random :class:`~repro.workloads.synthetic.SyntheticSpec`
workloads for the placers.  Both directions assert *bit-identical*
results — equal :class:`~repro.cache.simulator.CacheStats` and equal
:class:`~repro.core.placement_map.PlacementMap` — because the fast
engines are specified as exact reimplementations, not approximations.

Every simulator example runs twice: once on the kernels the batched
engine picks (the numpy direct-mapped kernel or the native LRU kernel)
and once with the native loader forced unavailable, so the scalar
fallback the engine takes without a C compiler stays exact as well.
The batched profiler gets the same treatment: every random workload is
profiled on the native TRG recency kernel and on its Python fallback,
and the kernel is also fuzzed directly against the Python loop on raw
rank streams.

The suite is deterministic: ``derandomize=True`` derives every example
from the test's own source, so CI runs a fixed corpus (~100 cases) with
no deadline flakes.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cache import native
from repro.cache.batch import BatchCacheSimulator
from repro.cache.config import CacheConfig
from repro.cache.simulator import CacheSimulator
from repro.core.algorithm import CCDPPlacer
from repro.obs import telemetry as obs
from repro.profiling.batch import (
    _recency_pass_native,
    _recency_pass_python,
    profile_trace,
)
from repro.profiling.profiler import ProfilerSink
from repro.trace.buffer import record_trace
from repro.trace.events import Category
from repro.workloads.synthetic import SyntheticSpec, SyntheticWorkload
from tests.oracles import ScalarCCDPPlacer

_FUZZ_SETTINGS = dict(
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Geometries sampled by the simulator fuzz: varied size/line/assoc,
#: including set-associative shapes that run the native LRU kernel.
_CONFIGS = (
    CacheConfig(size=512, line_size=16, associativity=1),
    CacheConfig(size=1024, line_size=32, associativity=1),
    CacheConfig(size=8192, line_size=32, associativity=1),
    CacheConfig(size=65536, line_size=32, associativity=1),
    CacheConfig(size=1024, line_size=32, associativity=2),
    CacheConfig(size=2048, line_size=64, associativity=4),
    CacheConfig(size=8192, line_size=32, associativity=8),
)

_events = st.lists(
    st.tuples(
        # Negative addresses check that every engine indexes sets with
        # floor modulo, as Python's % does.
        st.integers(min_value=-(1 << 14), max_value=(1 << 14) - 1),  # addr
        st.integers(min_value=1, max_value=96),  # size (spans lines)
        st.integers(min_value=0, max_value=7),  # obj_id
        st.sampled_from(list(Category)),  # category
        st.booleans(),  # is_store
    ),
    min_size=1,
    max_size=300,
)


def _run_scalar(config, events, classify=False):
    sim = CacheSimulator(config, classify=classify)
    for addr, size, obj_id, category, is_store in events:
        sim.access(addr, size, obj_id, category, is_store)
    return sim.stats


def _columns(events):
    return tuple(
        np.array(column, dtype=dtype)
        for column, dtype in zip(
            zip(*events), (np.int64, np.int32, np.int32, np.int8, np.int8)
        )
    )


def _without_native():
    """Force the native loader unavailable, as on a host with no compiler."""
    return mock.patch.object(native, "load", return_value=None)


def _run_batched(config, events, chunk, classify=False):
    engine = BatchCacheSimulator(config, classify=classify)
    addr, size, obj_id, category, is_store = _columns(events)
    for start in range(0, len(addr), chunk):
        stop = start + chunk
        engine.consume(
            addr[start:stop],
            size[start:stop],
            obj_id[start:stop],
            category[start:stop],
            is_store[start:stop],
        )
    return engine.stats


class TestSimulatorDifferential:
    @settings(max_examples=60, **_FUZZ_SETTINGS)
    @given(
        config=st.sampled_from(_CONFIGS),
        events=_events,
        chunk=st.sampled_from((1, 7, 64, 1 << 16)),
        classify=st.booleans(),
    )
    def test_batched_equals_scalar(self, config, events, chunk, classify):
        """Chunked batched simulation == event-at-a-time scalar simulation.

        Odd chunk sizes split the stream mid-run, so the kernel's carried
        state (resident tags, dirty bits, per-set LRU order, the three-Cs
        shadow and seen set) is exercised across chunk boundaries, not
        just within one consume call.
        """
        scalar = _run_scalar(config, events, classify)
        assert _run_batched(config, events, chunk, classify) == scalar
        with _without_native():
            assert _run_batched(config, events, chunk, classify) == scalar


_specs = st.builds(
    SyntheticSpec,
    hot_globals=st.integers(min_value=1, max_value=6),
    hot_size=st.sampled_from((64, 256, 1024)),
    cold_spacer=st.sampled_from((0, 512)),
    small_cluster=st.integers(min_value=0, max_value=4),
    iterations=st.integers(min_value=60, max_value=240),
    heap_churn=st.integers(min_value=0, max_value=2),
    heap_persistent=st.integers(min_value=0, max_value=3),
    heap_object_bytes=st.sampled_from((16, 48)),
    stack_frame_bytes=st.sampled_from((32, 96)),
    constant_bytes=st.sampled_from((0, 128)),
)


#: Queue thresholds drawn by the profile fuzz: an eviction-heavy bound
#: (four 256-byte chunks) and the default (twice the 8K cache).
_THRESHOLDS = st.sampled_from((1024, None))

#: A synthetic program whose TRG has more than 512 distinct edges, so the
#: native pass outgrows its first edge table and rehashes.
_MANY_EDGES = SyntheticSpec(
    hot_globals=8, hot_size=1024, iterations=60, heap_churn=2, heap_persistent=3
)


def _profile_with_evictions(run):
    """``(profile, queue evictions)`` of one profiling run, from telemetry."""
    registry = obs.Telemetry()
    with obs.use(registry):
        profile = run()
    return profile, registry.counters["profile.queue_evictions"]


def _assert_profile_matches_scalar(spec, queue_threshold):
    """profile_trace on the kernel and on the fallback == live ProfilerSink."""
    workload = SyntheticWorkload(spec)
    trace = record_trace(workload, workload.train_input)

    def live():
        sink = ProfilerSink(queue_threshold=queue_threshold)
        workload.run(sink, workload.train_input)
        return sink.profile

    scalar, scalar_evictions = _profile_with_evictions(live)

    def batched():
        return profile_trace(trace, queue_threshold=queue_threshold)

    engines = [_profile_with_evictions(batched)]
    with _without_native():
        engines.append(_profile_with_evictions(batched))
    for profile, evictions in engines:
        # Items, not dicts: insertion order is part of the contract.
        assert list(profile.trg.items()) == list(scalar.trg.items())
        assert evictions == scalar_evictions
        assert profile.total_accesses == scalar.total_accesses
        assert set(profile.entities) == set(scalar.entities)
        assert list(profile.popularity().items()) == list(
            scalar.popularity().items()
        )
        assert list(profile.entity_affinity().items()) == list(
            scalar.entity_affinity().items()
        )
    return scalar


class TestPlacerDifferential:
    @settings(max_examples=25, **_FUZZ_SETTINGS)
    @given(spec=_specs, place_heap=st.booleans())
    def test_array_equals_scalar(self, spec, place_heap):
        """Array conflict-scan engine == scalar oracle placer, map for map.

        PlacementMap equality covers the global layout, segment bases,
        the heap allocation table, and the placement stats (whose timing
        fields are excluded from comparison by construction).
        """
        workload = SyntheticWorkload(spec)
        trace = record_trace(workload, workload.train_input)
        profile = profile_trace(trace)
        config = CacheConfig(size=1024, line_size=32, associativity=1)
        placements = [
            placer_cls(profile, cache_config=config, place_heap=place_heap).place()
            for placer_cls in (CCDPPlacer, ScalarCCDPPlacer)
        ]
        assert placements[0] == placements[1]

    @settings(max_examples=8, **_FUZZ_SETTINGS)
    @given(spec=_specs, queue_threshold=_THRESHOLDS)
    def test_batched_profile_equals_scalar_profile(self, spec, queue_threshold):
        """profile_trace over a recording == live ProfilerSink profiling."""
        _assert_profile_matches_scalar(spec, queue_threshold)


@pytest.fixture(scope="module")
def library():
    """The loaded native library; skips where it cannot be built."""
    loaded = native.load()
    if loaded is None:
        pytest.skip("native kernel unavailable (no C compiler)")
    return loaded


class TestProfilerDifferential:
    def test_edge_table_growth(self):
        """More than 512 distinct edges: the native edge table rehashes."""
        scalar = _assert_profile_matches_scalar(_MANY_EDGES, None)
        assert len(scalar.trg) > 512

    @settings(max_examples=30, **_FUZZ_SETTINGS)
    @given(
        seed=st.integers(min_value=0, max_value=(1 << 32) - 1),
        length=st.sampled_from((1, 40, 600)),
        num_keys=st.sampled_from((2, 16, 96)),
        threshold=st.sampled_from((1, 256, 1024, 1 << 14)),
    )
    # Thousands of distinct edges: the edge table grows several times.
    @example(seed=0, length=600, num_keys=96, threshold=1 << 14)
    def test_native_pass_equals_python_pass(
        self, library, seed, length, num_keys, threshold
    ):
        """trg_pass == the Python recency loop on raw rank streams.

        Entry sizes vary per event (as an entity's size may change
        mid-run), thresholds down to one byte keep the queue at its
        single-entry floor, and long streams over 96 keys outgrow the
        first edge table.
        """
        rng = np.random.default_rng(seed)
        ranks = rng.integers(0, num_keys, length)
        # Consecutive duplicates never reach the pass (profile_trace
        # collapses them), so drop them here too.
        ranks = ranks[np.concatenate(([True], ranks[1:] != ranks[:-1]))]
        entry = rng.choice(np.array([8, 48, 256]), len(ranks))
        columns = (ranks, entry, num_keys, threshold)
        kernel = _recency_pass_native(library, *columns)
        oracle = _recency_pass_python(*columns)
        assert kernel[0].tolist() == oracle[0].tolist()
        assert kernel[1].tolist() == oracle[1].tolist()
        assert kernel[2] == oracle[2]

    def test_native_pass_rejects_out_of_range_input(self, library):
        """Ranks outside [0, num_keys) or empty entries never reach C."""
        ones = np.ones(2, dtype=np.int64)
        for ranks, entry in (([0, 2], ones), ([-1, 0], ones), ([0, 1], [1, 0])):
            with pytest.raises(ValueError):
                _recency_pass_native(
                    library,
                    np.array(ranks, dtype=np.int64),
                    np.array(entry, dtype=np.int64),
                    2,
                    16,
                )
