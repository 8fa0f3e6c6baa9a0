"""Differential fuzzing: fast engines vs their scalar reference twins.

The fixed parity suites check the batched cache kernel and the array
placement engine against their scalar baselines on the nine benchmark
workloads.  This harness widens that net with hypothesis-generated
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

The suite is deterministic: ``derandomize=True`` derives every example
from the test's own source, so CI runs a fixed corpus (~100 cases) with
no deadline flakes.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import native
from repro.cache.batch import BatchCacheSimulator
from repro.cache.config import CacheConfig
from repro.cache.simulator import CacheSimulator
from repro.core.algorithm import CCDPPlacer
from repro.profiling.batch import profile_trace
from repro.trace.buffer import record_trace
from repro.trace.events import Category
from repro.workloads.synthetic import SyntheticSpec, SyntheticWorkload

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


def _run_batched(config, events, chunk, classify=False, parity=False):
    engine = BatchCacheSimulator(config, classify=classify, parity=parity)
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
    if parity:
        engine.assert_parity()
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

    @settings(max_examples=20, **_FUZZ_SETTINGS)
    @given(
        config=st.sampled_from(_CONFIGS),
        events=_events,
        classify=st.booleans(),
    )
    def test_parity_mode_self_checks(self, config, events, classify):
        """The built-in parity shadow agrees on fuzzed streams too."""
        _run_batched(config, events, 1 << 16, classify, parity=True)
        with _without_native():
            _run_batched(config, events, 1 << 16, classify, parity=True)


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


class TestPlacerDifferential:
    @settings(max_examples=25, **_FUZZ_SETTINGS)
    @given(spec=_specs, place_heap=st.booleans())
    def test_array_equals_scalar(self, spec, place_heap):
        """Array conflict-scan engine == scalar merger, map for map.

        PlacementMap equality covers the global layout, segment bases,
        the heap allocation table, and the placement stats (whose timing
        fields are excluded from comparison by construction).
        """
        workload = SyntheticWorkload(spec)
        trace = record_trace(workload, workload.train_input)
        profile = profile_trace(trace)
        config = CacheConfig(size=1024, line_size=32, associativity=1)
        placements = {}
        for engine in ("array", "scalar"):
            placer = CCDPPlacer(
                profile,
                cache_config=config,
                place_heap=place_heap,
                engine=engine,
            )
            placements[engine] = placer.place()
        assert placements["array"] == placements["scalar"]

    @settings(max_examples=8, **_FUZZ_SETTINGS)
    @given(spec=_specs)
    def test_batched_profile_equals_scalar_profile(self, spec):
        """profile_trace over a recording == live ProfilerSink profiling."""
        from repro.profiling.profiler import ProfilerSink

        workload = SyntheticWorkload(spec)
        trace = record_trace(workload, workload.train_input)
        batched = profile_trace(trace)
        sink = ProfilerSink()
        workload.run(sink, workload.train_input)
        scalar = sink.profile
        assert batched.trg == scalar.trg
        assert batched.total_accesses == scalar.total_accesses
        assert set(batched.entities) == set(scalar.entities)
        assert batched.popularity() == scalar.popularity()
        assert batched.entity_affinity() == scalar.entity_affinity()
