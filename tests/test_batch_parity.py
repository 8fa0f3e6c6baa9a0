"""Batched-engine parity: vectorized kernels == scalar simulator, exactly.

The batched engine (:mod:`repro.cache.batch`, :mod:`repro.profiling.batch`,
:func:`repro.runtime.driver.measure_trace`) is only admissible because it
is *bit-identical* to the per-event pipeline — the scalar oracle
:func:`tests.oracles.scalar_measure`, which runs each workload live
through ``ReplaySink`` and ``CacheSimulator``.  These tests pin that
contract on real
workloads (deltablue, espresso), a synthetic workload with heap churn,
and four cache geometries: the paper's 8K/32B direct-mapped cache, a
larger direct-mapped geometry, and a 2-way set-associative geometry
with and without three-Cs classification, the last two running the
native LRU kernel inside :class:`BatchCacheSimulator` (and its scalar
fallback when the loader is forced unavailable).  Batched profiles are
checked on the native TRG recency kernel and on its Python fallback.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import native
from repro.cache.batch import BatchCacheSimulator
from repro.cache.config import CacheConfig
from repro.cache.simulator import CacheSimulator
from repro.obs import telemetry as obs
from repro.profiling.batch import profile_trace
from repro.profiling.profiler import ProfilerSink
from repro.runtime.driver import build_placement, measure, measure_trace
from repro.runtime.resolvers import CCDPResolver, NaturalResolver, RandomResolver
from repro.trace.buffer import record_trace
from repro.trace.events import Category
from repro.workloads import make_workload
from repro.workloads.synthetic import SyntheticSpec, SyntheticWorkload
from tests.oracles import scalar_measure

TWO_WAY = CacheConfig(size=8192, line_size=32, associativity=2)

#: (geometry, classify) pairs.
GEOMETRIES = [
    pytest.param(
        CacheConfig(size=8192, line_size=32, associativity=1), False, id="8k-32B-direct"
    ),
    pytest.param(
        CacheConfig(size=16384, line_size=64, associativity=1),
        False,
        id="16k-64B-direct",
    ),
    pytest.param(TWO_WAY, False, id="8k-32B-2way"),
    pytest.param(TWO_WAY, True, id="8k-32B-2way-classify"),
]


def synthetic_workload() -> SyntheticWorkload:
    """A small synthetic program with heap churn and aliased globals."""
    return SyntheticWorkload(
        SyntheticSpec(
            hot_globals=3,
            hot_size=512,
            cold_spacer=7680,
            small_cluster=4,
            iterations=400,
            heap_churn=3,
            heap_persistent=2,
        )
    )


def workload_under_test(name: str):
    if name == "synthetic":
        return synthetic_workload()
    return make_workload(name)


WORKLOADS = ["deltablue", "espresso", "synthetic"]


@pytest.mark.parametrize("config, classify", GEOMETRIES)
@pytest.mark.parametrize("name", WORKLOADS)
def test_measure_trace_matches_scalar_measure(name, config, classify):
    """Batched trace measurement == scalar per-event measurement."""
    workload = workload_under_test(name)
    input_name = workload.train_input
    trace = record_trace(workload_under_test(name), input_name)
    batched = measure_trace(trace, NaturalResolver(), config, classify=classify)
    scalar = scalar_measure(
        workload_under_test(name),
        input_name,
        NaturalResolver(),
        config,
        classify=classify,
    )
    assert batched.cache == scalar.cache
    assert batched.cache.accesses > 0
    assert batched.cache.misses > 0


@pytest.mark.parametrize("config, classify", GEOMETRIES)
@pytest.mark.parametrize("name", WORKLOADS)
def test_streaming_batch_sink_matches_scalar(name, config, classify):
    """The streaming batched engine (live run) == scalar measurement."""
    batched = measure(
        workload_under_test(name),
        workload_under_test(name).train_input,
        RandomResolver(seed=99),
        config,
        classify=classify,
    )
    scalar = scalar_measure(
        workload_under_test(name),
        workload_under_test(name).train_input,
        RandomResolver(seed=99),
        config,
        classify=classify,
    )
    assert batched.cache == scalar.cache


@pytest.mark.parametrize("name", WORKLOADS)
def test_parity_mode_asserts_clean(name):
    """The direct-mapped numpy kernel equals the scalar oracle."""
    config = CacheConfig(size=8192, line_size=32, associativity=1)
    workload = workload_under_test(name)
    trace = record_trace(workload, workload.train_input)
    result = measure_trace(trace, NaturalResolver(), config)
    scalar = scalar_measure(
        workload_under_test(name), workload.train_input, NaturalResolver(), config
    )
    assert result.cache == scalar.cache
    assert result.cache.accesses > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_parity_mode_covers_native_kernel(name):
    """The native LRU kernel's classified 2-way run equals the oracle."""
    workload = workload_under_test(name)
    trace = record_trace(workload, workload.train_input)
    result = measure_trace(trace, NaturalResolver(), TWO_WAY, classify=True)
    scalar = scalar_measure(
        workload_under_test(name),
        workload.train_input,
        NaturalResolver(),
        TWO_WAY,
        classify=True,
    )
    assert result.cache == scalar.cache
    assert result.cache.compulsory > 0
    assert result.cache.conflict + result.cache.capacity > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_fallback_matches_scalar_measure(name, monkeypatch):
    """With the native loader unavailable, results still equal scalar."""
    monkeypatch.setattr(native, "load", lambda: None)
    assert BatchCacheSimulator(TWO_WAY, classify=True)._kernel is None
    workload = workload_under_test(name)
    trace = record_trace(workload, workload.train_input)
    batched = measure_trace(trace, NaturalResolver(), TWO_WAY, classify=True)
    scalar = scalar_measure(
        workload_under_test(name),
        workload.train_input,
        NaturalResolver(),
        TWO_WAY,
        classify=True,
    )
    assert batched.cache == scalar.cache


@pytest.mark.parametrize("config, classify", GEOMETRIES)
def test_parity_under_ccdp_placement(config, classify):
    """Parity also holds when replaying under a CCDP placement map."""
    workload = workload_under_test("deltablue")
    trace = record_trace(workload, workload.train_input)
    _profile, placement = build_placement(
        workload_under_test("deltablue"), workload.train_input, config
    )
    batched = measure_trace(trace, CCDPResolver(placement), config, classify=classify)
    scalar = scalar_measure(
        workload_under_test("deltablue"),
        workload.train_input,
        CCDPResolver(placement),
        config,
        classify=classify,
    )
    assert batched.cache == scalar.cache


def _profile_with_evictions(run):
    """``(profile, queue evictions)`` of one profiling run, from telemetry."""
    registry = obs.Telemetry()
    with obs.use(registry):
        profile = run()
    return profile, registry.counters["profile.queue_evictions"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_batched_profile_equals_scalar_profile(name, monkeypatch):
    """profile_trace == live ProfilerSink, down to dict insertion order.

    Checked on the native TRG recency kernel and again with the loader
    forced unavailable, which runs the Python fallback.
    """
    workload = workload_under_test(name)
    input_name = workload.train_input
    trace = record_trace(workload, input_name)
    on_kernel = _profile_with_evictions(lambda: profile_trace(trace))
    with monkeypatch.context() as patch:
        patch.setattr(native, "load", lambda: None)
        on_fallback = _profile_with_evictions(lambda: profile_trace(trace))

    def live():
        sink = ProfilerSink()
        workload_under_test(name).run(sink, input_name)
        return sink.profile

    scalar, scalar_evictions = _profile_with_evictions(live)

    for batched, evictions in (on_kernel, on_fallback):
        assert evictions == scalar_evictions
        # TRG edges: same weights AND same insertion order (downstream
        # tie-breaking iterates the dict).
        assert list(batched.trg.items()) == list(scalar.trg.items())
        assert batched.total_accesses == scalar.total_accesses
        assert batched.alloc_adjacency == scalar.alloc_adjacency
        assert set(batched.entities) == set(scalar.entities)
        for eid, scalar_entity in scalar.entities.items():
            batched_entity = batched.entities[eid]
            assert batched_entity.refs == scalar_entity.refs
            assert batched_entity.first_access == scalar_entity.first_access
            assert batched_entity.last_access == scalar_entity.last_access
            assert batched_entity.size == scalar_entity.size
            assert batched_entity.collided == scalar_entity.collided
        # Derived reductions (precomputed on the batched side) match too.
        assert list(batched.popularity().items()) == list(
            scalar.popularity().items()
        )
        assert list(batched.entity_affinity().items()) == list(
            scalar.entity_affinity().items()
        )


def _scalar_stats(config, columns, classify=False):
    """Per-event scalar simulation of ``(addr, size, obj, cat, store)``."""
    scalar = CacheSimulator(config, classify=classify)
    categories = tuple(Category)
    for a, sz, obj, cat, st in zip(*(column.tolist() for column in columns)):
        scalar.access(a, sz, obj, categories[cat], bool(st))
    return scalar.stats


def test_parity_mode_catches_divergence():
    """A corrupted kernel state must show against the scalar oracle."""
    config = CacheConfig(size=8192, line_size=32, associativity=1)
    engine = BatchCacheSimulator(config)
    addr = np.arange(0, 64 * 32, 32, dtype=np.int64)
    ones = np.ones(len(addr), dtype=np.int64)
    zeros = np.zeros(len(addr), dtype=np.int64)
    columns = (addr, ones * 4, zeros, zeros, zeros)
    engine.consume(*columns)
    assert engine.stats == _scalar_stats(config, columns)  # clean so far
    # Corrupt a counter the conservation invariants do not constrain,
    # so only the oracle comparison can notice.
    engine._kernel.writebacks += 1
    engine._stats = None  # drop the memoized stats snapshot
    assert engine.stats != _scalar_stats(config, columns)


def test_parity_mode_catches_native_divergence():
    """The oracle comparison also checks the native kernel's three-Cs split."""
    engine = BatchCacheSimulator(TWO_WAY, classify=True)
    if engine._kernel is None:
        pytest.skip("native LRU kernel unavailable (no C compiler)")
    addr = np.arange(0, 1024 * 32, 32, dtype=np.int64)
    ones = np.ones(len(addr), dtype=np.int64)
    zeros = np.zeros(len(addr), dtype=np.int64)
    columns = (addr, ones * 4, zeros, zeros, zeros)
    engine.consume(*columns)
    engine.consume(*columns)
    twice = tuple(np.concatenate((column, column)) for column in columns)
    expected = _scalar_stats(TWO_WAY, twice, classify=True)
    assert engine.stats == expected  # clean so far
    engine._kernel.capacity -= 1  # corrupt the split, not the total
    engine._kernel.conflict += 1
    engine._stats = None
    assert engine.stats != expected


def test_direct_mapped_scalar_fast_path_matches_lru_path():
    """CacheSimulator's associativity==1 fast path == generic LRU path."""
    config = CacheConfig(size=4096, line_size=32, associativity=1)
    fast = CacheSimulator(config)
    # classify=True forces the general path (three-Cs bookkeeping).
    slow = CacheSimulator(config, classify=True)
    workload = workload_under_test("synthetic")
    trace = record_trace(workload, workload.train_input)

    from repro.runtime.replay import ReplaySink

    for sim in (fast, slow):
        trace.replay(ReplaySink(NaturalResolver(), sim))
    assert fast.stats.accesses == slow.stats.accesses
    assert fast.stats.misses == slow.stats.misses
    assert fast.stats.writebacks == slow.stats.writebacks
    assert fast.stats.misses_by_object == slow.stats.misses_by_object
