"""Per-layer timers installed around the program's public functions.

The tracer never edits the program: for a traced pass it rebinds each
timed function in every ``repro.*`` module that imported it (and each
timed method on its class) to a wrapper that records a span, then puts
the originals back.  Untraced passes run the program untouched.

A span holds its layer name, start and end, the span that was open when
it began (its parent), an event count, a tag and further counts the
layer reports (TRG edges, scheduler job counts).  Spans stay in memory;
:func:`layer_metrics` folds one pass's spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    events: int = 0
    tag: str = ""
    #: Further counts a note attaches (TRG edges; scheduler job counts).
    counts: tuple[int, ...] = ()

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _trace_events(span, args, result):
    span.events = result.events


def _profile_events(span, args, result):
    span.events = args[0].events
    span.counts = (len(result.trg),)


def _consume_events(span, args, result):
    simulator = args[0]
    span.events = len(args[1])
    if simulator.classify:
        span.tag = "classify"
    elif simulator.config.associativity == 1:
        span.tag = "dm"
    else:
        span.tag = "assoc"


def _get_outcome(span, args, result):
    span.tag = "miss" if result is None else "hit"


def _sched_summary(span, args, result):
    summary = result[2]
    span.counts = (summary.total, summary.executed, summary.deduped)


#: (module, function, span name, note) for module-level functions.
FUNCTIONS = (
    ("repro.trace.buffer", "record_trace", "trace.record", _trace_events),
    ("repro.profiling.batch", "profile_trace", "profiling.profile", _profile_events),
    ("repro.runtime.driver", "measure_trace", "runtime.measure", None),
    ("repro.store.traces", "save_trace", "store.save_trace", None),
    ("repro.store.stages", "try_load_experiment", "store.probe", None),
    ("repro.sched.executor", "run_experiments_dag", "sched.run", _sched_summary),
)

#: (module, class, method, span name, note) for methods.
METHODS = (
    ("repro.core.algorithm", "CCDPPlacer", "place", "core.place", None),
    ("repro.cache.batch", "BatchCacheSimulator", "consume", "cache.consume",
     _consume_events),
    ("repro.store.store", "ArtifactStore", "get", "store.get", _get_outcome),
    ("repro.store.store", "ArtifactStore", "put", "store.put", None),
)


class Tracer:
    """Records a span per timed call while installed, and per ``span`` block."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _call(self, name, fn, note, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if note is not None:
            note(span, args, result)
        return result

    def _wrap(self, name, fn, note):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            return self._call(name, fn, note, args, kwargs)

        return timed

    @contextmanager
    def span(self, name: str):
        """Time a block the benchmark itself runs (e.g. a workload entry)."""
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def install(self) -> None:
        """Rebind every timed function and method to its timing wrapper."""
        for module_name, attr, name, note in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            timed = self._wrap(name, original, note)
            for module_key, module in list(sys.modules.items()):
                if not module_key.startswith("repro"):
                    continue
                if getattr(module, attr, None) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, timed)
        for module_name, cls_name, attr, name, note in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, note))

    def uninstall(self) -> None:
        """Put every original function and method back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


class NullTracer:
    """The untraced stand-in: ``span`` records nothing."""

    @contextmanager
    def span(self, name: str):
        yield None


def _rate(events: float, seconds: float) -> float:
    return events / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[Span], wall: float) -> dict[str, float]:
    """Fold one traced pass's spans into the per-layer metrics."""
    child_seconds = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_seconds[span.parent] += span.seconds
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    events: dict[str, int] = {}
    top_level = 0.0
    for index, span in enumerate(spans):
        total[span.name] = total.get(span.name, 0.0) + span.seconds
        self_total[span.name] = (
            self_total.get(span.name, 0.0) + span.seconds - child_seconds[index]
        )
        calls[span.name] = calls.get(span.name, 0) + 1
        events[span.name] = events.get(span.name, 0) + span.events
        if span.parent < 0:
            top_level += span.seconds

    def tagged(name: str, tag: str) -> list[Span]:
        return [span for span in spans if span.name == name and span.tag == tag]

    def consume_rate(tag: str) -> float:
        chosen = tagged("cache.consume", tag)
        return _rate(
            sum(span.events for span in chosen),
            sum(span.seconds for span in chosen),
        )

    def summed_counts(name: str, width: int) -> list[int]:
        sums = [0] * width
        for span in spans:
            if span.name == name:
                sums = [a + b for a, b in zip(sums, span.counts)]
        return sums

    gets = calls.get("store.get", 0)
    (trg_edges,) = summed_counts("profiling.profile", 1)
    sched_total, sched_executed, sched_deduped = summed_counts("sched.run", 3)
    return {
        "trace.record_s": total.get("trace.record", 0.0),
        "trace.record_calls": calls.get("trace.record", 0),
        "trace.events": events.get("trace.record", 0),
        "trace.events_per_s": _rate(
            events.get("trace.record", 0), total.get("trace.record", 0.0)
        ),
        "profiling.profile_s": total.get("profiling.profile", 0.0),
        "profiling.profile_calls": calls.get("profiling.profile", 0),
        "profiling.events_per_s": _rate(
            events.get("profiling.profile", 0), total.get("profiling.profile", 0.0)
        ),
        "profiling.trg_edges": trg_edges,
        "core.place_s": total.get("core.place", 0.0),
        "core.place_calls": calls.get("core.place", 0),
        "runtime.measure_s": total.get("runtime.measure", 0.0),
        "runtime.measure_calls": calls.get("runtime.measure", 0),
        "runtime.measure_self_s": self_total.get("runtime.measure", 0.0),
        "cache.consume_s": total.get("cache.consume", 0.0),
        "cache.events": events.get("cache.consume", 0),
        "cache.dm_events_per_s": consume_rate("dm"),
        "cache.assoc_events_per_s": consume_rate("assoc"),
        "cache.classify_events_per_s": consume_rate("classify"),
        "store.get_s": total.get("store.get", 0.0),
        "store.get_calls": gets,
        "store.hit_ratio": len(tagged("store.get", "hit")) / gets if gets else 0.0,
        "store.put_s": total.get("store.put", 0.0),
        "store.put_calls": calls.get("store.put", 0),
        "store.save_trace_s": total.get("store.save_trace", 0.0),
        "store.save_trace_calls": calls.get("store.save_trace", 0),
        "store.probe_s": total.get("store.probe", 0.0),
        "sched.run_s": total.get("sched.run", 0.0),
        "sched.self_s": self_total.get("sched.run", 0.0),
        "sched.jobs_total": sched_total,
        "sched.jobs_executed": sched_executed,
        "sched.jobs_deduped": sched_deduped,
        "sched.executed_ratio": sched_executed / sched_total if sched_total else 0.0,
        "experiments.self_s": self_total.get("experiments", 0.0),
        "bench.span_coverage": top_level / wall if wall > 0 else 0.0,
    }
