"""Cost priors for longest-estimated-first job dispatch.

One heavy job dispatched last serializes the whole fan-out behind it
(``compress`` costs about three times a mid-size program at every
stage).  The job-graph executor drains its ready
frontier longest-estimated-first and weights the critical path with
these estimates, so the expensive work starts immediately and the
cheap jobs fill the remaining slots.

Priors come from two sources, best first:

* **Benchmark history** — ``BENCH_dag.json`` (per-kind mean job
  seconds from the last scheduler run), read from the working directory
  when present; it replaces the static per-stage base seconds.
* **Static weights** — relative per-program and per-stage factors
  measured on the reference machine.

Estimates only order dispatch and weight the critical path; a wrong
prior costs a little wall-clock, never correctness.
"""

from __future__ import annotations

import json

#: Baseline seconds per stage kind (reference machine, mid-size program).
STAGE_BASE = {
    "trace": 0.13,
    "profile": 0.25,
    "place": 0.01,
    "measure": 0.06,
    "stats": 0.02,
    "aggregate": 0.01,
}

#: Relative weight of each benchmark program (trace length dominates).
PROGRAM_WEIGHT = {
    "compress": 3.0,
    "gcc": 1.4,
    "groff": 1.3,
    "go": 1.2,
    "m88ksim": 1.1,
    "fpppp": 1.1,
    "espresso": 1.0,
    "mgrid": 0.9,
    "deltablue": 0.6,
}

#: History file consulted (working-directory relative).
DAG_HISTORY = "BENCH_dag.json"

_history_cache: dict[str, float] | None = None


def refresh_history() -> None:
    """Drop the memoized benchmark history (tests, long-lived sessions)."""
    global _history_cache
    _history_cache = None


def _load_history() -> dict[str, float]:
    """Benchmark-derived priors: mean job seconds per stage kind."""
    global _history_cache
    if _history_cache is not None:
        return _history_cache
    history: dict[str, float] = {}
    try:
        with open(DAG_HISTORY) as handle:
            kinds = json.load(handle)["job_seconds_by_kind"]
        history = {
            kind: float(seconds)
            for kind, seconds in kinds.items()
            if isinstance(seconds, (int, float)) and seconds > 0
        }
    except (OSError, ValueError, KeyError, TypeError):
        pass
    _history_cache = history
    return history


def program_weight(workload: str | None) -> float:
    """Relative expense of one program (1.0 for an unknown name)."""
    if not workload:
        return 1.0
    return PROGRAM_WEIGHT.get(workload, 1.0)


def job_cost(kind: str, workload: str | None = None) -> float:
    """Estimated seconds for one (stage kind, program) job."""
    base = _load_history().get(kind)
    if base is None:
        base = STAGE_BASE.get(kind, 0.05)
    return base * program_weight(workload)
