"""Longest-estimated-first dispatch: cost priors and frontier order.

One heavy job dispatched last serializes a whole fan-out behind it.
These tests pin the ordering contract at both layers: the cost priors
rank programs/stages sensibly, and the job-graph executor hands its
ready frontier to the resilient dispatcher longest-estimated-first.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import clear_cache
from repro.runtime import parallel
from repro.runtime.faults import FanoutReport
from repro.runtime.parallel import ExperimentSpec
from repro.sched import costs, executor
from repro.sched.jobs import plan_experiments


@pytest.fixture(autouse=True)
def _fresh(tmp_path, monkeypatch):
    # Keep the priors static: benchmark history is read from the cwd.
    monkeypatch.chdir(tmp_path)
    costs.refresh_history()
    clear_cache()
    yield
    costs.refresh_history()
    clear_cache()


class TestCostPriors:
    def test_program_weights_rank_trace_length(self):
        assert costs.program_weight("compress") > costs.program_weight(
            "espresso"
        ) > costs.program_weight("deltablue")

    def test_unknown_program_gets_neutral_weight(self):
        assert costs.program_weight("mystery") == pytest.approx(1.0)

    def test_job_cost_scales_stage_by_program(self):
        assert costs.job_cost("profile", "compress") > costs.job_cost(
            "profile", "deltablue"
        )
        assert costs.job_cost("profile", "espresso") > costs.job_cost(
            "place", "espresso"
        )

    def test_history_overrides_static_weights(self, tmp_path):
        import json

        assert costs.job_cost("place", "espresso") < costs.job_cost(
            "profile", "espresso"
        )
        (tmp_path / costs.DAG_HISTORY).write_text(
            json.dumps({"job_seconds_by_kind": {"place": 9.0, "profile": 0.3}})
        )
        costs.refresh_history()
        assert costs.job_cost("place", "espresso") == 9.0
        assert costs.job_cost("place", "espresso") > costs.job_cost(
            "profile", "espresso"
        )


class TestFanoutOrder:
    def test_dag_frontier_dispatches_longest_first(self, monkeypatch):
        captured = {}

        def fake_map(items, labels, worker, inline, jobs=1, policy=None, **kw):
            captured["labels"] = list(labels)
            captured["priorities"] = list(kw["priorities"])
            report = FanoutReport(total=len(items), completed=len(items))
            parallel._reports.append(report)
            return [None] * len(items), report

        monkeypatch.setattr(parallel, "_resilient_map", fake_map)
        specs = [
            ExperimentSpec(workload="deltablue", same_input=True),
            ExperimentSpec(workload="compress", same_input=True),
            ExperimentSpec(workload="espresso", same_input=True),
        ]
        graph, _aggregates = plan_experiments(specs)
        executor._dispatch(graph, 2, None, None)
        # The frontier is the three training traces, heaviest first.
        assert [label.split("/")[0] for label in captured["labels"]] == [
            "trace:compress",
            "trace:espresso",
            "trace:deltablue",
        ]
        assert captured["priorities"] == sorted(
            captured["priorities"], reverse=True
        )
