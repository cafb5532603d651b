"""Telemetry integration: determinism across processes, zero-cost off.

Two load-bearing guarantees of the observability layer:

* **determinism** — for fixed seeds, the merged event stream is
  byte-identical (after :func:`strip_times`) whether the runner
  executes inline or fans out across worker processes, and across
  repeated runs;
* **free when off** — the disabled :data:`NULL` recorder allocates
  nothing on the hot path.  That allocation pin is the claim; no
  wall-clock check backs it (CI's perf gate catches only a 2×
  slowdown).
"""

import sys

import pytest

from repro.api.facade import explore
from repro.api.specs import (
    ApplicationSpec,
    ArchitectureSpec,
    BudgetSpec,
    EngineSpec,
    ExplorationRequest,
    StrategySpec,
)
from repro.obs.telemetry import (
    NULL,
    Telemetry,
    canonical_stream,
    validate_events,
)
from repro.search.runner import InstanceSpec, SearchJob, StrategySpec as RunnerSpec
from repro.search.runner import run_search_jobs


def small_jobs(app, arch):
    instance = InstanceSpec(app, architecture=arch)
    return [
        SearchJob(
            RunnerSpec("sa", {"iterations": 60, "warmup_iterations": 10}),
            instance, seed=1, tag="sa",
        ),
        SearchJob(
            RunnerSpec("tabu", {
                "iterations": 20, "candidates_per_iteration": 3,
            }),
            instance, seed=2, tag="tabu",
        ),
        SearchJob(
            RunnerSpec("tempering", {
                "chains": 3, "iterations": 20, "warmup_iterations": 4,
            }),
            instance, seed=3, tag="tempering",
        ),
    ]


def collect(app, arch, jobs):
    tele = Telemetry(label="test", step_interval=10)
    run_search_jobs(small_jobs(app, arch), jobs=jobs, telemetry=tele)
    return tele


class TestRunnerDeterminism:
    def test_inline_vs_workers_identical_streams(self, small_app, small_arch):
        inline = collect(small_app, small_arch, jobs=1)
        pooled = collect(small_app, small_arch, jobs=2)
        assert inline.events, "expected a non-empty event stream"
        assert canonical_stream(inline.events) == canonical_stream(pooled.events)
        assert inline.counters == pooled.counters

    def test_repeated_runs_identical(self, small_app, small_arch):
        first = collect(small_app, small_arch, jobs=1)
        second = collect(small_app, small_arch, jobs=1)
        assert canonical_stream(first.events) == canonical_stream(second.events)

    def test_events_tagged_in_submission_order(self, small_app, small_arch):
        tele = collect(small_app, small_arch, jobs=2)
        job_order = [e["job"] for e in tele.events]
        assert job_order == sorted(job_order)
        assert {e["tag"] for e in tele.events} == {"sa", "tabu", "tempering"}

    def test_engine_and_phase_data_present(self, small_app, small_arch):
        tele = collect(small_app, small_arch, jobs=1)
        kinds = {e["kind"] for e in tele.events}
        assert {"search_begin", "step", "search_end"} <= kinds
        assert tele.counters["iterations"] > 0
        assert tele.counters["evaluations"] > 0
        assert any(k.startswith("engine.") for k in tele.counters)
        assert {"propose_s", "evaluate_s", "accept_s"} <= set(tele.timers)


class TestFacadeTelemetry:
    def request(self, **overrides):
        base = dict(
            kind="single",
            application=ApplicationSpec(kind="builtin", name="motion"),
            architecture=ArchitectureSpec(kind="builtin", n_clbs=2000),
            strategy=StrategySpec("sa", {"keep_trace": False}),
            budget=BudgetSpec(iterations=120, warmup_iterations=20),
            engine=EngineSpec("incremental"),
            seed=1,
        )
        base.update(overrides)
        return ExplorationRequest(**base)

    def test_response_carries_summary_block(self):
        tele = Telemetry(label="facade")
        response = explore(self.request(), telemetry=tele)
        assert response.telemetry is not None
        assert response.telemetry["label"] == "facade"
        assert response.telemetry["events"] == len(tele.events)
        assert response.telemetry["counters"]["iterations"] == 120
        assert "telemetry" in response.to_dict()

    def test_envelope_unchanged_without_telemetry(self):
        response = explore(self.request())
        assert response.telemetry is None
        assert "telemetry" not in response.to_dict()

    def test_results_identical_with_and_without_telemetry(self):
        plain = explore(self.request())
        traced = explore(self.request(), telemetry=Telemetry())
        assert plain.best["cost"] == traced.best["cost"]
        assert plain.results[0]["history"] == traced.results[0]["history"]

    def test_jsonl_stream_validates(self, tmp_path):
        tele = Telemetry(label="facade")
        explore(self.request(), telemetry=tele)
        path = str(tmp_path / "stream.jsonl")
        tele.write_jsonl_path(path)
        from repro.obs.telemetry import load_events

        validate_events(load_events(path))


class TestTemperingTrace:
    def test_tempering_keeps_trace_through_tracker(self, small_app, small_arch):
        # Satellite of the telemetry PR: --trace-csv used to be wired
        # for the single-chain explorer only; the shared tracker trace
        # path now covers tempering too.
        instance = InstanceSpec(small_app, architecture=small_arch)
        spec = RunnerSpec("tempering", {
            "chains": 3, "iterations": 15, "warmup_iterations": 3,
            "keep_trace": True,
        })
        (outcome,) = run_search_jobs([SearchJob(spec, instance, seed=5)])
        trace = outcome.result.trace
        assert len(trace) == 15
        assert trace[0].iteration == 1
        from repro.sa.trace import write_csv
        import io

        buffer = io.StringIO()
        write_csv(trace, buffer)
        assert buffer.getvalue().count("\n") == 16  # header + rows


class TestNullOverhead:
    @pytest.mark.skipif(
        not hasattr(sys, "getallocatedblocks"),
        reason="needs CPython allocation accounting",
    )
    def test_disabled_hot_path_allocates_nothing(self):
        def hot_loop():
            for _ in range(1000):
                with NULL.phase("evaluate"):
                    pass
                NULL.count("iterations")
                NULL.count("accepted", 1)

        hot_loop()  # warm up shared objects / method caches
        # Interpreter internals (GC bookkeeping, lazy caches) can drift
        # by a couple of blocks between any two probes; a steady-state
        # zero-allocation loop reaches delta 0 on at least one trial.
        deltas = []
        for _ in range(5):
            before = sys.getallocatedblocks()
            hot_loop()
            deltas.append(sys.getallocatedblocks() - before)
        assert min(deltas) <= 0

    def test_strategies_default_to_null(self):
        from repro.search.strategy import SearchStrategy

        assert SearchStrategy.telemetry is NULL
        assert NULL.enabled is False
