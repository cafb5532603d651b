"""Façade tests: spec-driven runs are bit-identical to legacy wiring.

The acceptance bar of the API redesign: a single ``ExplorationRequest``
JSON file reproduces — same seeds, bit-for-bit — runs that previously
required hand-assembled constructors, for every request kind.
"""

import json

import pytest

from repro.api.facade import ExplorationResponse, explore
from repro.api.specs import (
    ApplicationSpec,
    ArchitectureSpec,
    BudgetSpec,
    EngineSpec,
    ExplorationRequest,
    StrategySpec,
    load_request,
)
from repro.errors import ConfigurationError
from repro.io import application_to_dict, solution_to_dict
from repro.model.generator import GeneratorConfig, random_application
from tests.conftest import RACE_DIVISORS, assert_racers_stopped_early


ITER, WARMUP = 250, 50


def small_request(**overrides):
    base = dict(
        kind="single",
        application=ApplicationSpec(kind="builtin", name="motion"),
        architecture=ArchitectureSpec(kind="builtin", n_clbs=2000),
        strategy=StrategySpec("sa", {"keep_trace": False}),
        budget=BudgetSpec(iterations=ITER, warmup_iterations=WARMUP),
        engine=EngineSpec("incremental"),
        seed=1,
    )
    base.update(overrides)
    return ExplorationRequest(**base)


def result_fingerprint(result):
    """Everything that must match bit-for-bit between two runs."""
    return (
        result.best_cost,
        result.final_cost,
        result.iterations_run,
        list(result.history),
        solution_to_dict(result.best_solution),
    )


class TestSingleEquivalence:
    def test_matches_direct_explorer(self):
        from repro.arch.architecture import epicure_architecture
        from repro.model.motion import motion_detection_application
        from repro.sa.explorer import DesignSpaceExplorer

        response = explore(small_request())
        direct = DesignSpaceExplorer(
            motion_detection_application(),
            epicure_architecture(n_clbs=2000),
            iterations=ITER,
            warmup_iterations=WARMUP,
            seed=1,
            keep_trace=False,
            engine="incremental",
        ).search()
        assert result_fingerprint(response.best_result) == result_fingerprint(direct)

    def test_spec_file_reproduces_in_memory_run(self, tmp_path):
        request = small_request()
        path = tmp_path / "run.json"
        path.write_text(request.to_json())
        from_file = explore(load_request(str(path)))
        in_memory = explore(request)
        assert (
            result_fingerprint(from_file.best_result)
            == result_fingerprint(in_memory.best_result)
        )
        assert from_file.best["solution"] == in_memory.best["solution"]


class TestEngineOptionsAreInert:
    def test_persisted_array_options_match_the_incremental_engine(self):
        """``"array"`` with the engine options persisted specs may carry
        runs exactly what the option-free ``"incremental"`` request runs."""
        from repro.obs.telemetry import strip_times

        def sections(engine):
            response = explore(small_request(
                strategy=StrategySpec(
                    "tempering", {"chains": 3, "keep_trace": False}
                ),
                engine=engine,
            ))
            return strip_times({
                "results": response.results, "best": response.best,
            })

        assert sections(EngineSpec(
            "array", {"dispatch": "kernel", "kernel_batch_min_work": 0}
        )) == sections(EngineSpec("incremental"))


class TestBatchEquivalence:
    def test_matches_direct_runner_and_parallel(self):
        from repro.arch.architecture import epicure_architecture
        from repro.model.motion import motion_detection_application
        from repro.search.runner import (
            InstanceSpec,
            SearchJob,
            StrategySpec as RunnerSpec,
            run_search_jobs,
        )

        request = small_request(kind="batch", seeds=(3, 5, 9))
        sequential = explore(request, jobs=1)
        parallel = explore(request, jobs=2)
        # the legacy hand-assembled wiring
        spec = RunnerSpec("sa", {
            "iterations": ITER,
            "warmup_iterations": WARMUP,
            "keep_trace": False,
            "engine": "incremental",
        })
        instance = InstanceSpec(
            motion_detection_application(),
            architecture=epicure_architecture(n_clbs=2000),
        )
        direct = run_search_jobs(
            [SearchJob(spec, instance, seed=s) for s in (3, 5, 9)]
        )
        for response in (sequential, parallel):
            assert [
                result_fingerprint(o.result) for o in response.outcomes
            ] == [result_fingerprint(o.result) for o in direct]
        assert sequential.summary == parallel.summary

    def test_checkpoint_resume_identical(self, tmp_path):
        request = small_request(kind="batch", runs=2, seed=7)
        path = str(tmp_path / "batch.jsonl")
        fresh = explore(request, checkpoint_path=path)
        resumed = explore(request, checkpoint_path=path)
        assert all(r["from_checkpoint"] for r in resumed.results)
        assert [r["best_cost"] for r in fresh.results] == [
            r["best_cost"] for r in resumed.results
        ]


class TestPortfolioEquivalence:
    def test_matches_run_portfolio(self):
        from repro.arch.architecture import epicure_architecture
        from repro.model.motion import motion_detection_application
        from repro.search.portfolio import run_portfolio

        request = small_request(kind="portfolio", seed=3)
        response = explore(request, jobs=2)
        direct = run_portfolio(
            motion_detection_application(),
            architecture=epicure_architecture(n_clbs=2000),
            iterations=ITER,
            seed=3,
            engine="incremental",
            warmup_iterations=WARMUP,
        )
        assert [e.kind for e in response.entries] == [e.kind for e in direct]
        assert [e.best_cost for e in response.entries] == [
            e.best_cost for e in direct
        ]
        assert response.summary["winner"] == direct[0].kind

    def test_records_come_from_the_shared_helpers(self, tmp_path):
        """A fresh race's envelope is the one earlier versions wrote (its
        digest was taken before the records went through
        ``_result_record`` and ``_best_record``), and a re-run on the
        race's checkpoint says its racers were restored."""
        import hashlib

        request = ExplorationRequest(
            kind="portfolio", portfolio_kinds=("sa", "hill_climber", "random"),
            budget=BudgetSpec(iterations=120, warmup_iterations=30), seed=4,
        )
        checkpoint = str(tmp_path / "race.jsonl")
        fresh = json.loads(explore(request, checkpoint_path=checkpoint).to_json())
        for record in fresh["results"]:
            assert list(record) == [
                "tag", "seed", "strategy", "best_cost", "final_cost",
                "iterations_run", "runtime_s", "evaluations",
                "from_checkpoint", "evaluation", "history",
            ]
            assert record["from_checkpoint"] is False
            del record["runtime_s"]
        assert list(fresh["best"]) == [
            "index", "tag", "seed", "cost", "evaluation", "solution",
        ]
        assert fresh["best"]["index"] == 0
        body = {key: fresh[key]
                for key in ("kind", "request", "results", "best", "summary")}
        digest = hashlib.sha256(
            json.dumps(body, sort_keys=True).encode()).hexdigest()
        assert digest[:16] == "a067c29fb815a05f"

        restored = explore(request, checkpoint_path=checkpoint)
        assert [r["from_checkpoint"] for r in restored.results] == [True] * 3
        assert restored.best == fresh["best"]

    def test_subset_of_kinds(self):
        request = small_request(
            kind="portfolio", portfolio_kinds=("sa", "random"), seed=2
        )
        response = explore(request)
        assert sorted(r["tag"] for r in response.results) == ["random", "sa"]


class TestSweepEquivalence:
    def test_matches_legacy_wiring_and_run_device_sweep(self):
        from repro.analysis.sweep import _aggregate_rows, run_device_sweep
        from repro.model.generator import GeneratorConfig
        from repro.search.runner import (
            InstanceSpec,
            SearchJob,
            StrategySpec as RunnerSpec,
            best_evaluation_of,
            run_search_jobs,
        )

        application = random_application(
            GeneratorConfig(num_tasks=8), seed=2, name="sweep8"
        )
        sizes, runs, seed0 = (300, 600), 2, 3
        request = ExplorationRequest(
            kind="sweep",
            application=ApplicationSpec(
                kind="inline", document=application_to_dict(application),
            ),
            strategy=StrategySpec("sa", {"keep_trace": False}),
            budget=BudgetSpec(iterations=120, warmup_iterations=30),
            engine=EngineSpec("full"),
            seed=seed0,
            runs=runs,
            sizes=sizes,
        )
        response = explore(request, jobs=2)

        # the pre-redesign wiring, replicated verbatim
        spec = RunnerSpec("sa", {
            "iterations": 120,
            "warmup_iterations": 30,
            "keep_trace": False,
            "engine": "full",
        })
        job_list = [
            SearchJob(
                spec,
                InstanceSpec(application, n_clbs=n_clbs),
                seed=seed0 + 1000 * r + n_clbs,
                tag=[n_clbs, r],
            )
            for n_clbs in sizes
            for r in range(runs)
        ]
        outcomes = run_search_jobs(job_list)
        legacy_rows = _aggregate_rows(
            sizes, runs,
            {
                (o.tag[0], o.tag[1]): best_evaluation_of(o.result)
                for o in outcomes
            },
            40.0,
        )
        assert response.rows == legacy_rows  # frozen dataclass equality

        helper_rows = run_device_sweep(
            application, sizes=sizes, runs=runs, iterations=120,
            warmup_iterations=30, seed0=seed0, engine="full",
        )
        assert helper_rows == legacy_rows

    def test_summary_rows_mirror_dataclasses(self):
        request = ExplorationRequest(
            kind="sweep",
            sizes=(400,),
            runs=1,
            budget=BudgetSpec(iterations=150, warmup_iterations=30),
            seed=1,
        )
        response = explore(request)
        row = response.summary["rows"][0]
        assert row["n_clbs"] == response.rows[0].n_clbs
        assert row["execution_ms"] == response.rows[0].execution_ms
        assert response.summary["deadline_ms"] == 40.0


class TestResponseEnvelope:
    def test_json_round_trip(self):
        response = explore(small_request())
        document = json.loads(response.to_json())
        assert document["format"] == "exploration-response"
        clone = ExplorationResponse.from_json(response.to_json())
        assert clone.best == response.best
        assert clone.results == response.results
        assert clone.summary == response.summary

    def test_disk_round_trip_is_byte_exact(self, tmp_path):
        # The service's cache serves persisted envelopes verbatim, so a
        # save/load/save cycle must reproduce the file byte for byte —
        # per-seed stats, best-so-far history and all.
        from repro.api.facade import load_response

        response = explore(small_request(
            kind="batch", seeds=(1, 2),
            strategy=StrategySpec("sa", {"keep_trace": True}),
        ))
        assert response.results[0]["history"]  # history survives
        assert response.summary["runs"] == 2  # per-seed stats survive
        path = str(tmp_path / "response.json")
        written = response.save(path)
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == written
        clone = load_response(path)
        assert clone.to_json() == written
        # and the cycle is a fixed point, not just a one-shot match
        path2 = str(tmp_path / "again.json")
        assert clone.save(path2) == written

    def test_disk_round_trip_with_telemetry_block(self, tmp_path):
        from repro.api.facade import load_response
        from repro.obs.telemetry import Telemetry

        response = explore(small_request(), telemetry=Telemetry(label="t"))
        assert response.telemetry is not None
        path = str(tmp_path / "response.json")
        written = response.save(path)
        clone = load_response(path)
        assert clone.telemetry == response.telemetry
        assert clone.to_json() == written

    def test_load_response_missing_file(self, tmp_path):
        from repro.api.facade import load_response

        with pytest.raises(ConfigurationError, match="cannot read"):
            load_response(str(tmp_path / "absent.json"))

    def test_best_solution_document_reloads(self):
        from repro.arch.architecture import epicure_architecture
        from repro.io import solution_from_dict
        from repro.model.motion import motion_detection_application

        response = explore(small_request())
        solution = solution_from_dict(
            response.best["solution"],
            motion_detection_application(),
            epicure_architecture(n_clbs=2000),
        )
        solution.validate()

    def test_environment_stamp_present(self):
        response = explore(small_request())
        assert response.environment["repro_version"]
        assert response.environment["python"]

    def test_wrong_format_rejected(self):
        with pytest.raises(ConfigurationError, match="exploration-response"):
            ExplorationResponse.from_dict({"format": "bench-results"})

    def test_invalid_jobs(self):
        with pytest.raises(ConfigurationError, match="jobs"):
            explore(small_request(), jobs=0)


class TestDeadlineVerdict:
    def test_deadline_met_uses_makespan_not_cost(self):
        # Under a SystemCost the scalar cost is money + penalty; a tiny
        # cost must not read as "deadline met" when the makespan misses.
        response = explore(small_request(
            strategy=StrategySpec(
                "sa",
                {"keep_trace": False},
                cost={"kind": "system", "deadline_ms": 1.0,
                      "penalty_per_ms": 0.001},
            ),
            deadline_ms=1.0,
        ))
        assert response.best["evaluation"]["makespan_ms"] > 1.0
        assert response.summary["deadline_met"] is False


class TestBudgetLimits:
    def test_stall_limit_stops_early(self):
        limited = explore(small_request(
            budget=BudgetSpec(
                iterations=ITER, warmup_iterations=WARMUP, stall_limit=10,
            ),
        ))
        assert limited.results[0]["iterations_run"] < ITER

    def test_time_limit_applies_to_any_strategy(self):
        response = explore(small_request(
            strategy=StrategySpec("random"),
            budget=BudgetSpec(iterations=100000, time_limit_s=0.2),
        ))
        assert response.results[0]["iterations_run"] < 100000

    def test_time_limit_stops_every_portfolio_racer(self):
        response = explore(small_request(
            kind="portfolio",
            budget=BudgetSpec(iterations=20000, time_limit_s=0.05),
        ))
        assert_racers_stopped_early(response.results, 20000)

    def test_stall_limit_stops_every_portfolio_racer(self):
        response = explore(small_request(
            kind="portfolio",
            budget=BudgetSpec(
                iterations=10000, warmup_iterations=50, stall_limit=10,
            ),
        ))
        assert_racers_stopped_early(response.results, 10000)

    def test_racer_stall_limit_counts_evaluations(self):
        """A racer whose unit costs several evaluations stalls after
        the same number of evaluations as the annealer, so it stops
        before ``stall_limit`` of its own units."""
        response = explore(small_request(
            kind="portfolio",
            budget=BudgetSpec(
                iterations=20000, warmup_iterations=100, stall_limit=40,
            ),
        ))
        runs = {r["tag"]: r["iterations_run"] for r in response.results}
        for kind in ("ga", "tabu", "random"):
            assert 20000 // RACE_DIVISORS[kind] > 40
            assert runs[kind] < 40, (kind, runs)
