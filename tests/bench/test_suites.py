"""Registered suites: coverage of the acceptance axes + spot execution."""

import pytest

from repro.bench import get_scenario
from repro.bench.harness import (
    CASE_REGISTRY,
    context_for_suite,
    get_case,
    list_cases,
    run_case,
)


class TestCoverage:
    def test_quick_suite_spans_the_acceptance_axes(self):
        """>= 12 scenarios, >= 4 topology families, both engines —
        the acceptance criteria of the benchmark subsystem."""
        quick = list_cases(suite="quick")
        scenarios = {name for case in quick for name in case.scenarios}
        assert len(scenarios) >= 12
        families = {get_scenario(name).family for name in scenarios}
        assert len(families) >= 4
        throughput = [
            case for case in quick if case.name.startswith("throughput/")
        ]
        assert {case.name.rsplit("@", 1)[1] for case in throughput} == {
            "full", "incremental",
        }

    def test_every_historical_script_has_a_case(self):
        """The 14 bench_*.py scripts' measurement bodies live here."""
        expected = {
            "ablation/bus", "ablation/impls", "ablation/reconfig",
            "ablation/schedules", "analysis/combinatorics",
            "experiment/arch_exploration", "experiment/comparison",
            "experiment/fig2_trace", "experiment/fig3_sweep",
            "experiment/pareto_front", "experiment/quality_knob",
            "kernel/solution_evaluation", "runner/parallel_scaling",
        }
        assert expected <= set(CASE_REGISTRY)

    def test_heavy_cases_run_once(self):
        for name in ("experiment/fig3_sweep", "runner/parallel_scaling",
                     "experiment/comparison"):
            case = get_case(name)
            assert case.repeats_cap == 1
            assert case.warmup_cap == 0
            assert case.suites == ("full",)


class TestExecution:
    @pytest.fixture(scope="class")
    def tiny(self):
        return context_for_suite(
            "quick", evals=10, iterations=60, runs=2, repeats=1, warmup=0
        )

    def test_throughput_case(self, tiny):
        result = run_case(get_case("throughput/series_parallel/24@incremental"), tiny)
        assert result.metrics["evaluations"] == 10
        assert result.metrics["final_makespan_ms"] > 0
        assert result.evals_per_sec > 0

    def test_engines_agree_on_final_makespan(self, tiny):
        full = run_case(get_case("throughput/fork_join/24@full"), tiny)
        inc = run_case(get_case("throughput/fork_join/24@incremental"), tiny)
        assert (
            full.metrics["final_makespan_ms"]
            == inc.metrics["final_makespan_ms"]
        ), "engine parity must hold inside the bench loop"

    def test_rc_layout_micro_case(self, tiny):
        result = run_case(get_case("micro/rc_layout_realization"), tiny)
        assert result.metrics["evaluations"] == tiny.evals
        assert result.metrics["flippable_tasks"] > 0
        assert result.evals_per_sec > 0

    def test_combinatorics_case_exact_numbers(self, tiny):
        result = run_case(get_case("analysis/combinatorics"), tiny)
        assert result.metrics["total_orders"] == 348_840
        assert result.report is not None

    def test_service_cache_hit_case_counts_one_hit(self, tiny):
        result = run_case(get_case("service/cache_hit@motion"), tiny)
        assert result.metrics["cold_status"] == "queued"
        assert result.metrics["warm_status"] == "hit"
        assert result.metrics["executions"] == 1
        assert result.metrics["cache_hits"] == 1

    def test_reconfig_ablation_tiny(self, tiny):
        """The runner-ported ablation executes end-to-end (2 modes x 2
        seeds through run_search_jobs)."""
        result = run_case(get_case("ablation/reconfig"), tiny)
        rows = result.metrics["rows"]
        assert set(rows) == {"partial", "full"}
        for row in rows.values():
            assert row["exec_mean"] > 0
