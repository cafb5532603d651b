"""Registered suites: coverage of the acceptance axes + spot execution."""

import pytest

from repro.bench import suites  # noqa: F401  (registers the cases)
from repro.bench.corpus import get_scenario
from repro.bench.harness import (
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
