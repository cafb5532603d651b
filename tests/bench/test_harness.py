"""BenchCase harness: timing, registry, suite execution."""

import pytest

from repro.bench import suites  # noqa: F401  (registers the cases)
from repro.bench.harness import (
    BenchContext,
    FunctionCase,
    context_for_suite,
    list_cases,
    run_case,
    run_suite,
    timing_stats,
)
from repro.errors import ConfigurationError


def make_case(fn, **kwargs):
    kwargs.setdefault("name", "test/case")
    return FunctionCase(fn=fn, **kwargs)


class TestContext:
    def test_suite_defaults(self):
        quick = context_for_suite("quick")
        full = context_for_suite("full")
        assert quick.evals < full.evals
        assert quick.iterations < full.iterations

    def test_overrides(self):
        context = context_for_suite("quick", jobs=4, evals=7)
        assert context.jobs == 4
        assert context.evals == 7
        # None overrides fall back to the suite default
        assert context.iterations == context_for_suite("quick").iterations

    def test_unknown_suite(self):
        with pytest.raises(ConfigurationError):
            context_for_suite("weekly")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BenchContext(jobs=0).validate()
        with pytest.raises(ConfigurationError):
            BenchContext(repeats=0).validate()


class TestTimingStats:
    def test_median_and_iqr(self):
        median, iqr = timing_stats([1.0, 2.0, 3.0, 4.0, 5.0])
        assert median == 3.0
        assert iqr == pytest.approx(2.0)

    def test_single_sample(self):
        median, iqr = timing_stats([2.5])
        assert median == 2.5
        assert iqr == 0.0


class TestRunCase:
    def test_counts_and_metrics(self):
        calls = []

        def fn(context, state):
            calls.append(state)
            return {"value": 42, "evaluations": 100, "report": "hello"}

        case = make_case(fn, setup=lambda context: "prepared")
        context = BenchContext(repeats=3, warmup=2)
        result = run_case(case, context)
        assert len(calls) == 5  # 2 warmup + 3 timed
        assert all(state == "prepared" for state in calls)
        assert len(result.timings_s) == 3
        assert result.metrics == {"value": 42, "evaluations": 100}
        assert result.report == "hello"  # stripped from metrics
        assert result.evals_per_sec is not None
        assert result.evals_per_sec == pytest.approx(
            100 / result.median_s, rel=1e-9
        )

    def test_no_evaluations_no_counter(self):
        case = make_case(lambda context, state: {"value": 1})
        result = run_case(case, BenchContext(repeats=1, warmup=0))
        assert result.evals_per_sec is None

    def test_profile_dump(self):
        case = make_case(lambda context, state: {"v": sum(range(100))})
        result = run_case(
            case, BenchContext(repeats=1, warmup=0), profile=True
        )
        assert result.profile is not None
        assert "cumulative" in result.profile
        # Without the flag no profiling run happens.
        result = run_case(case, BenchContext(repeats=1, warmup=0))
        assert result.profile is None


class TestRegistry:
    def test_quick_is_subset_of_full(self):
        quick = {case.name for case in list_cases(suite="quick")}
        full = {case.name for case in list_cases(suite="full")}
        assert quick <= full

    def test_pattern_filter(self):
        cases = list_cases(pattern="throughput/motion")
        assert cases
        assert all("throughput/motion" in case.name for case in cases)

    def test_unknown_scenario_reference_rejected(self):
        from repro.bench.harness import register_case

        case = make_case(
            lambda context, state: {},
            name="test/bad-scenario",
            scenarios=("no/such",),
        )
        with pytest.raises(ConfigurationError):
            register_case(case)


class TestRunSuite:
    def test_empty_selection_rejected(self):
        with pytest.raises(ConfigurationError):
            run_suite("quick", pattern="nothing-matches-this")

    def test_tiny_throughput_slice(self):
        context = context_for_suite(
            "quick", evals=10, repeats=1, warmup=0
        )
        suite_run = run_suite(
            "quick", context, pattern="throughput/tgff/12"
        )
        assert len(suite_run.results) == 2  # full + incremental
        engines = {
            result.metrics["engine"] for result in suite_run.results
        }
        assert engines == {"full", "incremental"}
        descriptor = suite_run.scenarios["tgff/12"]
        assert descriptor["num_tasks"] == 12
        assert len(descriptor["hash"]) == 64

    def test_multiseed_search_case_through_runner(self):
        context = context_for_suite(
            "quick", evals=10, iterations=60, runs=2, repeats=1,
            warmup=0, jobs=2,
        )
        suite_run = run_suite(
            "quick", context, pattern="search/sa_multiseed@motion/2000"
        )
        (result,) = suite_run.results
        assert result.metrics["runs"] == 2
        assert result.metrics["evaluations"] > 0
        assert result.metrics["best_cost_min"] <= (
            result.metrics["best_cost_mean"]
        )
