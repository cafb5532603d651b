"""Integration tests for the experiment harness (small budgets).

These do not reproduce the paper's statistics (``benchmarks/test_*.py``
do); they check the harness runs end to end and reports internally
consistent numbers.
"""

import pytest

from repro.analysis.sweep import smallest_feasible_device
from repro.experiments.ablations import (
    SCHEDULE_ABLATION_HEADER,
    format_reconfig_ablation,
    run_bus_ablation,
    run_impl_ablation,
    run_reconfig_ablation,
    run_schedule_ablation,
)
from repro.experiments.comparison import run_comparison
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import format_fig3_table, run_fig3


class TestFig2:
    def test_short_run_structure(self):
        result = run_fig2(iterations=1500, warmup_iterations=400, seed=2)
        assert len(result.trace) == 1500
        lo, hi = result.warmup_spread()
        assert hi > lo  # the infinite-T phase really wanders
        assert result.final_evaluation.feasible
        series = result.series()
        assert series[0][0] == 1 and series[-1][0] == 1500
        text = result.format_summary()
        assert "frozen solution" in text

    def test_full_run_meets_constraint(self):
        result = run_fig2(iterations=6000, warmup_iterations=1000, seed=7)
        assert result.final_evaluation.makespan_ms < result.deadline_ms
        assert result.iterations_to_deadline() is not None
        assert result.final_evaluation.num_contexts >= 1


class TestFig3:
    def test_tiny_sweep(self):
        rows = run_fig3(
            sizes=(400, 2000), runs=2, iterations=1200, warmup_iterations=300
        )
        assert [r.n_clbs for r in rows] == [400, 2000]
        for row in rows:
            assert row.execution_ms > 0
            assert row.num_contexts >= 0
            assert 0.0 <= row.feasible_fraction <= 1.0
        text = format_fig3_table(rows)
        assert "NCLB" in text

    def test_smallest_feasible_device_helper(self):
        rows = run_fig3(sizes=(2000,), runs=1)  # converged default budget
        assert smallest_feasible_device(rows) == 2000


class TestComparison:
    def test_small_budgets(self):
        result = run_comparison(
            sa_iterations=1500,
            sa_warmup=300,
            ga_population=16,
            ga_generations=3,
            seed=5,
        )
        assert result.sa_makespan_ms > 0
        assert result.ga_makespan_ms > 0
        assert result.ga_evaluations > 16
        text = result.format_table()
        assert "adaptive SA" in text and "GA" in text


class TestParetoFront:
    def test_points_and_formatting(self):
        from repro.experiments.pareto import (
            format_pareto_table,
            run_pareto_front,
        )

        points = run_pareto_front(
            deadlines_ms=(80.0,), iterations=1200, warmup=300
        )
        assert len(points) == 1
        assert points[0].deadline_ms == 80.0
        assert points[0].monetary_cost >= 1.0
        text = format_pareto_table(points)
        assert "deadline" in text


class TestAblations:
    def test_schedule_ablation_rows(self):
        rows = run_schedule_ablation(
            iterations=800, warmup=200, runs=2, seed0=1
        )
        methods = [r.method for r in rows]
        assert methods == [
            "lam", "modified_lam", "geometric", "hill_climb", "random_search",
        ]
        for row in rows:
            assert row.makespan.n == 2
            assert row.format_row()
        assert "mean" in SCHEDULE_ABLATION_HEADER

    def test_impl_ablation_modes(self):
        results = run_impl_ablation(iterations=800, warmup=200, runs=2)
        assert set(results) == {"free", "smallest", "fastest"}

    def test_bus_ablation_policies(self):
        results = run_bus_ablation(iterations=600, warmup=150, runs=2)
        assert set(results) == {"ordered", "edge"}

    def test_reconfig_ablation_modes(self):
        rows = run_reconfig_ablation(iterations=300, warmup=60, runs=2)
        assert list(rows) == ["partial", "full"]
        for row in rows.values():
            assert row["exec_mean"] > 0
            assert row["reconfig_mean"] >= 0
            assert row["contexts_mean"] >= 0
        assert "partial" in format_reconfig_ablation(rows)
