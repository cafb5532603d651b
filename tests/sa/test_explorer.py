"""Tests for the high-level DesignSpaceExplorer API."""

import pytest

from repro.arch.architecture import epicure_architecture
from repro.arch.asic import Asic
from repro.arch.processor import Processor
from repro.errors import ConfigurationError
from repro.mapping.cost import SystemCost
from repro.model.motion import motion_detection_application
from repro.obs.telemetry import Telemetry
from repro.sa.explorer import DesignSpaceExplorer


class TestBasicRun:
    def test_end_to_end_small(self, small_app, small_arch):
        explorer = DesignSpaceExplorer(
            small_app, small_arch, iterations=300, warmup_iterations=60,
            seed=5,
        )
        result = explorer.run()
        assert result.best_evaluation.feasible
        assert (
            result.best_evaluation.makespan_ms
            <= result.initial_evaluation.makespan_ms
        )
        assert result.runtime_s > 0.0
        assert len(result.trace) == 300

    def test_schedule_extraction(self, small_app, small_arch):
        explorer = DesignSpaceExplorer(
            small_app, small_arch, iterations=200, warmup_iterations=50,
            seed=2,
        )
        result = explorer.run()
        schedule = result.schedule(explorer.evaluator)
        assert schedule.makespan_ms == pytest.approx(
            result.best_evaluation.makespan_ms
        )

    def test_custom_schedule_name(self, small_app, small_arch):
        for name in ("lam", "modified_lam", "geometric"):
            explorer = DesignSpaceExplorer(
                small_app, small_arch, iterations=150, warmup_iterations=30,
                seed=1, schedule_name=name,
            )
            result = explorer.run()
            assert result.best_evaluation.feasible

    def test_bad_schedule_name(self, small_app, small_arch):
        with pytest.raises(ConfigurationError):
            DesignSpaceExplorer(
                small_app, small_arch, schedule_name="volcanic"
            )

    @pytest.mark.parametrize("engine", ["full", "incremental"])
    def test_initial_solution_is_evaluated_once(self, engine):
        """The loop's first step is the only evaluation of the initial
        solution, so the engine counts exactly the run's evaluations
        (before the final evaluation of the best solution)."""
        explorer = DesignSpaceExplorer(
            motion_detection_application(), epicure_architecture(2000),
            iterations=1500, warmup_iterations=300, seed=1, engine=engine,
        )
        explorer.telemetry = tele = Telemetry(label="test")
        result = explorer.search()
        assert tele.counters["engine.evaluations"] == result.evaluations
        assert tele.counters["evaluations"] == result.evaluations
        initial = result.extras["initial_evaluation"]
        assert initial == explorer.evaluator.evaluate(
            explorer.initial_solution()
        )


class TestInterruptible:
    def test_stop_predicate(self, small_app, small_arch):
        explorer = DesignSpaceExplorer(
            small_app, small_arch, iterations=5000, warmup_iterations=100,
            seed=4,
        )
        result = explorer.run_interruptible(
            stop=lambda r: r.iterations_run >= 123
        )
        assert result.annealing.iterations_run == 123
        assert result.best_evaluation.feasible


class TestArchitectureExploration:
    def test_m3_m4_with_system_cost(self, small_app, small_arch):
        """The paper's general mode: explore the resource set itself."""
        catalog = [
            lambda name: Processor(name, monetary_cost=1.0),
            lambda name: Asic(name, monetary_cost=5.0),
        ]
        explorer = DesignSpaceExplorer(
            small_app,
            small_arch,
            iterations=600,
            warmup_iterations=100,
            seed=9,
            p_zero=0.1,
            catalog=catalog,
            cost_function=SystemCost(deadline_ms=30.0, penalty_per_ms=10.0),
        )
        result = explorer.run()
        assert result.best_evaluation.feasible
        result.best_solution.validate()
        # the best architecture still contains at least one processor
        assert result.best_solution.architecture.processors()
