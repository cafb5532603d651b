"""Tests for the annealing loop, driven as plain SA (one chain)."""

import math
import random

import pytest

from repro.errors import ConfigurationError
from repro.mapping.solution import Solution, random_initial_solution
from repro.sa.annealer import AnnealerConfig, SimulatedAnnealing
from repro.sa.explorer import DesignSpaceExplorer
from repro.sa.moves import MoveGenerator


def make_annealer(app, arch, **config_kwargs):
    defaults = dict(iterations=400, warmup_iterations=100, seed=1)
    defaults.update(config_kwargs)
    annealer = DesignSpaceExplorer(app, arch, **defaults)
    annealer.move_generator = MoveGenerator(app, p_impl=0.15, p_offload=0.15)
    return annealer


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AnnealerConfig(iterations=0).validate()
        with pytest.raises(ConfigurationError):
            AnnealerConfig(iterations=10, warmup_iterations=10).validate()
        with pytest.raises(ConfigurationError):
            AnnealerConfig(iterations=10, stall_limit=0).validate()

    def test_simulated_annealing_is_removed(self, small_app, small_arch):
        with pytest.raises(TypeError, match="DesignSpaceExplorer"):
            SimulatedAnnealing(small_app, small_arch)


class TestRun:
    def test_improves_over_initial(self, small_app, small_arch):
        annealer = make_annealer(small_app, small_arch)
        rng = random.Random(0)
        initial = random_initial_solution(small_app, small_arch, rng)
        initial_cost = annealer.evaluator.makespan_ms(initial)
        result = annealer.search(initial)
        assert result.best_cost <= initial_cost
        assert result.iterations_run == 400
        result.best_solution.validate()

    def test_best_solution_feasible_and_scored_correctly(
        self, small_app, small_arch
    ):
        annealer = make_annealer(small_app, small_arch)
        rng = random.Random(3)
        initial = random_initial_solution(small_app, small_arch, rng)
        result = annealer.search(initial)
        check = annealer.evaluator.evaluate(result.best_solution)
        assert check.feasible
        assert check.makespan_ms == pytest.approx(result.best_cost)

    def test_trace_recorded(self, small_app, small_arch):
        annealer = make_annealer(small_app, small_arch)
        initial = random_initial_solution(
            small_app, small_arch, random.Random(0)
        )
        result = annealer.search(initial)
        assert len(result.trace) == 400
        assert result.trace[0].iteration == 1
        # warmup iterations report infinite temperature
        assert math.isinf(result.trace[50].temperature)
        assert not math.isinf(result.trace[-1].temperature)

    def test_trace_disabled(self, small_app, small_arch):
        annealer = make_annealer(small_app, small_arch, keep_trace=False)
        initial = random_initial_solution(
            small_app, small_arch, random.Random(0)
        )
        result = annealer.search(initial)
        assert result.trace == []

    def test_deterministic_for_seed(self, small_app, small_arch):
        results = []
        for _ in range(2):
            annealer = make_annealer(small_app, small_arch, seed=7)
            initial = random_initial_solution(
                small_app, small_arch, random.Random(7)
            )
            results.append(annealer.search(initial).best_cost)
        assert results[0] == results[1]

    def test_infeasible_initial_rejected(self, small_app, small_arch):
        annealer = make_annealer(small_app, small_arch)
        bad = Solution(small_app, small_arch)
        bad.assign_to_processor(1, "cpu")  # order violates 0 -> 1
        bad.assign_to_processor(0, "cpu")
        for t in (2, 3, 4, 5):
            bad.assign_to_processor(t, "cpu")
        with pytest.raises(ConfigurationError):
            annealer.search(bad)

    def test_stall_limit_stops_early(self, small_app, small_arch):
        annealer = make_annealer(
            small_app, small_arch, iterations=2000, warmup_iterations=50,
            stall_limit=100,
        )
        initial = random_initial_solution(
            small_app, small_arch, random.Random(1)
        )
        result = annealer.search(initial)
        assert result.iterations_run < 2000


class TestAnytime:
    def test_iterate_yields_running_result(self, small_app, small_arch):
        annealer = make_annealer(small_app, small_arch)
        initial = random_initial_solution(
            small_app, small_arch, random.Random(2)
        )
        seen = 0
        for result in annealer.iterate(initial):
            seen += 1
            if seen == 37:
                break
        assert result.iterations_run == 37
        result.best_solution.validate()
        assert math.isfinite(result.best_cost)

    def test_interrupted_best_is_consistent(self, small_app, small_arch):
        annealer = make_annealer(small_app, small_arch)
        initial = random_initial_solution(
            small_app, small_arch, random.Random(2)
        )
        for result in annealer.iterate(initial):
            if result.iterations_run >= 150:
                break
        check = annealer.evaluator.evaluate(result.best_solution)
        assert check.makespan_ms == pytest.approx(result.best_cost)


class TestMotionEndToEnd:
    def test_meets_deadline_on_2000_clbs(self, motion_app, epicure):
        """Integration: a full run lands under the 40 ms constraint."""
        annealer = DesignSpaceExplorer(
            motion_app, epicure, iterations=6000, warmup_iterations=1000,
            seed=3, keep_trace=False,
        )
        initial = random_initial_solution(
            motion_app, epicure, random.Random(3)
        )
        result = annealer.search(initial)
        assert result.best_cost < 40.0
        ev = annealer.evaluator.evaluate(result.best_solution)
        assert ev.feasible and ev.num_contexts >= 1
