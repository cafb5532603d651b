"""Greedy hill climbing: the zero-temperature ablation of the annealer.

Shares the annealer's move space but accepts only strict improvements.
Included so the schedule ablation (``test_ablation_schedules.py``) can
show what the temperature actually buys.  Implements the unified
:class:`~repro.search.strategy.SearchStrategy` protocol; the loop
bookkeeping lives in the shared tracker.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.errors import ConfigurationError, InfeasibleMoveError
from repro.mapping.evaluator import Evaluator
from repro.mapping.solution import Solution, random_initial_solution
from repro.sa.moves import MoveGenerator
from repro.search.strategy import (
    SearchBudget,
    SearchResult,
    SearchStrategy,
    SearchTracker,
    StepCallback,
)


class HillClimber(SearchStrategy):
    """First-improvement stochastic hill climbing.

    ``evaluator`` may be an :class:`Evaluator` facade or any
    :class:`~repro.mapping.engine.EvaluationEngine` — the climber only
    needs ``makespan_ms``, so it shares whichever engine (full rebuild
    or incremental fast path) the caller selected.
    """

    name = "hill_climber"

    def __init__(
        self,
        evaluator: Evaluator,
        move_generator: MoveGenerator,
        iterations: int = 5000,
        seed: Optional[int] = None,
    ) -> None:
        if iterations < 1:
            raise ConfigurationError("iterations must be >= 1")
        self.evaluator = evaluator
        self.move_generator = move_generator
        self.iterations = iterations
        self.seed = seed

    def run(self, initial_solution: Solution) -> SearchResult:
        return self.search(initial_solution)

    def search(
        self,
        initial: Optional[Solution] = None,
        budget: Optional[SearchBudget] = None,
        on_step: Optional[StepCallback] = None,
    ) -> SearchResult:
        rng = random.Random(self.seed)
        if initial is None:
            initial = random_initial_solution(
                self.evaluator.application, self.evaluator.architecture, rng
            )
        solution = initial
        iterations = (
            budget.resolve_iterations(self.iterations)
            if budget is not None else self.iterations
        )
        tele = self.telemetry
        evaluations_before = self.evaluator.evaluations
        with tele.phase("init"):
            current_cost = self.evaluator.makespan_ms(solution)
        tracker = SearchTracker(
            self.name, budget=budget, seed=self.seed, on_step=on_step,
            telemetry=tele,
        )
        tracker.begin(current_cost, solution)
        for iteration in range(1, iterations + 1):
            accepted = False
            move_name = ""
            try:
                with tele.phase("propose"):
                    move = self.move_generator.propose(solution, rng)
                    move_name = move.name
                    move.apply(solution)
            except InfeasibleMoveError:
                tracker.observe(iteration, current_cost, solution,
                                accepted=False, stall_eligible=False)
                if tracker.exhausted():
                    break
                continue
            with tele.phase("evaluate"):
                cost = self.evaluator.makespan_ms(solution)
            with tele.phase("accept"):
                if cost < current_cost:
                    current_cost = cost
                    accepted = True
                else:
                    move.undo(solution)
            tracker.observe(iteration, current_cost, solution,
                            accepted=accepted, move_name=move_name)
            if tracker.exhausted():
                break
        tracker.record_engine(self.evaluator)
        return tracker.finish(
            evaluations=self.evaluator.evaluations - evaluations_before,
        )
