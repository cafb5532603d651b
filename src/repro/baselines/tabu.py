"""Tabu search over the same move space as the annealer.

The paper's conclusion contrasts its tuning-free adaptive annealing with
tabu search, which "requires tuning ... (tabu list sizes)".  This
implementation makes the comparison concrete: best-of-``k`` candidate
moves per iteration, a recency-based tabu list keyed by the moved task,
and an aspiration criterion (a tabu move is allowed when it improves on
the best cost seen).

Implements the unified :class:`~repro.search.strategy.SearchStrategy`
protocol; ``history`` is the shared best-so-far curve (the raw
current-cost walk, which tabu allows to worsen, is in
``extras["current_costs"]``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ConfigurationError, InfeasibleMoveError
from repro.mapping.evaluator import Evaluator
from repro.mapping.solution import Solution, random_initial_solution
from repro.sa.moves import (
    CreateResourceMove,
    ImplementationMove,
    Move,
    MoveGenerator,
    OffloadMove,
    ReassignMove,
    ReorderMove,
    RemoveResourceMove,
)
from repro.search.strategy import (
    SearchBudget,
    SearchResult,
    SearchStrategy,
    SearchTracker,
    StepCallback,
)


@dataclass
class TabuConfig:
    iterations: int = 2000
    candidates_per_iteration: int = 8
    tabu_tenure: int = 25
    seed: Optional[int] = None

    def validate(self) -> None:
        if self.iterations < 1:
            raise ConfigurationError("iterations must be >= 1")
        if self.candidates_per_iteration < 1:
            raise ConfigurationError("candidates_per_iteration must be >= 1")
        if self.tabu_tenure < 0:
            raise ConfigurationError("tabu_tenure must be >= 0")


def _moved_task(move: Move) -> Optional[int]:
    """The task whose placement a move changes (tabu attribute)."""
    if isinstance(move, (ReorderMove, ReassignMove, ImplementationMove,
                         OffloadMove, CreateResourceMove)):
        return move.task
    if isinstance(move, RemoveResourceMove):
        return move.dest_task
    return None


class TabuSearch(SearchStrategy):
    """Best-candidate tabu search sharing the annealer's moves.

    ``evaluator`` may be an :class:`Evaluator` facade or any
    :class:`~repro.mapping.engine.EvaluationEngine`; tabu's
    candidate-probing loop (apply, score, undo, best candidate wins) is
    exactly the access pattern the incremental engine's delta-patching
    is built for.
    """

    name = "tabu"

    def __init__(
        self,
        evaluator: Evaluator,
        move_generator: MoveGenerator,
        config: Optional[TabuConfig] = None,
    ) -> None:
        self.evaluator = evaluator
        self.move_generator = move_generator
        self.config = config if config is not None else TabuConfig()
        self.config.validate()

    def run(self, initial_solution: Solution) -> SearchResult:
        return self.search(initial_solution)

    def search(
        self,
        initial: Optional[Solution] = None,
        budget: Optional[SearchBudget] = None,
        on_step: Optional[StepCallback] = None,
    ) -> SearchResult:
        config = self.config
        rng = random.Random(config.seed)
        if initial is None:
            initial = random_initial_solution(
                self.evaluator.application, self.evaluator.architecture, rng
            )
        solution = initial
        iterations = (
            budget.resolve_iterations(config.iterations)
            if budget is not None else config.iterations
        )
        tele = self.telemetry
        evaluations_before = self.evaluator.evaluations
        with tele.phase("init"):
            current_cost = self.evaluator.makespan_ms(solution)
        tracker = SearchTracker(
            self.name, budget=budget, seed=config.seed, on_step=on_step,
            telemetry=tele,
        )
        tracker.begin(current_cost, solution)
        current_costs: List[float] = [current_cost]
        tabu_until: Dict[int, int] = {}

        for iteration in range(1, iterations + 1):
            best_move: Optional[Move] = None
            best_move_cost = math.inf
            best_move_name = ""
            with tele.phase("evaluate"):
                for _ in range(config.candidates_per_iteration):
                    try:
                        move = self.move_generator.propose(solution, rng)
                        move.apply(solution)
                    except InfeasibleMoveError:
                        continue
                    cost = self.evaluator.makespan_ms(solution)
                    move.undo(solution)
                    task = _moved_task(move)
                    is_tabu = (
                        task is not None
                        and tabu_until.get(task, 0) >= iteration
                    )
                    if is_tabu and cost >= tracker.result.best_cost:
                        continue  # aspiration criterion
                    if cost < best_move_cost:
                        best_move, best_move_cost = move, cost
                        best_move_name = move.name
            if best_move is None:
                current_costs.append(current_cost)
                tracker.observe(iteration, current_cost, solution,
                                accepted=False, stall_eligible=False)
                if tracker.exhausted():
                    break
                continue
            with tele.phase("accept"):
                best_move.apply(solution)
                current_cost = best_move_cost
                task = _moved_task(best_move)
                if task is not None:
                    tabu_until[task] = iteration + config.tabu_tenure
            current_costs.append(current_cost)
            tracker.observe(iteration, current_cost, solution,
                            accepted=True, move_name=best_move_name)
            if tracker.exhausted():
                break

        tracker.record_engine(self.evaluator)
        return tracker.finish(
            evaluations=self.evaluator.evaluations - evaluations_before,
            current_costs=current_costs,
        )
