"""The annealing engine (paper section 4.1).

The loop is deliberately plain: draw a move, realize it, score the new
solution by longest path, accept by the Metropolis criterion at the
schedule's current temperature, feed the outcome back to the adaptive
schedule.  The first ``warmup_iterations`` run at infinite temperature
(every feasible move is accepted) while cost statistics accumulate —
exactly the first 1200 iterations of the paper's Fig. 2 — after which
adaptive cooling starts.

The engine is *anytime*: iteration is exposed as a generator, so callers
can stop whenever they wish and keep the best solution so far (section
4: "it can be interrupted by the user at any time and will then return
the current solution").

Since the search-layer refactor, :class:`SimulatedAnnealing` implements
the :class:`~repro.search.strategy.SearchStrategy` protocol and returns
the shared :class:`~repro.search.strategy.SearchResult`; the
best/history/stall/runtime bookkeeping lives in the shared
:class:`~repro.search.strategy.SearchTracker`.  Only the genuinely
annealing-specific parts remain here: the Metropolis rule, the adaptive
schedule, the warmup phase, and Fig. 2's per-iteration trace.

The whole move-evaluate-undo loop routes through the pluggable
evaluation-engine layer (:mod:`repro.mapping.engine`): ``evaluator`` may
be an :class:`~repro.mapping.evaluator.Evaluator` facade or any
:class:`~repro.mapping.engine.EvaluationEngine`.
"""

from __future__ import annotations

import dataclasses
import math
import random
import time
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import ConfigurationError, InfeasibleMoveError
from repro.mapping.cost import CostFunction, MakespanCost
from repro.mapping.evaluator import Evaluator
from repro.mapping.solution import Solution, random_initial_solution
from repro.sa.moves import MoveGenerator, MoveStats
from repro.sa.schedules import CoolingSchedule, LamDelosmeSchedule
from repro.sa.trace import TraceRecord
from repro.search.strategy import (
    SearchBudget,
    SearchResult,
    SearchStrategy,
    SearchTracker,
    StepCallback,
)


def default_warmup(iterations: int) -> int:
    """The paper's 1200 warmup iterations (Fig. 2), scaled down so
    small ``iterations`` budgets keep ``warmup < iterations``.  The one
    formula shared by the CLI and the portfolio."""
    return max(0, min(1200, iterations // 4))


@dataclass
class AnnealerConfig:
    """Knobs of one annealing run.

    ``iterations`` counts every move draw (including infeasible ones),
    matching the x-axis of the paper's Fig. 2.  ``keep_trace`` disables
    per-iteration records for the 100-run sweeps of Fig. 3.
    """

    iterations: int = 5000
    warmup_iterations: int = 1200
    seed: Optional[int] = None
    keep_trace: bool = True
    #: Stop early when the best cost has not improved for this many
    #: iterations after cooling started (None = run the full budget).
    stall_limit: Optional[int] = None

    def validate(self) -> None:
        if self.iterations < 1:
            raise ConfigurationError("iterations must be >= 1")
        if not 0 <= self.warmup_iterations < self.iterations:
            raise ConfigurationError(
                "warmup_iterations must lie in [0, iterations)"
            )
        if self.stall_limit is not None and self.stall_limit < 1:
            raise ConfigurationError("stall_limit must be >= 1 or None")

    def with_budget(self, budget: Optional[SearchBudget]) -> "AnnealerConfig":
        """A copy with the budget's limits folded in (warmup clamped so
        the invariant ``warmup < iterations`` survives small budgets)."""
        if budget is None:
            return self
        budget.validate()
        iterations = budget.resolve_iterations(self.iterations)
        stall = (
            budget.stall_limit
            if budget.stall_limit is not None
            else self.stall_limit
        )
        warmup = min(self.warmup_iterations, iterations - 1)
        return dataclasses.replace(
            self, iterations=iterations, warmup_iterations=warmup,
            stall_limit=stall,
        )


class SimulatedAnnealing(SearchStrategy):
    """Adaptive simulated annealing over mapping solutions."""

    name = "sa"

    def __init__(
        self,
        evaluator: Evaluator,
        move_generator: MoveGenerator,
        schedule: Optional[CoolingSchedule] = None,
        cost_function: Optional[CostFunction] = None,
        config: Optional[AnnealerConfig] = None,
    ) -> None:
        self.evaluator = evaluator
        self.move_generator = move_generator
        self.schedule = schedule if schedule is not None else LamDelosmeSchedule()
        self.cost_function = cost_function if cost_function is not None else MakespanCost()
        self.config = config if config is not None else AnnealerConfig()
        self.config.validate()

    # ------------------------------------------------------------------
    def run(self, initial_solution: Solution) -> SearchResult:
        """Anneal to completion (or stall) and return the best solution."""
        return self.search(initial_solution)

    def search(
        self,
        initial: Optional[Solution] = None,
        budget: Optional[SearchBudget] = None,
        on_step: Optional[StepCallback] = None,
    ) -> SearchResult:
        """:class:`SearchStrategy` entry point (seeded random initial
        solution when none is given)."""
        if initial is None:
            initial = random_initial_solution(
                self.evaluator.application,
                self.evaluator.architecture,
                random.Random(self.config.seed),
            )
        result: Optional[SearchResult] = None
        for result in self.iterate(initial, budget=budget, on_step=on_step):
            pass
        assert result is not None
        return result

    def iterate(
        self,
        initial_solution: Solution,
        budget: Optional[SearchBudget] = None,
        on_step: Optional[StepCallback] = None,
    ) -> Iterator[SearchResult]:
        """Generator form: yields a running result every iteration.

        The yielded object is updated in place except for ``trace`` and
        ``best_solution`` (copied on improvement), so interrupting the
        loop at any point leaves a consistent best-so-far result.
        """
        config = self.config.with_budget(budget)
        config.validate()
        rng = random.Random(config.seed)
        solution = initial_solution
        tele = self.telemetry
        evaluations_before = self.evaluator.evaluations
        with tele.phase("init"):
            evaluation = self.evaluator.evaluate(solution)
            current_cost = self.cost_function(solution, evaluation)
        if not math.isfinite(current_cost):
            raise ConfigurationError("initial solution must be feasible")

        stats = MoveStats()
        tracker = SearchTracker(
            self.name,
            budget=SearchBudget(
                iterations=config.iterations,
                time_limit_s=budget.time_limit_s if budget is not None else None,
                stall_limit=config.stall_limit,
            ),
            seed=config.seed,
            on_step=on_step,
            keep_history=config.keep_trace,
            telemetry=tele,
        )
        result = tracker.result
        result.move_stats = stats
        tracker.begin(current_cost, solution)

        warmup_costs = [current_cost]
        cooling = False

        for iteration in range(1, config.iterations + 1):
            if not cooling and iteration > config.warmup_iterations:
                self.schedule.begin(warmup_costs)
                cooling = True

            accepted = False
            move_name = "none"
            try:
                with tele.phase("propose"):
                    move = self.move_generator.propose(solution, rng)
                    move_name = move.name
                    stats.record_proposed(move_name)
                    move.apply(solution)
            except InfeasibleMoveError:
                # Infeasible draws consume an iteration (the paper's
                # Fig. 2 x-axis counts them) but carry no thermal
                # information, so they feed neither the schedule nor the
                # stall counter.
                stats.record_infeasible(move_name)
                tracker.observe(
                    iteration, current_cost, solution,
                    accepted=False, move_name=move_name, stall_eligible=False,
                )
                self._record_trace(tracker, config, iteration, current_cost,
                                   result.best_cost, solution, False,
                                   move_name, cooling)
                yield result
                if tracker.exhausted():
                    break
                continue

            with tele.phase("evaluate"):
                evaluation = self.evaluator.evaluate(solution)
                new_cost = self.cost_function(solution, evaluation)

            with tele.phase("accept"):
                accepted = self._metropolis(current_cost, new_cost, cooling, rng)
                if accepted:
                    current_cost = new_cost
                    stats.record_accepted(move_name)
                else:
                    move.undo(solution)
                    stats.record_rejected(move_name)

            tracker.observe(
                iteration, current_cost, solution,
                accepted=accepted, move_name=move_name,
                stall_eligible=cooling,
            )

            if not cooling:
                warmup_costs.append(current_cost)
            else:
                self.schedule.record(current_cost, accepted)

            self._record_trace(tracker, config, iteration, current_cost,
                               result.best_cost, solution, accepted,
                               move_name, cooling)
            yield result

            if tracker.exhausted():
                break

        tracker.record_engine(self.evaluator)
        tracker.finish(
            evaluations=self.evaluator.evaluations - evaluations_before,
        )

    # ------------------------------------------------------------------
    def _metropolis(
        self, current: float, candidate: float, cooling: bool, rng: random.Random
    ) -> bool:
        if not math.isfinite(candidate):
            return False  # cyclic realization: always reject
        delta = candidate - current
        if delta <= 0:
            return True
        if not cooling:
            return True  # infinite-temperature warmup accepts everything
        temperature = self.schedule.temperature
        if temperature <= 0:
            return False
        return rng.random() < math.exp(-delta / temperature)

    def _record_trace(
        self,
        tracker: SearchTracker,
        config: AnnealerConfig,
        iteration: int,
        current_cost: float,
        best_cost: float,
        solution: Solution,
        accepted: bool,
        move_name: str,
        cooling: bool,
    ) -> None:
        if config.keep_trace:
            tracker.record_trace(
                TraceRecord(
                    iteration=iteration,
                    temperature=self.schedule.temperature if cooling else math.inf,
                    current_cost=current_cost,
                    best_cost=best_cost,
                    num_contexts=solution.num_contexts(),
                    accepted=accepted,
                    move_name=move_name,
                )
            )
