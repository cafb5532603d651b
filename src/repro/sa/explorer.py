"""High-level design-space exploration tool — the paper's user-facing API.

:class:`DesignSpaceExplorer` wires together the application model, the
architecture, the evaluator, the move generator and the adaptive
annealer, reproducing the tool of the paper: give it an application and
an architecture, call :meth:`run`, read off the best mapping, its
schedule, and the iteration trace (Fig. 2's data).

The annealer is the library's one annealing loop
(:class:`~repro.sa.population.PopulationAnnealer`) at one chain with
replica exchange off; the explorer adds its own move generator, which
draws the m3/m4 architecture moves when ``p_zero > 0``, and the
:class:`~repro.mapping.evaluator.Evaluator` facade over the chain's
engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.arch.architecture import Architecture
from repro.arch.resource import Resource
from repro.mapping.cost import CostFunction
from repro.mapping.evaluator import Evaluation, Evaluator
from repro.mapping.schedule import Schedule, extract_schedule
from repro.mapping.solution import Solution, random_initial_solution
from repro.sa.moves import MoveGenerator
from repro.sa.population import PopulationAnnealer
from repro.sa.trace import TraceRecord
from repro.search.strategy import SearchBudget, SearchResult, StepCallback


@dataclass
class ExplorationResult:
    """Everything an exploration run produces."""

    best_solution: Solution
    best_evaluation: Evaluation
    initial_evaluation: Evaluation
    annealing: SearchResult

    @property
    def trace(self) -> List[TraceRecord]:
        return self.annealing.trace

    @property
    def runtime_s(self) -> float:
        return self.annealing.runtime_s

    def schedule(self, evaluator: Evaluator) -> Schedule:
        graph = evaluator.realize(self.best_solution)
        return extract_schedule(self.best_solution, graph)


class DesignSpaceExplorer(PopulationAnnealer):
    """The paper's exploration tool: adaptive SA on one chain.

    Parameters
    ----------
    application, architecture:
        The problem instance.  The architecture is mutated only when
        ``p_zero > 0`` (architecture exploration through m3/m4).
    schedule_name:
        ``"lam"`` (default, the adaptive statistical schedule),
        ``"modified_lam"`` or ``"geometric"``.
    cost_function:
        Defaults to :class:`MakespanCost` (the paper's fixed-architecture
        criterion); pass :class:`~repro.mapping.cost.SystemCost` together
        with ``p_zero > 0`` and a catalog for architecture exploration.
    bus_policy:
        ``"ordered"`` (transaction serialization, default) or ``"edge"``.
    engine:
        Evaluation engine: ``"full"`` (reference rebuild-per-candidate)
        or ``"incremental"`` (delta-sync with a persistent longest-path
        DP; ``"array"`` is an alias).  Same makespans bit-for-bit either
        way.  See :mod:`repro.mapping.engine`.
    """

    name = "sa"

    def __init__(
        self,
        application,
        architecture: Architecture,
        iterations: int = 5000,
        warmup_iterations: int = 1200,
        seed: Optional[int] = None,
        schedule_name: str = "lam",
        schedule_kwargs: Optional[dict] = None,
        cost_function: Optional[CostFunction] = None,
        p_zero: float = 0.0,
        p_impl: float = 0.15,
        catalog: Optional[Sequence[Callable[[str], Resource]]] = None,
        bus_policy: str = "ordered",
        keep_trace: bool = True,
        stall_limit: Optional[int] = None,
        initial_hw_fraction: Optional[float] = None,
        engine: str = "full",
    ) -> None:
        super().__init__(
            application,
            architecture,
            chains=1,
            iterations=iterations,
            warmup_iterations=warmup_iterations,
            seed=seed,
            schedule_name=schedule_name,
            schedule_kwargs=schedule_kwargs,
            cost_function=cost_function,
            bus_policy=bus_policy,
            keep_trace=keep_trace,
            stall_limit=stall_limit,
            initial_hw_fraction=initial_hw_fraction,
            swap_interval=None,
            engine=engine,
        )
        self.evaluator = Evaluator(
            application, architecture, bus_policy, engine=self.engines[0]
        )
        self.move_generator = MoveGenerator(
            application, p_zero=p_zero, p_impl=p_impl, catalog=catalog
        )

    # ------------------------------------------------------------------
    def initial_solution(self) -> Solution:
        rng = random.Random(self.seed)
        return random_initial_solution(
            self.application,
            self.architecture,
            rng,
            hw_fraction=self.initial_hw_fraction,
        )

    def run(self, initial: Optional[Solution] = None) -> ExplorationResult:
        """Run the full iteration budget and return the best mapping."""
        annealing = self.search(initial)
        return ExplorationResult(
            best_solution=annealing.best_solution,
            best_evaluation=annealing.extras["best_evaluation"],
            initial_evaluation=annealing.extras["initial_evaluation"],
            annealing=annealing,
        )

    def search(
        self,
        initial: Optional[Solution] = None,
        budget: Optional[SearchBudget] = None,
        on_step: Optional[StepCallback] = None,
    ) -> SearchResult:
        """:class:`~repro.search.strategy.SearchStrategy` form of
        :meth:`run`: the unified result, with the full evaluations of
        the best and initial solutions in ``extras``.

        The override exists only to evaluate the initial solution once
        before the loop evaluates it again: SA's ``engine.*`` telemetry
        counters have always included that extra evaluation, and it
        keeps them as they were (:meth:`run_interruptible` does the
        same).  The benchmark harness's tracer also wraps this method
        by name."""
        solution = initial if initial is not None else self.initial_solution()
        initial_evaluation = self.evaluator.evaluate(solution)
        annealing = super().search(solution, budget=budget, on_step=on_step)
        annealing.extras["initial_evaluation"] = initial_evaluation
        return annealing

    def run_interruptible(
        self,
        stop: Callable[[SearchResult], bool],
        initial: Optional[Solution] = None,
    ) -> ExplorationResult:
        """Anytime variant: ``stop`` is polled after every iteration.

        Demonstrates the paper's "can be interrupted by the user at any
        time and will then return the current solution".
        """
        solution = initial if initial is not None else self.initial_solution()
        initial_evaluation = self.evaluator.evaluate(solution)
        for annealing in self.iterate(solution):
            if stop(annealing):
                break
        return ExplorationResult(
            best_solution=annealing.best_solution,
            best_evaluation=self.evaluator.evaluate(annealing.best_solution),
            initial_evaluation=initial_evaluation,
            annealing=annealing,
        )
