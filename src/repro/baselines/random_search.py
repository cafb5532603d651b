"""Random restart search: the weakest sensible baseline.

Draws independent random initial solutions and keeps the best — a
useful floor for judging how much structure the annealer's moves and
schedule actually exploit.  Implements the unified
:class:`~repro.search.strategy.SearchStrategy` protocol; ``iterations``
count samples (``result.samples`` is the historical alias).
"""

from __future__ import annotations

import random
from typing import Optional, Union

from repro.arch.architecture import Architecture
from repro.errors import ConfigurationError
from repro.mapping.engine import EvaluationEngine
from repro.mapping.evaluator import Evaluator
from repro.mapping.solution import Solution, random_initial_solution
from repro.model.application import Application
from repro.search.strategy import (
    SearchBudget,
    SearchResult,
    SearchStrategy,
    SearchTracker,
    StepCallback,
)


class RandomSearch(SearchStrategy):
    """Best of N independent random solutions.

    ``evaluator`` may be omitted, in which case one is built from
    ``bus_policy`` and ``engine`` (``"full"`` or ``"incremental"``) —
    the same evaluation-engine knob every other searcher exposes.
    """

    name = "random"

    def __init__(
        self,
        application: Application,
        architecture: Architecture,
        evaluator: Optional[Evaluator] = None,
        samples: int = 200,
        seed: Optional[int] = None,
        bus_policy: str = "ordered",
        engine: Union[str, EvaluationEngine] = "full",
    ) -> None:
        if samples < 1:
            raise ConfigurationError("samples must be >= 1")
        self.application = application
        self.architecture = architecture
        if evaluator is None:
            evaluator = Evaluator(
                application, architecture, bus_policy, engine=engine
            )
        self.evaluator = evaluator
        self.samples = samples
        self.seed = seed

    def run(self) -> SearchResult:
        return self.search()

    def search(
        self,
        initial: Optional[Solution] = None,
        budget: Optional[SearchBudget] = None,
        on_step: Optional[StepCallback] = None,
    ) -> SearchResult:
        """Sample to the budget.  ``initial``, when given, is scored as
        the first candidate (it costs one sample)."""
        rng = random.Random(self.seed)
        samples = (
            budget.resolve_iterations(self.samples)
            if budget is not None else self.samples
        )
        tele = self.telemetry
        evaluations_before = self.evaluator.evaluations
        tracker = SearchTracker(
            self.name, budget=budget, seed=self.seed, on_step=on_step,
            telemetry=tele,
        )
        tracker.begin()
        for sample in range(1, samples + 1):
            with tele.phase("propose"):
                if sample == 1 and initial is not None:
                    candidate = initial
                else:
                    candidate = random_initial_solution(
                        self.application, self.architecture, rng
                    )
            with tele.phase("evaluate"):
                cost = self.evaluator.makespan_ms(candidate)
            tracker.observe(sample, cost, candidate, copy=False)
            if tracker.exhausted():
                break
        assert tracker.result.best_solution is not None
        tracker.record_engine(self.evaluator)
        return tracker.finish(
            evaluations=self.evaluator.evaluations - evaluations_before,
        )
