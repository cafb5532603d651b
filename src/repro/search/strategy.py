"""The strategy layer: one vocabulary for every searcher.

Before this module existed, the annealer, hill climber, tabu search,
genetic partitioner and random search each reimplemented the same
draw/evaluate/accept/track loop behind incompatible config and result
types.  Now they share:

* :class:`SearchBudget` — iteration, wall-clock and stall limits;
* :class:`SearchResult` — best solution + cost, monotone best-so-far
  ``history``, iteration count, runtime, and per-strategy ``extras``;
* :class:`SearchTracker` — the best/history/stall/wall-clock bookkeeping
  every loop needs, maintained in place so results stay *anytime*
  (interrupt the strategy and the tracker's result is consistent);
* :class:`SearchStrategy` — the protocol itself: ``search(initial)``.

The per-iteration step hook (:class:`SearchStep` passed to ``on_step``)
is how tracing and progress UIs observe a run without the strategy
knowing about them.
"""

from __future__ import annotations

import abc
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.mapping.solution import Solution
from repro.obs.telemetry import NULL


@dataclass(frozen=True)
class SearchBudget:
    """Uniform stopping criteria: whichever limit trips first wins.

    ``iterations`` counts the strategy's natural unit (move draws for
    the neighborhood searchers, generations for the GA, samples for
    random search).  ``time_limit_s`` is wall-clock; ``stall_limit``
    stops after that many consecutive non-improving steps.  ``None``
    disables a limit.
    """

    iterations: Optional[int] = None
    time_limit_s: Optional[float] = None
    stall_limit: Optional[int] = None

    def validate(self) -> None:
        if self.iterations is not None and self.iterations < 1:
            raise ConfigurationError("budget iterations must be >= 1")
        if self.time_limit_s is not None and self.time_limit_s <= 0:
            raise ConfigurationError("budget time_limit_s must be > 0")
        if self.stall_limit is not None and self.stall_limit < 1:
            raise ConfigurationError("budget stall_limit must be >= 1")

    def resolve_iterations(self, default: int) -> int:
        """The iteration budget, falling back to a strategy default."""
        return default if self.iterations is None else self.iterations


@dataclass(frozen=True)
class SearchStep:
    """One iteration as seen by the step callback."""

    iteration: int
    current_cost: float
    best_cost: float
    accepted: bool
    move_name: str = ""


StepCallback = Callable[[SearchStep], None]


@dataclass
class SearchResult:
    """The single result vocabulary shared by every strategy.

    ``iterations_run`` counts the strategy's natural iteration unit
    (exposed through the :attr:`samples` / :attr:`generations_run`
    aliases for the strategies whose historical APIs used those names).
    ``history`` is the best-so-far cost after each iteration (monotone
    non-increasing); strategies may disable it for bulk sweeps.
    ``extras`` carries per-strategy payloads (SA's ``trace`` and
    ``move_stats`` mirror the dedicated fields; the GA stores its
    ``best_evaluation``).
    """

    best_solution: Optional[Solution] = None
    best_cost: float = math.inf
    strategy: str = ""
    final_cost: float = math.inf
    iterations_run: int = 0
    runtime_s: float = 0.0
    seed: Optional[int] = None
    evaluations: int = 0
    history: List[float] = field(default_factory=list)
    trace: List[Any] = field(default_factory=list)
    move_stats: Optional[Any] = None
    extras: Dict[str, Any] = field(default_factory=dict)

    # -- historical aliases -------------------------------------------
    @property
    def samples(self) -> int:
        """Random search's historical name for ``iterations_run``."""
        return self.iterations_run

    @property
    def generations_run(self) -> int:
        """The GA's historical name for ``iterations_run``."""
        return self.iterations_run

    @property
    def best_evaluation(self) -> Any:
        """Full :class:`~repro.mapping.engine.Evaluation` of the best
        solution, when the strategy computed one (``extras``)."""
        return self.extras.get("best_evaluation")


class SearchTracker:
    """Shared loop bookkeeping: best/so-far, history, stall, wall clock.

    The tracker owns a :class:`SearchResult` that it updates *in place*
    on every :meth:`observe`, which is what makes every ported strategy
    anytime: interrupting the loop leaves ``tracker.result`` consistent
    (``best_solution`` is copied on improvement).
    """

    def __init__(
        self,
        strategy: str,
        budget: Optional[SearchBudget] = None,
        seed: Optional[int] = None,
        on_step: Optional[StepCallback] = None,
        keep_history: bool = True,
        telemetry=None,
    ) -> None:
        self.budget = budget if budget is not None else SearchBudget()
        self.budget.validate()
        self.on_step = on_step
        self.keep_history = keep_history
        #: Telemetry recorder (:data:`repro.obs.telemetry.NULL` when
        #: disabled).  Hot-path emissions are guarded by ``.enabled`` so
        #: the disabled case does no payload construction at all.
        self.telemetry = telemetry if telemetry is not None else NULL
        self.result = SearchResult(strategy=strategy, seed=seed)
        self.stall = 0
        self._started = time.perf_counter()

    # ------------------------------------------------------------------
    def begin(self, cost: Optional[float] = None,
              solution: Optional[Solution] = None) -> None:
        """Record the initial state (omit ``cost`` for strategies with
        no meaningful initial solution, e.g. random sampling).

        The wall clock starts at tracker *construction*, so work a
        strategy does before ``begin`` (e.g. scoring a GA's initial
        population) counts toward ``runtime_s``.
        """
        if cost is not None:
            self.result.best_cost = cost
            self.result.final_cost = cost
            if solution is not None:
                self.result.best_solution = solution.copy()
            if self.keep_history:
                self.result.history.append(cost)
        tele = self.telemetry
        if tele.enabled:
            tele.event(
                "search_begin",
                strategy=self.result.strategy,
                seed=self.result.seed,
                iterations=self.budget.iterations,
                initial_cost=cost,
            )

    def observe(
        self,
        iteration: int,
        cost: float,
        solution: Optional[Solution] = None,
        accepted: bool = True,
        move_name: str = "",
        copy: bool = True,
        stall_eligible: bool = True,
    ) -> bool:
        """Fold one iteration into the running result.

        Returns ``True`` when ``cost`` improves on the best so far (the
        solution, if given, is then captured — copied unless the caller
        hands over ownership with ``copy=False``).  ``stall_eligible``
        lets strategies exclude iterations that carry no progress
        information (SA's warmup and infeasible draws) from stall
        counting.
        """
        result = self.result
        result.iterations_run = iteration
        result.final_cost = cost
        result.runtime_s = time.perf_counter() - self._started
        improved = cost < result.best_cost
        if improved:
            result.best_cost = cost
            if solution is not None:
                result.best_solution = solution.copy() if copy else solution
            self.stall = 0
        elif stall_eligible:
            self.stall += 1
        if self.keep_history:
            result.history.append(result.best_cost)
        if self.on_step is not None:
            self.on_step(SearchStep(
                iteration=iteration,
                current_cost=cost,
                best_cost=result.best_cost,
                accepted=accepted,
                move_name=move_name,
            ))
        tele = self.telemetry
        if tele.enabled:
            tele.count("iterations")
            if accepted:
                tele.count("accepted_moves")
            if improved:
                tele.count("improvements")
            interval = tele.step_interval
            if interval and iteration % interval == 0:
                tele.event(
                    "step",
                    iteration=iteration,
                    cost=cost,
                    best_cost=result.best_cost,
                    accepted=accepted,
                    move=move_name,
                )
        return improved

    def exhausted(self) -> bool:
        """True once the wall-clock or stall budget has tripped (the
        iteration budget is the caller's loop range)."""
        budget = self.budget
        if budget.stall_limit is not None and self.stall >= budget.stall_limit:
            return True
        if (
            budget.time_limit_s is not None
            and time.perf_counter() - self._started >= budget.time_limit_s
        ):
            return True
        return False

    def finish(
        self,
        best_solution: Optional[Solution] = None,
        evaluations: Optional[int] = None,
        **extras: Any,
    ) -> SearchResult:
        """Seal the result (final runtime, optional late-bound fields)."""
        result = self.result
        result.runtime_s = time.perf_counter() - self._started
        if best_solution is not None:
            result.best_solution = best_solution
        if evaluations is not None:
            result.evaluations = evaluations
        result.extras.update(extras)
        tele = self.telemetry
        if tele.enabled:
            tele.count("evaluations", result.evaluations)
            tele.event(
                "search_end",
                strategy=result.strategy,
                seed=result.seed,
                best_cost=result.best_cost,
                final_cost=result.final_cost,
                iterations=result.iterations_run,
                evaluations=result.evaluations,
                runtime_s=result.runtime_s,
            )
        return result

    # ------------------------------------------------------------------
    def record_trace(self, record: Any) -> None:
        """Append one Fig. 2-style :class:`~repro.sa.trace.TraceRecord`
        to ``result.trace`` — the trace path of the one annealing loop,
        which ``"sa"`` and ``"tempering"`` share (``--trace-csv`` reads
        ``result.trace``)."""
        self.result.trace.append(record)

    def record_engine(self, source: Any) -> None:
        """Sample an engine's / evaluator's internal counters into the
        telemetry recorder (prefix ``engine.``); a no-op when telemetry
        is disabled or ``source`` exposes no counters."""
        tele = self.telemetry
        if not tele.enabled or source is None:
            return
        counters = getattr(source, "telemetry_counters", None)
        if counters is not None:
            tele.counts(counters(), prefix="engine.")


class SearchStrategy(abc.ABC):
    """The protocol every searcher implements.

    ``search(initial)`` runs the strategy to completion (or budget
    exhaustion) and returns a :class:`SearchResult`.  ``initial`` may be
    ``None``: neighborhood strategies then draw a seeded random initial
    solution; population/sampling strategies that generate their own
    starting points ignore it.
    """

    #: Stable identifier, also the ``StrategySpec.kind`` registry key.
    name: ClassVar[str] = "?"

    #: Telemetry recorder the strategy feeds (class default: the shared
    #: disabled singleton).  The runner assigns a per-job recorder on
    #: the built instance before calling :meth:`search`; strategies pass
    #: it to their :class:`SearchTracker`.
    telemetry = NULL

    @abc.abstractmethod
    def search(
        self,
        initial: Optional[Solution] = None,
        budget: Optional[SearchBudget] = None,
        on_step: Optional[StepCallback] = None,
    ) -> SearchResult:
        """Run the search and return the unified result."""
