"""Solution evaluation (paper section 4.4).

After each move the performance of the new solution is the longest path
of the realized search graph.  The evaluator also decomposes the result
the way the paper's Fig. 3 reports it: execution time = reconfiguration
time (initial + dynamic) + computation and communication time.

Since the engine refactor this class is a thin facade over the pluggable
evaluation engines of :mod:`repro.mapping.engine`: ``engine="full"``
(default) rebuilds the search graph per candidate exactly as the
original implementation did, ``engine="incremental"`` (or its alias
``"array"``) routes through the delta-sync fast path with a persistent
longest-path DP.  Both produce bit-identical makespans (enforced by
``tests/mapping/test_engine_parity.py``).
"""

from __future__ import annotations

from typing import Union

from repro.arch.architecture import Architecture
from repro.mapping.engine import (
    ENGINES,
    Evaluation,
    EvaluationEngine,
    INFEASIBLE_MS,
    make_engine,
)
from repro.mapping.search_graph import SearchGraph
from repro.mapping.solution import Solution
from repro.model.application import Application

__all__ = ["Evaluation", "Evaluator", "INFEASIBLE_MS", "ENGINES"]


class Evaluator:
    """Realizes and scores candidate solutions.

    ``bus_policy="ordered"`` (default) serializes shared-bus transfers
    as the paper's transaction order requires; ``"edge"`` charges
    transfer times on the precedence edges without bus exclusiveness
    (the ablation in ``benchmarks/test_ablation_bus.py``).

    ``engine`` selects the evaluation strategy: ``"full"`` (reference
    semantics, rebuild per candidate), ``"incremental"`` (fast path;
    ``"array"`` is the same engine), or an already-constructed
    :class:`~repro.mapping.engine.EvaluationEngine` instance.
    """

    def __init__(
        self,
        application: Application,
        architecture: Architecture,
        bus_policy: str = "ordered",
        engine: Union[str, EvaluationEngine] = "full",
    ) -> None:
        self.application = application
        self.architecture = architecture
        if isinstance(engine, EvaluationEngine):
            self.engine = engine
        else:
            self.engine = make_engine(engine, application, architecture, bus_policy)
        #: Kept for backward compatibility: the reference search-graph
        #: builder (every engine carries one for ``realize``).
        self.builder = self.engine.builder

    @property
    def engine_name(self) -> str:
        return self.engine.name

    @property
    def bus_policy(self) -> str:
        return self.engine.bus_policy

    @property
    def evaluations(self) -> int:
        """Number of evaluations performed (exposed for benchmarks)."""
        return self.engine.evaluations

    @evaluations.setter
    def evaluations(self, value: int) -> None:
        self.engine.evaluations = value

    def telemetry_counters(self):
        """The engine's internal counters (see
        :meth:`repro.mapping.engine.EvaluationEngine.telemetry_counters`)."""
        return self.engine.telemetry_counters()

    # ------------------------------------------------------------------
    def realize(self, solution: Solution) -> SearchGraph:
        """Build the search graph without computing its longest path."""
        return self.engine.realize(solution)

    def evaluate(self, solution: Solution, strict: bool = False) -> Evaluation:
        """Score ``solution``; cyclic realizations yield an infeasible
        evaluation (``makespan = inf``) unless ``strict`` re-raises."""
        return self.engine.evaluate(solution, strict=strict)

    def makespan_ms(self, solution: Solution) -> float:
        """Shortcut: longest path only (hot path of the annealer)."""
        return self.engine.makespan_ms(solution)
