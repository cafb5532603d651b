"""Experiment E1 — the paper's Fig. 2.

A single exploration run on the motion-detection application with a
2000-CLB device: plot execution time and number of contexts against the
iteration index.  Paper narrative to reproduce:

* the initial random solution violates the 40 ms constraint;
* the first 1200 iterations run at infinite temperature, broadly
  exploring (execution time bouncing over a wide range, contexts
  varying) with no average improvement;
* once adaptive cooling starts, execution time falls quickly below the
  40 ms constraint;
* the frozen final configuration sits well below the constraint with a
  small number of contexts (paper: 18.1 ms, 3 contexts).

Since the ``repro.api`` redesign the run is a thin spec builder: one
single-run :class:`~repro.api.specs.ExplorationRequest` with
``keep_trace`` on, executed through :func:`repro.api.facade.explore`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis.plot import plot_trace
from repro.api.facade import explore
from repro.api.specs import (
    ApplicationSpec,
    ArchitectureSpec,
    BudgetSpec,
    EngineSpec,
    ExplorationRequest,
    StrategySpec,
)
from repro.mapping.evaluator import Evaluation
from repro.model.motion import MOTION_DEADLINE_MS
from repro.sa.trace import TraceRecord, downsample
from repro.search.strategy import SearchResult


@dataclass
class Fig2Result:
    """Trace and summary of the Fig. 2 run."""

    result: SearchResult
    deadline_ms: float
    warmup_iterations: int

    @property
    def trace(self) -> List[TraceRecord]:
        return self.result.trace

    @property
    def final_evaluation(self) -> Evaluation:
        return self.result.extras["best_evaluation"]

    @property
    def initial_evaluation(self) -> Evaluation:
        return self.result.extras["initial_evaluation"]

    @property
    def iterations_run(self) -> int:
        return self.result.iterations_run

    @property
    def runtime_s(self) -> float:
        return self.result.runtime_s

    def series(self) -> List[Tuple[int, float, int]]:
        """(iteration, execution time, number of contexts) — the two
        curves of Fig. 2."""
        return [
            (r.iteration, r.current_cost, r.num_contexts) for r in self.trace
        ]

    def warmup_spread(self) -> Tuple[float, float]:
        """(min, max) execution time during the infinite-T phase."""
        warmup = [
            r.current_cost
            for r in self.trace
            if r.iteration <= self.warmup_iterations
        ]
        return (min(warmup), max(warmup))

    def context_range(self) -> Tuple[int, int]:
        counts = [r.num_contexts for r in self.trace]
        return (min(counts), max(counts))

    def iterations_to_deadline(self) -> Optional[int]:
        """First iteration whose current solution meets the deadline."""
        for r in self.trace:
            if r.current_cost <= self.deadline_ms:
                return r.iteration
        return None

    def format_summary(self) -> str:
        ev = self.final_evaluation
        lo, hi = self.warmup_spread()
        cmin, cmax = self.context_range()
        hit = self.iterations_to_deadline()
        lines = [
            "Fig. 2 — evolution of execution time and number of contexts",
            f"  initial solution: {self.initial_evaluation.makespan_ms:.1f} ms "
            f"({self.initial_evaluation.num_contexts} contexts)",
            f"  infinite-T phase: first {self.warmup_iterations} iterations, "
            f"execution time in [{lo:.1f}, {hi:.1f}] ms",
            f"  contexts explored: {cmin}..{cmax}",
            f"  deadline ({self.deadline_ms:.0f} ms) first met at iteration: {hit}",
            f"  frozen solution: {ev.makespan_ms:.2f} ms, {ev.num_contexts} contexts, "
            f"{ev.hw_tasks} hw tasks, reconfig {ev.initial_reconfig_ms:.2f}+"
            f"{ev.dynamic_reconfig_ms:.2f} ms",
            f"  run time: {self.runtime_s:.2f} s "
            f"({self.iterations_run} iterations)",
        ]
        return "\n".join(lines)

    def format_report(self) -> str:
        """The summary, an ASCII plot of the trace and about 40 of its
        samples as a table."""
        table = [f"{'iteration':>10} {'exec (ms)':>10} {'contexts':>9}"]
        every = max(len(self.trace) // 40, 1)
        for record in downsample(self.trace, every=every):
            table.append(
                f"{record.iteration:>10} {record.current_cost:>10.2f} "
                f"{record.num_contexts:>9}"
            )
        return "\n".join(
            [self.format_summary(), "", plot_trace(self.trace), ""] + table
        )


def fig2_request(
    n_clbs: int = 2000,
    iterations: int = 8000,
    warmup_iterations: int = 1200,
    seed: int = 7,
) -> ExplorationRequest:
    """The Fig. 2 experiment as a declarative spec."""
    return ExplorationRequest(
        kind="single",
        application=ApplicationSpec(kind="builtin", name="motion"),
        architecture=ArchitectureSpec(kind="builtin", n_clbs=n_clbs),
        strategy=StrategySpec("sa", {"keep_trace": True}),
        budget=BudgetSpec(
            iterations=iterations, warmup_iterations=warmup_iterations
        ),
        engine=EngineSpec("full"),
        seed=seed,
    )


def run_fig2(
    n_clbs: int = 2000,
    iterations: int = 8000,
    warmup_iterations: int = 1200,
    seed: int = 7,
    deadline_ms: float = MOTION_DEADLINE_MS,
) -> Fig2Result:
    """Run the Fig. 2 experiment (single annealing run with full trace)."""
    request = fig2_request(
        n_clbs=n_clbs,
        iterations=iterations,
        warmup_iterations=warmup_iterations,
        seed=seed,
    )
    response = explore(request)
    return Fig2Result(
        result=response.best_result,
        deadline_ms=deadline_ms,
        warmup_iterations=warmup_iterations,
    )
