"""Experiment E3 — SA vs the GA baseline (paper section 5, in-text).

The paper reports, on the motion-detection benchmark with a 2000-CLB
device:

* GA flow of [6]: 28 ms execution time, ~4 minutes of optimization
  (population 300);
* this paper's adaptive SA: 18.1 ms, under 10 seconds — better quality
  and an order of magnitude faster even if the GA population were cut
  to 100.

This module runs both optimizers on identical ground (same evaluator,
same application and device) and reports quality and runtime; the shape
to reproduce is *SA at least as good and markedly faster*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.api.facade import explore
from repro.api.specs import (
    ApplicationSpec,
    ArchitectureSpec,
    BudgetSpec,
    EngineSpec,
    ExplorationRequest,
    StrategySpec,
)
from repro.model.motion import MOTION_DEADLINE_MS


@dataclass
class ComparisonResult:
    sa_makespan_ms: float
    sa_runtime_s: float
    sa_contexts: int
    #: Summed over the ``sa_best_of`` runs, like ``sa_runtime_s``.
    sa_evaluations: int
    ga_makespan_ms: float
    ga_runtime_s: float
    ga_contexts: int
    ga_evaluations: int
    deadline_ms: float

    @property
    def speedup(self) -> float:
        """GA runtime over SA runtime."""
        return self.ga_runtime_s / max(self.sa_runtime_s, 1e-9)

    @property
    def sa_wins_quality(self) -> bool:
        return self.sa_makespan_ms <= self.ga_makespan_ms

    def to_dict(self) -> dict:
        """JSON form for ``repro compare --json``."""
        return {
            "sa_makespan_ms": self.sa_makespan_ms,
            "sa_runtime_s": self.sa_runtime_s,
            "sa_contexts": self.sa_contexts,
            "sa_evaluations": self.sa_evaluations,
            "ga_makespan_ms": self.ga_makespan_ms,
            "ga_runtime_s": self.ga_runtime_s,
            "ga_contexts": self.ga_contexts,
            "ga_evaluations": self.ga_evaluations,
            "deadline_ms": self.deadline_ms,
            "speedup": self.speedup,
            "sa_wins_quality": self.sa_wins_quality,
        }

    def format_table(self) -> str:
        rows = [
            "SA vs GA comparison (motion detection, 2000-CLB device)",
            f"{'method':<22} {'exec (ms)':>10} {'contexts':>9} {'runtime (s)':>12}",
            f"{'adaptive SA (ours)':<22} {self.sa_makespan_ms:>10.2f} "
            f"{self.sa_contexts:>9} {self.sa_runtime_s:>12.2f}",
            f"{'GA+cluster+list [6]':<22} {self.ga_makespan_ms:>10.2f} "
            f"{self.ga_contexts:>9} {self.ga_runtime_s:>12.2f}",
            (
                f"runtime: GA is {self.speedup:.1f}x slower than SA"
                if self.speedup >= 1.0
                else f"runtime: GA is {1 / self.speedup:.1f}x faster than SA"
            ),
            f"deadline {self.deadline_ms:.0f} ms met: "
            f"SA={self.sa_makespan_ms <= self.deadline_ms} "
            f"GA={self.ga_makespan_ms <= self.deadline_ms}",
        ]
        return "\n".join(rows)


def run_comparison(
    n_clbs: int = 2000,
    sa_iterations: int = 8000,
    sa_warmup: Optional[int] = 1200,
    ga_population: int = 300,
    ga_generations: int = 40,
    seed: int = 11,
    sa_best_of: int = 1,
    engine: str = "full",
    jobs: int = 1,
    checkpoint_path: Optional[str] = None,
) -> ComparisonResult:
    """Run both optimizers on the paper's platform.

    ``sa_best_of`` > 1 runs SA multiple times within the GA's time
    budget spirit and keeps the best (still far cheaper than one GA).
    Both optimizers score candidates through the same evaluation
    ``engine`` (``"full"`` or ``"incremental"``), so the comparison
    stays on identical ground either way.  Since the ``repro.api``
    redesign this function is a thin spec builder: the SA restarts are
    one multi-seed batch request and the GA one single request, both
    executed through :func:`repro.api.facade.explore` (``jobs=N``
    parallelizes within each request; every run is independently
    seeded, so the numbers are identical to any other grouping).
    """
    application = ApplicationSpec(kind="builtin", name="motion")
    architecture = ArchitectureSpec(kind="builtin", n_clbs=n_clbs)

    sa_request = ExplorationRequest(
        kind="batch",
        application=application,
        architecture=architecture,
        strategy=StrategySpec("sa", {"keep_trace": False}),
        budget=BudgetSpec(
            iterations=sa_iterations, warmup_iterations=sa_warmup
        ),
        engine=EngineSpec(engine),
        seeds=tuple(seed + k for k in range(sa_best_of)),
    )
    ga_request = ExplorationRequest(
        kind="single",
        application=application,
        architecture=architecture,
        strategy=StrategySpec("ga", {
            "population_size": ga_population,
            "generations": ga_generations,
        }),
        engine=EngineSpec(engine),
        seed=seed,
    )
    sa_response = explore(
        sa_request, jobs=jobs, checkpoint_path=checkpoint_path
    )
    ga_response = explore(
        ga_request,
        jobs=jobs,
        checkpoint_path=None if checkpoint_path is None
        else checkpoint_path + ".ga",
    )

    sa_best = sa_response.best
    ga_best = ga_response.best
    ga_record = ga_response.results[0]
    return ComparisonResult(
        sa_makespan_ms=sa_best["evaluation"]["makespan_ms"],
        sa_runtime_s=sum(r["runtime_s"] for r in sa_response.results),
        sa_contexts=sa_best["evaluation"]["num_contexts"],
        sa_evaluations=sum(r["evaluations"] for r in sa_response.results),
        ga_makespan_ms=ga_best["evaluation"]["makespan_ms"],
        ga_runtime_s=ga_record["runtime_s"],
        ga_contexts=ga_best["evaluation"]["num_contexts"],
        ga_evaluations=ga_record["evaluations"],
        deadline_ms=MOTION_DEADLINE_MS,
    )
