"""The designer's quality knob (paper abstract & section 4.1).

"[The tool] lets the designer select the quality of the optimization
(hence its computing time) and finds accordingly a solution with
close-to-minimal cost."  The knob is the Lam schedule's ``lambda_rate``:
the number of iterations needed to traverse the same inverse-temperature
range scales as ``1/lambda``, so choosing the rate *is* choosing the
computing time.  The sweep sizes each run's budget accordingly
(``warmup + budget_constant / lambda``) and reports the quality/time
trade the designer gets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.stats import summarize, Summary
from repro.api.facade import explore
from repro.api.specs import (
    ApplicationSpec,
    ArchitectureSpec,
    BudgetSpec,
    ExplorationRequest,
    StrategySpec,
)
from repro.errors import ConfigurationError
from repro.numeric import left_sum


@dataclass(frozen=True)
class QualityKnobRow:
    lambda_rate: float
    makespan: Summary
    mean_iterations: float
    mean_runtime_s: float

    def format_row(self) -> str:
        return (
            f"{self.lambda_rate:>8.4f} {self.makespan.mean:>9.2f} "
            f"{self.makespan.std:>7.2f} {self.mean_iterations:>11.0f} "
            f"{self.mean_runtime_s:>9.2f}"
        )


QUALITY_HEADER = (
    f"{'lambda':>8} {'exec(ms)':>9} {'std':>7} {'iterations':>11} {'time(s)':>9}"
)


def run_quality_knob(
    lambda_rates: Sequence[float] = (0.4, 0.1, 0.025),
    n_clbs: int = 2000,
    budget_constant: float = 700.0,
    warmup: int = 1200,
    runs: int = 3,
    seed0: int = 51,
    jobs: int = 1,
    checkpoint_path: Optional[str] = None,
) -> List[QualityKnobRow]:
    """Sweep the cooling-speed knob; budgets scale as 1/lambda.

    Since the ``repro.api`` redesign this is a thin spec builder: each
    lambda rate becomes one multi-seed batch
    :class:`~repro.api.specs.ExplorationRequest` executed through
    :func:`repro.api.facade.explore`; ``jobs=N`` spreads each batch
    across worker processes.
    """
    if not lambda_rates:
        raise ConfigurationError("need at least one lambda rate")
    if runs < 1:
        raise ConfigurationError("runs must be >= 1")
    rows: List[QualityKnobRow] = []
    for index, rate in enumerate(lambda_rates):
        request = ExplorationRequest(
            kind="batch",
            application=ApplicationSpec(kind="builtin", name="motion"),
            architecture=ArchitectureSpec(kind="builtin", n_clbs=n_clbs),
            strategy=StrategySpec("sa", {
                "schedule_kwargs": {"lambda_rate": rate},
                "keep_trace": False,
            }),
            budget=BudgetSpec(
                iterations=warmup + round(budget_constant / rate),
                warmup_iterations=warmup,
            ),
            seeds=tuple(seed0 + r for r in range(runs)),
        )
        response = explore(
            request,
            jobs=jobs,
            checkpoint_path=None if checkpoint_path is None
            else f"{checkpoint_path}.r{index}",
        )
        rows.append(
            QualityKnobRow(
                lambda_rate=rate,
                makespan=summarize(
                    [r["evaluation"]["makespan_ms"] for r in response.results]
                ),
                mean_iterations=(
                    left_sum(
                        float(r["iterations_run"]) for r in response.results
                    )
                    / runs
                ),
                mean_runtime_s=(
                    left_sum(r["runtime_s"] for r in response.results) / runs
                ),
            )
        )
    return rows


def format_quality_table(rows: Sequence[QualityKnobRow]) -> str:
    lines = ["Quality/computing-time knob (Lam lambda_rate sweep)"]
    lines.append(QUALITY_HEADER)
    for row in rows:
        lines.append(row.format_row())
    return "\n".join(lines)
