"""Device-size sweep machinery (the paper's Fig. 3 experiment).

For each FPGA capacity, run the explorer ``runs`` times with different
seeds and average execution time, initial/dynamic reconfiguration time
and number of contexts — exactly the three curves of Fig. 3 (the paper
averages 100 runs per size).

Since the ``repro.api`` redesign this module is a thin spec builder: it
assembles a sweep-shaped :class:`~repro.api.specs.ExplorationRequest`
and executes it through :func:`repro.api.facade.explore` (the one
resolution pipeline).  ``jobs=N`` fans the ``sizes × runs`` grid across
N worker processes, and ``checkpoint_path`` makes a long sweep
resumable.  Rows are bit-identical for any ``jobs`` because every run
is independently seeded and the aggregation order is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.stats import summarize
from repro.errors import ConfigurationError
from repro.model.application import Application
from repro.numeric import left_sum


@dataclass(frozen=True)
class DeviceSweepRow:
    """Averaged results for one device size."""

    n_clbs: int
    runs: int
    execution_ms: float
    execution_std_ms: float
    initial_reconfig_ms: float
    dynamic_reconfig_ms: float
    num_contexts: float
    hw_tasks: float
    feasible_fraction: float

    @property
    def reconfig_ms(self) -> float:
        return self.initial_reconfig_ms + self.dynamic_reconfig_ms

    def format_row(self) -> str:
        return (
            f"{self.n_clbs:>6} {self.execution_ms:>9.2f} {self.execution_std_ms:>7.2f} "
            f"{self.initial_reconfig_ms:>9.2f} {self.dynamic_reconfig_ms:>9.2f} "
            f"{self.num_contexts:>8.2f} {self.hw_tasks:>7.2f} "
            f"{self.feasible_fraction:>8.2f}"
        )


SWEEP_HEADER = (
    f"{'NCLB':>6} {'exec(ms)':>9} {'std':>7} {'init_rc':>9} {'dyn_rc':>9} "
    f"{'ctx':>8} {'hw':>7} {'<=40ms':>8}"
)


def run_device_sweep(
    application: Application,
    sizes: Sequence[int],
    runs: int = 10,
    iterations: int = 8000,
    warmup_iterations: int = 1200,
    deadline_ms: float = 40.0,
    seed0: int = 1,
    engine: str = "full",
    jobs: int = 1,
    checkpoint_path: Optional[str] = None,
) -> List[DeviceSweepRow]:
    """Run the Fig. 3 sweep and return one averaged row per size.

    ``jobs=N`` executes the ``sizes × runs`` grid across N worker
    processes; rows are bit-identical to ``jobs=1`` for the same seeds.
    ``checkpoint_path`` (JSONL) lets an interrupted sweep resume.
    Every run uses the paper's EPICURE platform at the row's capacity.
    ``engine`` selects the evaluation engine (``"full"`` or
    ``"incremental"``).
    """
    if runs < 1:
        raise ConfigurationError("runs must be >= 1")

    from repro.api.facade import explore
    from repro.api.specs import (
        ApplicationSpec,
        BudgetSpec,
        EngineSpec,
        ExplorationRequest,
        StrategySpec,
    )
    from repro.io import application_to_dict

    request = ExplorationRequest(
        kind="sweep",
        application=ApplicationSpec(
            kind="inline", document=application_to_dict(application)
        ),
        strategy=StrategySpec("sa", {"keep_trace": False}),
        budget=BudgetSpec(
            iterations=iterations, warmup_iterations=warmup_iterations
        ),
        engine=EngineSpec(engine),
        seed=seed0,
        runs=runs,
        sizes=tuple(sizes),
        deadline_ms=deadline_ms,
    )
    response = explore(request, jobs=jobs, checkpoint_path=checkpoint_path)
    return list(response.rows)


def _aggregate_rows(
    sizes: Sequence[int],
    runs: int,
    evaluations: Dict[Tuple[int, int], object],
    deadline_ms: float,
) -> List[DeviceSweepRow]:
    """Fold per-run evaluations into one averaged row per size, in a
    fixed (size-major, run-minor) order so results are reproducible."""
    rows: List[DeviceSweepRow] = []
    for n_clbs in sizes:
        makespans: List[float] = []
        initials: List[float] = []
        dynamics: List[float] = []
        contexts: List[float] = []
        hw_counts: List[float] = []
        met = 0
        for r in range(runs):
            ev = evaluations[(n_clbs, r)]
            makespans.append(ev.makespan_ms)
            initials.append(ev.initial_reconfig_ms)
            dynamics.append(ev.dynamic_reconfig_ms)
            contexts.append(float(ev.num_contexts))
            hw_counts.append(float(ev.hw_tasks))
            if ev.meets(deadline_ms):
                met += 1
        summary = summarize(makespans)
        rows.append(
            DeviceSweepRow(
                n_clbs=n_clbs,
                runs=runs,
                execution_ms=summary.mean,
                execution_std_ms=summary.std,
                initial_reconfig_ms=left_sum(initials) / runs,
                dynamic_reconfig_ms=left_sum(dynamics) / runs,
                num_contexts=left_sum(contexts) / runs,
                hw_tasks=left_sum(hw_counts) / runs,
                feasible_fraction=met / runs,
            )
        )
    return rows


def smallest_feasible_device(
    rows: Sequence[DeviceSweepRow], deadline_ms: float = 40.0
) -> Optional[int]:
    """The byproduct the paper highlights: the smallest device whose
    *average* execution time meets the constraint."""
    feasible = [row.n_clbs for row in rows if row.execution_ms <= deadline_ms]
    return min(feasible) if feasible else None
