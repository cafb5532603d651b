"""Experiment harness: one module per paper artefact.

Every table and figure of the paper's evaluation (section 5) has a
``run_*`` function here and a corresponding bench in ``benchmarks/``.
"""

from repro.experiments.fig2 import Fig2Result, run_fig2
from repro.experiments.fig3 import run_fig3, FIG3_SIZES
from repro.experiments.comparison import ComparisonResult, run_comparison
from repro.experiments.ablations import (
    ScheduleAblationRow,
    run_schedule_ablation,
    run_impl_ablation,
    run_bus_ablation,
)
from repro.experiments.pareto import (
    ParetoPoint,
    format_pareto_table,
    run_pareto_front,
)
from repro.experiments.quality import (
    QualityKnobRow,
    format_quality_table,
    run_quality_knob,
)

__all__ = [
    "Fig2Result",
    "run_fig2",
    "run_fig3",
    "FIG3_SIZES",
    "ComparisonResult",
    "run_comparison",
    "ScheduleAblationRow",
    "run_schedule_ablation",
    "run_impl_ablation",
    "run_bus_ablation",
    "ParetoPoint",
    "format_pareto_table",
    "run_pareto_front",
    "QualityKnobRow",
    "format_quality_table",
    "run_quality_knob",
]
