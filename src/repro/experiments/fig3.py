"""Experiment E2 — the paper's Fig. 3.

Average execution time, reconfiguration times (initial and dynamic) and
number of contexts versus FPGA size, 100 runs per size in the paper
(configurable here; ``benchmarks/test_fig3_sweep.py`` runs 3).

Paper narrative to reproduce:

* execution time drops quickly once a context can hold more than one
  task, reaching a minimum around ~800 CLBs;
* it then grows slowly and plateaus around ~5000 CLBs, from which size
  all hardware tasks fit one single context;
* small devices (~400-1500 CLBs) need many contexts (up to ~10),
  dropping steadily as size increases;
* total reconfiguration time stays roughly constant in the multi-
  context regime (number and size of contexts compensate).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.sweep import (
    SWEEP_HEADER,
    DeviceSweepRow,
    run_device_sweep,
    smallest_feasible_device,
)
from repro.model.motion import MOTION_DEADLINE_MS, motion_detection_application

#: The paper sweeps 100..10000 CLBs; these are the default sample sizes.
FIG3_SIZES = (100, 200, 400, 600, 800, 1000, 1500, 2000, 3000, 5000, 7500, 10000)


def run_fig3(
    sizes: Sequence[int] = FIG3_SIZES,
    runs: int = 10,
    iterations: int = 8000,
    warmup_iterations: int = 1200,
    seed0: int = 1,
) -> List[DeviceSweepRow]:
    """Run the device-size sweep on the motion-detection benchmark."""
    application = motion_detection_application()
    return run_device_sweep(
        application,
        sizes=sizes,
        runs=runs,
        iterations=iterations,
        warmup_iterations=warmup_iterations,
        deadline_ms=MOTION_DEADLINE_MS,
        seed0=seed0,
    )


def format_fig3_table(rows: Sequence[DeviceSweepRow]) -> str:
    lines = ["Fig. 3 — execution/reconfiguration time and contexts vs FPGA size"]
    lines.append(SWEEP_HEADER)
    for row in rows:
        lines.append(row.format_row())
    smallest = smallest_feasible_device(rows, MOTION_DEADLINE_MS)
    lines.append(
        f"smallest device meeting the {MOTION_DEADLINE_MS:.0f} ms constraint "
        f"(on average): {smallest} CLBs"
    )
    return "\n".join(lines)
