"""Functionality library and synthetic implementation generator.

The EPICURE project supplied the paper's per-task area/time estimates
(5 or 6 synthesized variants per function, forming a dominant set in the
area-time plane).  Those measurements were never published, so this
module *synthesizes* Pareto sets with the same structure: for a function
family we know a base area, and a speedup range (smallest
implementation -> fastest implementation).  Larger variants trade CLBs
for speed, with diminishing returns, which is exactly the shape of real
FPGA synthesis sweeps (loop unrolling / pipelining factors).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import ModelError
from repro.model.task import Implementation, pareto_filter


@dataclass(frozen=True)
class FunctionalitySpec:
    """Synthesis characteristics of one function family.

    Parameters
    ----------
    name:
        Family name, e.g. ``"FIR"``.
    base_clbs:
        Area of the smallest (least parallel) implementation.
    min_speedup / max_speedup:
        Speedup over software of the smallest / largest implementation.
        ``min_speedup < 1`` models control-dominated functions that do
        not benefit from hardware.
    variants:
        Number of synthesized implementations (the paper reports 5 or 6).
    area_growth:
        Geometric area ratio between consecutive variants.
    """

    name: str
    base_clbs: int
    min_speedup: float
    max_speedup: float
    variants: int = 5
    area_growth: float = 1.45

    def __post_init__(self) -> None:
        if self.base_clbs <= 0:
            raise ModelError(f"{self.name}: base_clbs must be > 0")
        if not (0 < self.min_speedup <= self.max_speedup):
            raise ModelError(f"{self.name}: need 0 < min_speedup <= max_speedup")
        if self.variants < 1:
            raise ModelError(f"{self.name}: variants must be >= 1")
        if self.area_growth <= 1.0:
            raise ModelError(f"{self.name}: area_growth must be > 1")


def synthesize_implementations(
    spec: FunctionalitySpec,
    sw_time_ms: float,
) -> Tuple[Implementation, ...]:
    """Generate the dominant area/time set for one task.

    The ``k``-th variant has area ``base_clbs * area_growth**k`` and
    speedup interpolated geometrically between ``min_speedup`` and
    ``max_speedup`` — geometric interpolation gives the concave Pareto
    fronts observed in synthesis practice (doubling area never doubles
    speed).  The result is strictly dominant and sorted by area.
    """
    if sw_time_ms < 0:
        raise ModelError("sw_time_ms must be >= 0")
    impls = []
    n = spec.variants
    for k in range(n):
        area = round(spec.base_clbs * spec.area_growth**k)
        if n == 1:
            speedup = spec.max_speedup
        else:
            ratio = spec.max_speedup / spec.min_speedup
            speedup = spec.min_speedup * ratio ** (k / (n - 1))
        impls.append(
            Implementation(
                clbs=area,
                time_ms=sw_time_ms / speedup,
                name=f"{spec.name.lower()}_v{k}",
            )
        )
    dominant = pareto_filter(impls)
    if len(dominant) != len(impls):  # pragma: no cover - defensive
        raise ModelError(f"{spec.name}: generated set was not dominant")
    return tuple(dominant)


#: Function families used by the motion-detection benchmark.  Speedup
#: ranges follow the usual folklore: regular pixel pipelines (filters,
#: morphology) accelerate 8-40x, reductions 4-20x, and control-dominated
#: bookkeeping gains little or even loses (<= 1.5x), so the optimizer
#: should leave the latter in software.
#: Areas are calibrated against the paper's reconfiguration economics:
#: at t_R = 22.5 us/CLB a 100-CLB module costs 2.25 ms to (re)configure,
#: so worthwhile modules must be small (tens of CLBs) and fast (large
#: speedups) — matching the paper's regime where ~10 hardware tasks
#: occupy ~1000 CLBs and execution time lands well under 40 ms.
FUNCTION_LIBRARY: Dict[str, FunctionalitySpec] = {
    spec.name: spec
    for spec in [
        FunctionalitySpec("CAPTURE", base_clbs=18, min_speedup=3.0, max_speedup=9.0, variants=5),
        FunctionalitySpec("FIR", base_clbs=40, min_speedup=12.0, max_speedup=50.0, variants=6),
        FunctionalitySpec("BG_MODEL", base_clbs=35, min_speedup=9.0, max_speedup=34.0, variants=5),
        FunctionalitySpec("DIFF", base_clbs=22, min_speedup=10.0, max_speedup=32.0, variants=5),
        FunctionalitySpec("THRESH", base_clbs=14, min_speedup=6.0, max_speedup=20.0, variants=5),
        FunctionalitySpec("MORPH", base_clbs=30, min_speedup=14.0, max_speedup=55.0, variants=6),
        FunctionalitySpec("SOBEL", base_clbs=36, min_speedup=12.0, max_speedup=45.0, variants=6),
        FunctionalitySpec("MAG", base_clbs=25, min_speedup=9.0, max_speedup=28.0, variants=5),
        FunctionalitySpec("CONTOUR", base_clbs=42, min_speedup=5.0, max_speedup=16.0, variants=5),
        FunctionalitySpec("CCL", base_clbs=60, min_speedup=7.0, max_speedup=28.0, variants=6),
        FunctionalitySpec("REGION", base_clbs=28, min_speedup=4.0, max_speedup=13.0, variants=5),
        FunctionalitySpec("MOTION_EST", base_clbs=50, min_speedup=9.0, max_speedup=38.0, variants=6),
        FunctionalitySpec("MEDIAN", base_clbs=33, min_speedup=8.0, max_speedup=26.0, variants=5),
        FunctionalitySpec("TRACK", base_clbs=45, min_speedup=3.0, max_speedup=10.0, variants=5),
        FunctionalitySpec("KALMAN", base_clbs=48, min_speedup=4.5, max_speedup=16.0, variants=5),
        FunctionalitySpec("RENDER", base_clbs=25, min_speedup=4.0, max_speedup=14.0, variants=5),
        FunctionalitySpec("CONTROL", base_clbs=20, min_speedup=0.6, max_speedup=1.4, variants=5),
        FunctionalitySpec("DMA", base_clbs=12, min_speedup=1.0, max_speedup=2.5, variants=5),
    ]
}
