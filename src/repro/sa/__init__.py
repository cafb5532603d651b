"""Simulated annealing: adaptive schedules, moves, and the explorer.

The paper's optimizer (section 4) is an adaptive variant of simulated
annealing following Lam's statistically controlled cooling: the cost is
treated as the energy of a dynamical system kept in quasi-equilibrium
while the temperature falls as fast as that constraint allows.  The
exploration starts from a random solution, spends a warmup phase at
infinite temperature (Fig. 2 runs 1200 such iterations), then cools
adaptively; it is anytime — interrupt it and the best solution so far is
returned.
"""

from repro.sa.schedules import (
    CoolingSchedule,
    GeometricSchedule,
    LamDelosmeSchedule,
    ModifiedLamSchedule,
    make_schedule,
)
from repro.sa.moves import MoveGenerator, MoveStats
from repro.sa.annealer import AnnealerConfig, SimulatedAnnealing
from repro.sa.explorer import DesignSpaceExplorer, ExplorationResult
from repro.sa.trace import TraceRecord

__all__ = [
    "CoolingSchedule",
    "GeometricSchedule",
    "LamDelosmeSchedule",
    "ModifiedLamSchedule",
    "make_schedule",
    "MoveGenerator",
    "MoveStats",
    "AnnealerConfig",
    "SimulatedAnnealing",
    "DesignSpaceExplorer",
    "ExplorationResult",
    "TraceRecord",
]
