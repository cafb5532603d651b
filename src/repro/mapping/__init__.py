"""Mapping layer: solutions, search graphs, evaluation and schedules.

A *solution* (paper section 3.3) simultaneously fixes the HW/SW spatial
partitioning, the temporal partitioning into contexts, the software
total order and (implicitly, through the deterministic bus serializer)
the transaction order.  A solution is *realized* as a search graph — the
task graph plus sequentialization edges — whose longest path is the
solution's execution time (section 4.4).
"""

from repro.mapping.solution import Solution, random_initial_solution
from repro.mapping.search_graph import SearchGraph, SearchGraphBuilder, COMM_NODE
from repro.mapping.compiled import CompiledInstance, compile_instance
from repro.mapping.engine import (
    ENGINES,
    EvaluationEngine,
    FullRebuildEngine,
    IncrementalEngine,
    make_engine,
)
from repro.mapping.evaluator import Evaluation, Evaluator
from repro.mapping.schedule import Schedule, ScheduleEntry, extract_schedule
from repro.mapping.gantt import render_gantt
from repro.mapping.cost import CostFunction, MakespanCost, SystemCost
from repro.mapping.simulator import (
    ExecutionSimulator,
    SimEvent,
    SimulationResult,
    simulate,
)

__all__ = [
    "Solution",
    "random_initial_solution",
    "SearchGraph",
    "SearchGraphBuilder",
    "COMM_NODE",
    "ENGINES",
    "CompiledInstance",
    "compile_instance",
    "EvaluationEngine",
    "FullRebuildEngine",
    "IncrementalEngine",
    "make_engine",
    "Evaluation",
    "Evaluator",
    "Schedule",
    "ScheduleEntry",
    "extract_schedule",
    "render_gantt",
    "CostFunction",
    "MakespanCost",
    "SystemCost",
    "ExecutionSimulator",
    "SimEvent",
    "SimulationResult",
    "simulate",
]
