"""Shared fixtures: a small handcrafted application and the benchmark."""

from __future__ import annotations

import random

import pytest

from repro.arch.architecture import Architecture, epicure_architecture
from repro.arch.bus import Bus
from repro.arch.processor import Processor
from repro.arch.reconfigurable import ReconfigurableCircuit
from repro.mapping.solution import Solution, random_initial_solution
from repro.model.application import Application
from repro.model.motion import motion_detection_application
from repro.model.task import Implementation, Task


def make_impls(*points):
    """Shorthand: ``make_impls((clbs, ms), ...)``."""
    return tuple(
        Implementation(clbs=c, time_ms=t, name=f"v{i}")
        for i, (c, t) in enumerate(points)
    )


def mapping_state(solution):
    """Deep copy of a solution's five content dicts, for exact-restoration
    checks (list order inside every order and context included)."""
    return (
        dict(solution._resource_of),
        {k: list(v) for k, v in solution._sw_orders.items()},
        {k: [list(c) for c in v] for k, v in solution._contexts.items()},
        {k: list(v) for k, v in solution._asic_tasks.items()},
        dict(solution._impl_choice),
    )


#: Loop-count divisor of each portfolio racer's evaluation-normalized
#: budget: tabu probes 6 moves per iteration, the GA scores a population
#: of 50 per generation, a random sample counts as 10 annealer
#: iterations and tempering runs 4 chains per round.
RACE_DIVISORS = {
    "sa": 1, "hill_climber": 1, "tabu": 6, "ga": 50, "random": 10,
    "tempering": 4,
}


def assert_racers_stopped_early(results, iterations):
    """Every racer of a six-kind portfolio at ``iterations`` ran fewer
    loop iterations than its budget (a limit stopped it)."""
    runs = {record["tag"]: record["iterations_run"] for record in results}
    assert sorted(runs) == sorted(RACE_DIVISORS)
    for kind, divisor in RACE_DIVISORS.items():
        assert runs[kind] < iterations // divisor, (kind, runs)


@pytest.fixture
def small_app() -> Application:
    """A 6-task diamond-ish app: 0 -> (1, 2) -> 3 -> 4 -> 5.

    Tasks 1, 2, 3 are hardware-capable with two implementations each;
    0, 4, 5 are software-only.  Data volumes are non-trivial so bus
    transfers matter.
    """
    app = Application("small")
    app.add_task(Task(0, "load", "IO", sw_time_ms=2.0))
    app.add_task(Task(1, "filter_a", "FIR", 6.0, make_impls((100, 1.0), (200, 0.5))))
    app.add_task(Task(2, "filter_b", "FIR", 4.0, make_impls((80, 0.8), (160, 0.4))))
    app.add_task(Task(3, "merge", "MAG", 5.0, make_impls((120, 1.2), (240, 0.6))))
    app.add_task(Task(4, "classify", "CTRL", sw_time_ms=3.0))
    app.add_task(Task(5, "emit", "IO", sw_time_ms=1.0))
    app.add_dependency(0, 1, data_kbytes=10.0)
    app.add_dependency(0, 2, data_kbytes=10.0)
    app.add_dependency(1, 3, data_kbytes=5.0)
    app.add_dependency(2, 3, data_kbytes=5.0)
    app.add_dependency(3, 4, data_kbytes=2.0)
    app.add_dependency(4, 5, data_kbytes=1.0)
    app.validate()
    return app


@pytest.fixture
def small_arch() -> Architecture:
    """One processor + one 300-CLB device (capacity pressure on purpose:
    two 100+ CLB tasks fit, three do not always)."""
    arch = Architecture("small_arch", bus=Bus(rate_kbytes_per_ms=10.0))
    arch.add_resource(Processor("cpu"))
    arch.add_resource(
        ReconfigurableCircuit("fpga", n_clbs=300, reconfig_ms_per_clb=0.01)
    )
    arch.validate()
    return arch


@pytest.fixture
def small_solution(small_app, small_arch) -> Solution:
    """All tasks on the processor, in index order."""
    solution = Solution(small_app, small_arch)
    for t in small_app.topological_order():
        solution.assign_to_processor(t, "cpu")
    solution.validate()
    return solution


@pytest.fixture(scope="session")
def motion_app():
    return motion_detection_application()


@pytest.fixture
def epicure():
    return epicure_architecture(n_clbs=2000)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)
