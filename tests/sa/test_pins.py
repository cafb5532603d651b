"""Pinned annealing trajectories.

Each case runs the annealing loop at a short budget and compares a
SHA-256 digest of everything the run produced against a constant: the
best and final costs, the iteration and evaluation counts, the
best-so-far history, every trace record, the move-statistics tables
and, per case, the swap bookkeeping, the chain costs or the explored
architecture.  The constants were recorded from the two-loop
implementation (a sequential annealer next to the population annealer)
before the two were merged into one loop, so they pin that the merge
changed no trajectory.  The engines are bit-identical, so each case
has one digest for every engine.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.bench.corpus import get_scenario
from repro.experiments.pareto import _seed_platform, default_catalog
from repro.mapping.cost import SystemCost
from repro.mapping.solution import random_initial_solution
from repro.model.motion import motion_detection_application
from repro.sa.explorer import DesignSpaceExplorer
from repro.sa.population import PopulationAnnealer

ITERATIONS = 1500
WARMUP = 300


def digest(result, *extra) -> str:
    """SHA-256 of a result's trajectory plus ``extra`` values (floats
    enter through ``repr``, which round-trips exactly)."""
    stats = result.move_stats
    payload = (
        result.best_cost,
        result.final_cost,
        result.iterations_run,
        result.evaluations,
        tuple(result.history),
        tuple(
            (r.iteration, r.temperature, r.current_cost, r.best_cost,
             r.num_contexts, r.accepted, r.move_name)
            for r in result.trace
        ),
        tuple(
            tuple(sorted(table.items()))
            for table in (stats.proposed, stats.infeasible,
                          stats.accepted, stats.rejected)
        ),
    ) + extra
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


#: Plain SA on motion/2000, per seed.
SA_PINS = {
    1: "30b936835b43443c4a895a0c7f542e28463d409d4d52c7ce6a353e6b915ac5d2",
    2: "e02026d4635748a9ee9df2b3b500befbd8c4d778c414a7c8cf0422a38b97b8e3",
}

#: Plain SA on motion/2000 at seed 5 from a random initial solution of
#: seed 99.
SHARED_INITIAL_PIN = (
    "17d19dd8f9950fdf3b8df021635819cb7a2507d6808031380ce15280ba7474e9"
)

#: Architecture exploration of the Pareto front (m3/m4 moves under
#: ``SystemCost``), per deadline in ms.
PARETO_PINS = {
    80.0: "a218c802fbe94ada36864f86702ff88c1293770e250213ffb968eacb6205e1a7",
    40.0: "72dfda6aa1c9ea192d691b7415e4965ba5d7c64744c125e942be14b374919ed4",
}

#: Tempering on tgff/60: 8 chains with replica exchange.
TEMPERING_PIN = (
    "10f7ed5b1a7e87f3e87b8d9a049828d0061bd98414456a5565085a0f39829efb"
)


@pytest.mark.parametrize("seed", sorted(SA_PINS))
@pytest.mark.parametrize("engine", ["full", "incremental"])
def test_sa_on_motion(engine, seed):
    instance = get_scenario("motion/2000").build()
    result = DesignSpaceExplorer(
        instance.application, instance.architecture,
        iterations=ITERATIONS, warmup_iterations=WARMUP, seed=seed,
        engine=engine,
    ).search()
    assert result.strategy == "sa"
    assert digest(result) == SA_PINS[seed]


def test_sa_from_a_shared_initial():
    instance = get_scenario("motion/2000").build()
    initial = random_initial_solution(
        instance.application, instance.architecture, random.Random(99)
    )
    result = DesignSpaceExplorer(
        instance.application, instance.architecture,
        iterations=ITERATIONS, warmup_iterations=WARMUP, seed=5,
    ).search(initial)
    assert digest(result) == SHARED_INITIAL_PIN


@pytest.mark.parametrize("deadline", sorted(PARETO_PINS))
def test_architecture_exploration(deadline):
    explorer = DesignSpaceExplorer(
        motion_detection_application(), _seed_platform(),
        iterations=ITERATIONS, warmup_iterations=WARMUP, seed=19,
        p_zero=0.05, catalog=default_catalog(),
        cost_function=SystemCost(deadline_ms=deadline, penalty_per_ms=50.0),
    )
    result = explorer.run()
    architecture = result.best_solution.architecture
    assert digest(
        result.annealing,
        result.best_evaluation.makespan_ms,
        architecture.total_monetary_cost(),
        tuple(architecture.resource_names()),
    ) == PARETO_PINS[deadline]


@pytest.mark.parametrize("engine", ["full", "incremental"])
def test_tempering_on_tgff60(engine):
    instance = get_scenario("tgff/60").build()
    result = PopulationAnnealer(
        instance.application, instance.architecture, chains=8,
        iterations=150, warmup_iterations=30, seed=7, swap_interval=3,
        ladder_ratio=2.0, engine=engine,
    ).search()
    extras = result.extras
    assert result.strategy == "tempering"
    assert 0 < extras["swap_accepts"] < extras["swap_attempts"]
    assert digest(
        result, extras["swap_attempts"], extras["swap_accepts"],
        tuple(extras["chain_costs"]), tuple(extras["slot_of_chain"]),
    ) == TEMPERING_PIN
