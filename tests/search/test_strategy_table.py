"""The strategy table: every searcher kind is declared once, in
``repro.search.runner.STRATEGY_KINDS``, and a portfolio race sizes each
racer from its entry."""

from __future__ import annotations

import pytest

from repro.baselines.ga import GeneticConfig
from repro.baselines.tabu import TabuConfig
from repro.search.portfolio import PORTFOLIO_KINDS, portfolio_jobs
from repro.search.runner import (
    STRATEGY_KINDS,
    InstanceSpec,
    StrategySpec,
    build_strategy,
)
from repro.search.strategy import SearchBudget
from tests.conftest import RACE_DIVISORS

#: Each kind's accepted option keys, as they were listed by hand before
#: the table derived them from the constructors: a new constructor
#: parameter must not become a spec option unnoticed.
ACCEPTED_OPTIONS = {
    "sa": {
        "iterations", "warmup_iterations", "schedule_name",
        "schedule_kwargs", "p_zero", "p_impl", "catalog", "bus_policy",
        "keep_trace", "stall_limit", "initial_hw_fraction", "engine",
        "cost_function",
    },
    "hill_climber": {
        "iterations", "p_zero", "p_impl", "p_offload", "catalog",
        "bus_policy", "engine",
    },
    "tabu": {
        "iterations", "candidates_per_iteration", "tabu_tenure",
        "p_zero", "p_impl", "p_offload", "catalog", "bus_policy", "engine",
    },
    "ga": {
        "population_size", "generations", "crossover_rate",
        "mutation_rate", "tournament_size", "elitism", "bus_policy",
        "engine",
    },
    "random": {"samples", "bus_policy", "engine"},
    "tempering": {
        "chains", "iterations", "warmup_iterations", "swap_interval",
        "ladder_ratio", "schedule_name", "schedule_kwargs", "p_impl",
        "bus_policy", "keep_trace", "stall_limit", "initial_hw_fraction",
        "engine", "cost_function",
    },
}


class TestStrategyTable:
    def test_declares_every_kind(self):
        assert sorted(STRATEGY_KINDS) == sorted(ACCEPTED_OPTIONS)

    @pytest.mark.parametrize("kind", sorted(ACCEPTED_OPTIONS))
    def test_option_keys_are_pinned(self, kind):
        assert STRATEGY_KINDS[kind].options == ACCEPTED_OPTIONS[kind]

    def test_budget_units(self):
        assert {kind: entry.unit for kind, entry in STRATEGY_KINDS.items()} == {
            "sa": "iterations", "hill_climber": "iterations",
            "tabu": "iterations", "ga": "generations", "random": "samples",
            "tempering": "iterations",
        }

    def test_annealers_are_the_kinds_taking_a_warmup(self):
        annealers = {k for k, entry in STRATEGY_KINDS.items() if entry.anneals}
        assert annealers == {"sa", "tempering"}

    def test_warm_starts_seed_the_move_based_kinds(self):
        warm = {k for k, entry in STRATEGY_KINDS.items() if entry.warm}
        assert warm == {"sa", "tempering", "hill_climber", "tabu"}

    def test_race_divisors(self):
        assert {
            kind: entry.per_unit for kind, entry in STRATEGY_KINDS.items()
        } == RACE_DIVISORS

    def test_empty_options_build_the_class_defaults(
        self, small_app, small_arch
    ):
        def build(kind):
            return build_strategy(
                StrategySpec(kind), small_app, small_arch, seed=3
            )

        assert build("tabu").config == TabuConfig(seed=3)
        assert build("ga").config == GeneticConfig(seed=3)
        # The one default the runner overrides: batch runs keep no trace.
        assert build("sa").config.keep_trace is False
        assert build("tempering").config.keep_trace is False


class TestRace:
    @pytest.fixture
    def instance(self, small_app, small_arch):
        return InstanceSpec(small_app, architecture=small_arch)

    @pytest.mark.parametrize("iterations, warmup, expected", [
        (8000, None, {
            "sa": {"iterations": 8000, "warmup_iterations": 1200},
            "tabu": {"iterations": 1333, "candidates_per_iteration": 6},
            "hill_climber": {"iterations": 8000},
            "ga": {"population_size": 50, "generations": 160},
            "random": {"samples": 800},
            "tempering": {
                "chains": 4, "iterations": 2000, "warmup_iterations": 300,
            },
        }),
        (3, 0, {
            "sa": {"iterations": 3, "warmup_iterations": 0},
            "tabu": {"iterations": 1, "candidates_per_iteration": 6},
            "hill_climber": {"iterations": 3},
            "ga": {"population_size": 50, "generations": 1},
            "random": {"samples": 1},
            "tempering": {
                "chains": 4, "iterations": 1, "warmup_iterations": 0,
            },
        }),
        (600, 3, {
            "sa": {"iterations": 600, "warmup_iterations": 3},
            "tabu": {"iterations": 100, "candidates_per_iteration": 6},
            "hill_climber": {"iterations": 600},
            "ga": {"population_size": 50, "generations": 12},
            "random": {"samples": 60},
            "tempering": {
                "chains": 4, "iterations": 150, "warmup_iterations": 1,
            },
        }),
    ])
    def test_racer_specs(self, instance, iterations, warmup, expected):
        jobs = portfolio_jobs(
            instance, iterations=iterations, engine="full",
            warmup_iterations=warmup,
        )
        assert [job.tag for job in jobs] == list(PORTFOLIO_KINDS)
        assert {job.tag: job.strategy.options for job in jobs} == {
            kind: dict(options, engine="full")
            for kind, options in expected.items()
        }

    def test_stall_limit_is_divided_like_the_budget(self, instance):
        jobs = portfolio_jobs(instance, iterations=20000, budget=SearchBudget(
            stall_limit=40, time_limit_s=2.5,
        ))
        limits = {job.tag: job.budget.stall_limit for job in jobs}
        assert limits == {
            kind: max(1, 40 // divisor)
            for kind, divisor in RACE_DIVISORS.items()
        }
        assert limits == {
            "sa": 40, "hill_climber": 40, "tabu": 6, "ga": 1, "random": 4,
            "tempering": 10,
        }
        assert {job.budget.time_limit_s for job in jobs} == {2.5}
