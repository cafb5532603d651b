"""Determinism contract of the population annealer.

Three pins, in increasing strength:

* ``chains=1`` (no exchange possible) is **bit-identical** to the
  ``"sa"`` strategy — same seed in, same trajectory out, down to the
  per-iteration trace.
* Replica exchange replays: a fixed ``(seed, chains, ladder)`` gives
  the identical run every time, including the swap bookkeeping.
* Runner fan-out (``jobs=N``) returns the same bits as inline
  execution.
"""

import pytest

from repro.errors import ConfigurationError
from repro.mapping.evaluator import ENGINES, Evaluator
from repro.sa.explorer import DesignSpaceExplorer
from repro.sa.population import PopulationAnnealer

ITERATIONS = 120
WARMUP = 30


def make_population(app, arch, seed, chains=3, engine="array", **kwargs):
    kwargs.setdefault("iterations", ITERATIONS)
    kwargs.setdefault("warmup_iterations", WARMUP)
    kwargs.setdefault("swap_interval", 5)
    return PopulationAnnealer(
        app, arch, chains=chains, seed=seed, engine=engine, **kwargs
    )


class TestSingleChainBitIdentity:
    """chains=1 *is* the sequential annealer."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_matches_the_sa_strategy(self, engine, small_app, small_arch):
        sa = DesignSpaceExplorer(
            small_app, small_arch, iterations=ITERATIONS,
            warmup_iterations=WARMUP, seed=5, engine=engine,
        ).search()
        pop = make_population(
            small_app, small_arch, 5, chains=1, engine=engine
        ).search()
        assert pop.best_cost == sa.best_cost
        assert pop.final_cost == sa.final_cost
        assert pop.history == sa.history
        assert pop.iterations_run == sa.iterations_run
        assert pop.evaluations == sa.evaluations
        assert [
            (r.iteration, r.temperature, r.current_cost, r.best_cost,
             r.accepted, r.move_name)
            for r in pop.trace
        ] == [
            (r.iteration, r.temperature, r.current_cost, r.best_cost,
             r.accepted, r.move_name)
            for r in sa.trace
        ]

    def test_matches_from_a_shared_initial(self, small_app, small_arch):
        from repro.mapping.solution import random_initial_solution
        import random

        initial = random_initial_solution(
            small_app, small_arch, random.Random(99)
        )
        sa = DesignSpaceExplorer(
            small_app, small_arch, iterations=ITERATIONS,
            warmup_iterations=WARMUP, seed=5,
        ).search(initial.copy())
        pop = make_population(small_app, small_arch, 5, chains=1).search(
            initial.copy()
        )
        assert pop.best_cost == sa.best_cost
        assert pop.history == sa.history


class TestExchangeDeterminism:
    def test_fixed_seed_replays_exactly(self, small_app, small_arch):
        a = make_population(small_app, small_arch, 13).search()
        b = make_population(small_app, small_arch, 13).search()
        assert a.best_cost == b.best_cost
        assert a.history == b.history
        assert a.extras["swap_attempts"] == b.extras["swap_attempts"]
        assert a.extras["swap_accepts"] == b.extras["swap_accepts"]
        assert a.extras["chain_costs"] == b.extras["chain_costs"]
        assert a.extras["slot_of_chain"] == b.extras["slot_of_chain"]

    def test_exchange_happens_and_is_bookkept(self, small_app, small_arch):
        result = make_population(
            small_app, small_arch, 13, chains=4, swap_interval=3
        ).search()
        extras = result.extras
        assert extras["chains"] == 4
        assert extras["swap_attempts"] >= 1
        assert 0 <= extras["swap_accepts"] <= extras["swap_attempts"]
        assert sorted(extras["slot_of_chain"]) == [0, 1, 2, 3]
        assert len(extras["chain_costs"]) == 4

    def test_swap_interval_none_disables_exchange(
        self, small_app, small_arch
    ):
        result = make_population(
            small_app, small_arch, 13, swap_interval=None
        ).search()
        assert result.extras["swap_attempts"] == 0
        assert result.extras["slot_of_chain"] == [0, 1, 2]

    def test_best_cost_matches_reference_reevaluation(
        self, small_app, small_arch
    ):
        result = make_population(small_app, small_arch, 17).search()
        fresh = Evaluator(small_app, small_arch, engine="full")
        assert fresh.makespan_ms(result.best_solution) == result.best_cost


class TestRunnerFanOut:
    def _jobs(self, app, arch):
        from repro.search.runner import InstanceSpec, SearchJob, StrategySpec

        spec = StrategySpec("tempering", {
            "chains": 2, "iterations": 40, "warmup_iterations": 10,
            "swap_interval": 5, "keep_trace": False,
        })
        instance = InstanceSpec(app, architecture=arch)
        return [
            SearchJob(spec, instance, seed=31, tag="a"),
            SearchJob(spec, instance, seed=32, tag="b"),
        ]

    def test_parallel_equals_inline(self, small_app, small_arch):
        from repro.search.runner import run_search_jobs

        inline = run_search_jobs(self._jobs(small_app, small_arch), jobs=1)
        pooled = run_search_jobs(self._jobs(small_app, small_arch), jobs=2)
        for a, b in zip(inline, pooled):
            assert a.result.best_cost == b.result.best_cost
            assert a.result.history == b.result.history
            assert a.result.iterations_run == b.result.iterations_run


class TestValidation:
    def test_rejects_zero_chains(self, small_app, small_arch):
        with pytest.raises(ConfigurationError, match="chains"):
            PopulationAnnealer(small_app, small_arch, chains=0)

    def test_rejects_negative_swap_interval(self, small_app, small_arch):
        with pytest.raises(ConfigurationError, match="swap_interval"):
            PopulationAnnealer(small_app, small_arch, swap_interval=-1)

    def test_rejects_non_positive_ladder(self, small_app, small_arch):
        with pytest.raises(ConfigurationError, match="ladder_ratio"):
            PopulationAnnealer(small_app, small_arch, ladder_ratio=0.0)


def trajectory(result):
    return (
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
    )


class TestDispatchBitIdentity:
    """The engine changes throughput, never results: every engine name
    walks the identical trajectory for a fixed seed."""

    def test_all_dispatch_modes_and_engines_agree(
        self, small_app, small_arch
    ):
        reference = trajectory(
            make_population(
                small_app, small_arch, 5, engine="incremental"
            ).search()
        )
        for engine in ("full", "array"):
            got = trajectory(
                make_population(
                    small_app, small_arch, 5, engine=engine
                ).search()
            )
            assert got == reference, engine
