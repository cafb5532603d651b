"""Strategy-layer conformance: one harness, every searcher.

Every strategy must return a :class:`SearchResult` whose invariants
hold regardless of how the search works internally:

* ``best_cost`` matches a fresh re-evaluation of ``best_solution``;
* ``history`` is the monotone best-so-far curve ending at ``best_cost``;
* budgets are respected;
* fixed seeds give identical results;
* the step callback sees every counted iteration.

Every invariant is checked under all three evaluation engines (engine
parity means the engine knob must never change a strategy's behavior,
only its speed).
"""

import pytest

from repro.baselines.ga import GeneticConfig, GeneticPartitioner
from repro.baselines.hill_climber import HillClimber
from repro.baselines.random_search import RandomSearch
from repro.baselines.tabu import TabuConfig, TabuSearch
from repro.mapping.evaluator import ENGINES, Evaluator
from repro.sa.explorer import DesignSpaceExplorer
from repro.sa.moves import MoveGenerator
from repro.search.strategy import SearchBudget, SearchResult

ITERATIONS = 120


def make_sa(app, arch, seed, engine):
    return DesignSpaceExplorer(
        app, arch, iterations=ITERATIONS, warmup_iterations=30, seed=seed,
        p_impl=0.15, engine=engine,
    )


def make_hill(app, arch, seed, engine):
    return HillClimber(
        Evaluator(app, arch, engine=engine),
        MoveGenerator(app, p_impl=0.15, p_offload=0.1),
        iterations=ITERATIONS,
        seed=seed,
    )


def make_tabu(app, arch, seed, engine):
    return TabuSearch(
        Evaluator(app, arch, engine=engine),
        MoveGenerator(app, p_impl=0.15, p_offload=0.1),
        TabuConfig(iterations=40, candidates_per_iteration=3, seed=seed),
    )


def make_ga(app, arch, seed, engine):
    return GeneticPartitioner(
        app, arch,
        GeneticConfig(population_size=10, generations=5, seed=seed),
        engine=engine,
    )


def make_random(app, arch, seed, engine):
    return RandomSearch(app, arch, samples=40, seed=seed, engine=engine)


def make_tempering(app, arch, seed, engine):
    from repro.sa.population import PopulationAnnealer

    return PopulationAnnealer(
        app, arch, chains=3, iterations=ITERATIONS // 3,
        warmup_iterations=10, seed=seed, swap_interval=5, engine=engine,
    )


FACTORIES = {
    "sa": make_sa,
    "hill_climber": make_hill,
    "tabu": make_tabu,
    "ga": make_ga,
    "random": make_random,
    "tempering": make_tempering,
}

strategies = pytest.mark.parametrize("kind", sorted(FACTORIES))
engines = pytest.mark.parametrize("engine", ENGINES)


@strategies
@engines
class TestConformance:
    def test_result_invariants(self, kind, engine, small_app, small_arch):
        strategy = FACTORIES[kind](small_app, small_arch, 5, engine)
        result = strategy.search()
        assert isinstance(result, SearchResult)
        assert result.strategy == kind
        assert result.seed == 5
        assert result.iterations_run >= 1
        assert result.runtime_s >= 0.0
        assert result.evaluations >= 1
        assert result.best_solution is not None
        result.best_solution.validate()

    def test_best_cost_matches_reevaluation(
        self, kind, engine, small_app, small_arch
    ):
        strategy = FACTORIES[kind](small_app, small_arch, 6, engine)
        result = strategy.search()
        fresh = Evaluator(small_app, small_arch)
        assert fresh.makespan_ms(result.best_solution) == (
            pytest.approx(result.best_cost)
        )

    def test_history_monotone_best_so_far(
        self, kind, engine, small_app, small_arch
    ):
        result = FACTORIES[kind](small_app, small_arch, 7, engine).search()
        assert result.history, "strategies keep history by default"
        for earlier, later in zip(result.history, result.history[1:]):
            assert later <= earlier
        assert result.history[-1] == result.best_cost

    def test_budget_respected(self, kind, engine, small_app, small_arch):
        budget = SearchBudget(iterations=3)
        result = FACTORIES[kind](small_app, small_arch, 8, engine).search(
            budget=budget
        )
        assert result.iterations_run <= 3

    def test_stall_budget_stops_early(
        self, kind, engine, small_app, small_arch
    ):
        strategy = FACTORIES[kind](small_app, small_arch, 9, engine)
        full = strategy.search()
        stalled = FACTORIES[kind](small_app, small_arch, 9, engine).search(
            budget=SearchBudget(stall_limit=2)
        )
        assert stalled.iterations_run <= full.iterations_run

    def test_seed_determinism(self, kind, engine, small_app, small_arch):
        a = FACTORIES[kind](small_app, small_arch, 11, engine).search()
        b = FACTORIES[kind](small_app, small_arch, 11, engine).search()
        assert a.best_cost == b.best_cost
        assert a.history == b.history
        assert a.iterations_run == b.iterations_run

    def test_step_callback_sees_each_iteration(
        self, kind, engine, small_app, small_arch
    ):
        steps = []
        result = FACTORIES[kind](small_app, small_arch, 12, engine).search(
            on_step=steps.append
        )
        assert len(steps) == result.iterations_run
        assert steps[-1].iteration == result.iterations_run
        assert steps[-1].best_cost == result.best_cost
        for earlier, later in zip(steps, steps[1:]):
            assert later.best_cost <= earlier.best_cost


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_engine_knob_does_not_change_results(kind, small_app, small_arch):
    """The engine is a speed knob, never a behavior knob: all three
    engines produce the identical search trajectory for a fixed seed."""
    reference = None
    for engine in ENGINES:
        result = FACTORIES[kind](small_app, small_arch, 21, engine).search()
        key = (result.best_cost, tuple(result.history), result.iterations_run)
        if reference is None:
            reference = key
        else:
            assert key == reference, engine
