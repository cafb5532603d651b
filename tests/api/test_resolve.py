"""Resolution-pipeline tests: specs → live objects, once, correctly."""

import pickle

import pytest

from repro.api.resolve import (
    build_catalog,
    build_cost_function,
    resolve_application,
    resolve_architecture,
    resolve_request,
    resolve_strategy,
)
from repro.api.specs import (
    ApplicationSpec,
    ArchitectureSpec,
    BudgetSpec,
    EngineSpec,
    ExplorationRequest,
    StrategySpec,
)
from repro.arch.asic import Asic
from repro.arch.processor import Processor
from repro.arch.reconfigurable import ReconfigurableCircuit
from repro.errors import ConfigurationError
from repro.io import (
    ProblemInstance,
    application_to_dict,
    architecture_to_dict,
    dump_application,
    instance_to_dict,
)
from repro.mapping.cost import MakespanCost, SystemCost
from repro.model.generator import GeneratorConfig, random_application
from repro.model.motion import MOTION_DEADLINE_MS


def tiny_app(seed=9):
    return random_application(
        GeneratorConfig(num_tasks=5), seed=seed, name="tiny5"
    )


class TestResolveApplication:
    def test_builtin_motion(self):
        problem = resolve_application(ApplicationSpec())
        assert problem.application.name == "motion_detection"
        assert len(problem.application) == 28
        assert problem.deadline_ms == MOTION_DEADLINE_MS
        assert problem.architecture is None

    def test_generated_is_deterministic(self):
        spec = ApplicationSpec(
            kind="generated", generator={"num_tasks": 10}, seed=4
        )
        one = resolve_application(spec).application
        two = resolve_application(spec).application
        assert dump_application(one) == dump_application(two)
        assert len(one) == 10

    def test_bundled_document_supplies_platform_and_deadline(self):
        from repro.arch.architecture import epicure_architecture

        document = instance_to_dict(ProblemInstance(
            tiny_app(), epicure_architecture(n_clbs=700),
            deadline_ms=9.0, name="bundle",
        ))
        problem = resolve_application(
            ApplicationSpec(kind="bundled", document=document)
        )
        assert problem.architecture is not None
        assert problem.deadline_ms == 9.0

    def test_inline_path(self, tmp_path):
        path = tmp_path / "app.json"
        path.write_text(dump_application(tiny_app()))
        problem = resolve_application(
            ApplicationSpec(kind="inline", path=str(path))
        )
        assert problem.application.name == "tiny5"

    def test_inline_wrong_format_is_loud(self):
        with pytest.raises(ConfigurationError, match="application"):
            resolve_application(ApplicationSpec(
                kind="inline", document={"format": "solution", "version": 1},
            ))


class TestResolveArchitecture:
    def test_default_is_epicure(self):
        arch = resolve_architecture(None)
        assert [type(r).__name__ for r in arch.resources()] == [
            "Processor", "ReconfigurableCircuit",
        ]

    def test_builtin_options_forwarded(self):
        arch = resolve_architecture(ArchitectureSpec(
            n_clbs=500, options={"bus_rate_kbytes_per_ms": 5.0},
        ))
        assert arch.bus.rate_kbytes_per_ms == 5.0

    def test_unknown_builtin_option_is_loud(self):
        with pytest.raises(ConfigurationError, match="invalid option"):
            resolve_architecture(
                ArchitectureSpec(options={"bus_speed": 5.0})
            )

    def test_explicit_spec_wins_over_bundle(self):
        from repro.arch.architecture import epicure_architecture

        bundled = epicure_architecture(n_clbs=700)
        arch = resolve_architecture(ArchitectureSpec(n_clbs=300), bundled)
        assert arch.reconfigurable_circuits()[0].n_clbs == 300

    def test_inline_document(self):
        from repro.arch.architecture import epicure_architecture

        document = architecture_to_dict(epicure_architecture(n_clbs=900))
        arch = resolve_architecture(
            ArchitectureSpec(kind="inline", document=document)
        )
        assert arch.reconfigurable_circuits()[0].n_clbs == 900


class TestResolveStrategy:
    def test_sa_folding_is_key_minimal(self):
        spec = resolve_strategy(
            StrategySpec("sa", {"keep_trace": False}),
            BudgetSpec(iterations=800, warmup_iterations=200),
            EngineSpec("full"),
        )
        # exactly the keys the historical hand-assembled jobs used, so
        # fingerprints (and therefore old checkpoints) stay compatible
        assert set(spec.options) == {
            "iterations", "warmup_iterations", "keep_trace", "engine",
        }
        assert spec.options["iterations"] == 800
        assert spec.options["warmup_iterations"] == 200
        assert spec.options["engine"] == "full"

    def test_sa_warmup_defaults_from_iterations(self):
        from repro.sa.annealer import default_warmup

        spec = resolve_strategy(
            StrategySpec("sa"), BudgetSpec(iterations=800), EngineSpec(),
        )
        assert spec.options["warmup_iterations"] == default_warmup(800)

    def test_iterations_map_to_natural_units(self):
        ga = resolve_strategy(
            StrategySpec("ga"), BudgetSpec(iterations=30), EngineSpec()
        )
        assert ga.options["generations"] == 30
        rnd = resolve_strategy(
            StrategySpec("random"), BudgetSpec(iterations=50), EngineSpec()
        )
        assert rnd.options["samples"] == 50

    def test_stall_limit_folds_into_sa(self):
        spec = resolve_strategy(
            StrategySpec("sa"),
            BudgetSpec(iterations=500, stall_limit=40),
            EngineSpec(),
        )
        assert spec.options["stall_limit"] == 40

    def test_cost_and_catalog_become_live_objects(self):
        spec = resolve_strategy(
            StrategySpec(
                "sa",
                {"p_zero": 0.05},
                cost={"kind": "system", "deadline_ms": 40.0},
                catalog=(
                    {"kind": "processor"},
                    {"kind": "reconfigurable", "n_clbs": 400,
                     "reconfig_ms_per_clb": 0.02},
                    {"kind": "asic"},
                ),
            ),
            BudgetSpec(iterations=100),
            EngineSpec(),
        )
        assert isinstance(spec.options["cost_function"], SystemCost)
        factories = spec.options["catalog"]
        assert isinstance(factories[0]("p"), Processor)
        assert isinstance(factories[1]("r"), ReconfigurableCircuit)
        assert isinstance(factories[2]("a"), Asic)

    def test_spec_built_catalog_pickles(self):
        # unlike lambda catalogs, spec-built factories cross the
        # runner's spawn boundary
        factories = build_catalog(({"kind": "asic", "monetary_cost": 2.0},))
        clone = pickle.loads(pickle.dumps(factories))
        assert isinstance(clone[0]("a"), Asic)

    def test_invalid_catalog_params_fail_at_resolve(self):
        with pytest.raises(ConfigurationError, match="catalog"):
            build_catalog(({"kind": "processor", "clock_ghz": 3.0},))

    def test_cost_kinds(self):
        assert build_cost_function(None) is None
        assert isinstance(
            build_cost_function({"kind": "makespan"}), MakespanCost
        )


class TestResolveRequest:
    def test_single_seed_plan(self):
        resolved = resolve_request(ExplorationRequest(seed=3))
        assert [job.seed for job in resolved.jobs] == [3]
        assert resolved.deadline_ms == MOTION_DEADLINE_MS

    def test_batch_consecutive_seeds(self):
        resolved = resolve_request(
            ExplorationRequest(kind="batch", seed=10, runs=3)
        )
        assert [job.seed for job in resolved.jobs] == [10, 11, 12]

    def test_batch_explicit_seeds_win(self):
        resolved = resolve_request(
            ExplorationRequest(kind="batch", seed=10, seeds=(4, 8))
        )
        assert [job.seed for job in resolved.jobs] == [4, 8]

    def test_sweep_uses_historical_formula(self):
        resolved = resolve_request(ExplorationRequest(
            kind="sweep", seed=1, sizes=(300, 600), runs=2,
            application=ApplicationSpec(
                kind="inline", document=application_to_dict(tiny_app()),
            ),
        ))
        assert [job.seed for job in resolved.jobs] == [
            1 + 1000 * 0 + 300, 1 + 1000 * 1 + 300,
            1 + 1000 * 0 + 600, 1 + 1000 * 1 + 600,
        ]
        assert resolved.deadline_ms == 40.0  # historical sweep default
