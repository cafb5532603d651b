"""Public-surface tests: smoke plus the pinned API snapshot.

The snapshot lists are the contract: a symbol disappearing from
``repro`` or ``repro.api`` fails here *by name*, so breakage is a
deliberate, reviewed event (update the list in the same commit) rather
than an accident.
"""

import repro
import repro.api

#: The pinned public surface of the top-level package.
REPRO_SURFACE = sorted([
    # errors
    "ReproError", "GraphError", "CycleError", "ModelError",
    "ArchitectureError", "CapacityError", "MappingError", "MoveError",
    "InfeasibleMoveError", "ConfigurationError", "TelemetryError",
    "ServiceError",
    # graph
    "Dag",
    # model
    "Application", "Implementation", "Task",
    "SdfActor", "SdfChannel", "SdfGraph",
    "GeneratorConfig", "random_application",
    "motion_detection_application", "MOTION_TOTAL_SW_TIME_MS",
    # architecture
    "Architecture", "Asic", "Bus", "Processor", "ReconfigurableCircuit",
    "epicure_architecture",
    # mapping
    "Evaluation", "Evaluator", "MakespanCost", "Schedule", "Solution",
    "SystemCost", "extract_schedule", "random_initial_solution",
    "render_gantt", "ExecutionSimulator", "SimulationResult", "simulate",
    "ENGINES", "EvaluationEngine", "FullRebuildEngine",
    "IncrementalEngine", "make_engine",
    # annealing
    "AnnealerConfig", "DesignSpaceExplorer", "ExplorationResult",
    "GeometricSchedule", "LamDelosmeSchedule", "ModifiedLamSchedule",
    "MoveGenerator",
    # search subsystem
    "SearchStrategy", "SearchBudget", "SearchResult",
    "StrategySpec", "InstanceSpec", "SearchJob",
    "run_search_jobs", "run_portfolio", "derive_seeds",
    # observability
    "Telemetry",
    # exploration service
    "ExplorationService", "ResultStore", "run_workers",
    # declarative public API
    "api", "ApplicationSpec", "ArchitectureSpec", "BudgetSpec",
    "EngineSpec", "ExplorationRequest", "ExplorationResponse",
    "explore", "load_request",
    "__version__",
])

#: The pinned public surface of the spec/façade layer.
API_SURFACE = sorted([
    "SCHEMA_VERSION",
    "APPLICATION_KINDS", "ARCHITECTURE_KINDS", "REQUEST_KINDS",
    "ApplicationSpec", "ArchitectureSpec", "StrategySpec",
    "BudgetSpec", "EngineSpec",
    "ExplorationRequest", "ExplorationResponse", "load_request",
    "BUILTIN_APPLICATIONS", "BUILTIN_ARCHITECTURES",
    "ResolvedProblem", "ResolvedRequest",
    "resolve_application", "resolve_architecture", "resolve_request",
    "resolve_strategy",
    "environment_stamp", "evaluation_to_dict", "explore",
    "load_response",
])


class TestApiSurfaceSnapshot:
    def test_repro_surface_is_pinned(self):
        assert sorted(repro.__all__) == REPRO_SURFACE

    def test_repro_api_surface_is_pinned(self):
        assert sorted(repro.api.__all__) == API_SURFACE

    def test_all_api_exports_resolve(self):
        for name in repro.api.__all__:
            assert getattr(repro.api, name, None) is not None, name


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_quickstart_surface(self):
        app = repro.motion_detection_application()
        arch = repro.epicure_architecture(n_clbs=2000)
        explorer = repro.DesignSpaceExplorer(
            app, arch, iterations=300, warmup_iterations=60, seed=0
        )
        result = explorer.run()
        assert result.best_evaluation.feasible

    def test_spec_quickstart_surface(self):
        request = repro.ExplorationRequest(
            budget=repro.BudgetSpec(iterations=300, warmup_iterations=60),
            seed=0,
        )
        response = repro.explore(request)
        assert response.best["evaluation"]["feasible"]

    def test_errors_are_catchable_via_base(self):
        try:
            repro.Bus(rate_kbytes_per_ms=-1)
        except repro.ReproError:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected ReproError")
