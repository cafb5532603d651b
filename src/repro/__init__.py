"""repro — design-space exploration for dynamically reconfigurable
architectures.

A production-quality reproduction of Miramond & Delosme, *Design Space
Exploration for Dynamically Reconfigurable Architectures*, DATE 2005:
adaptive simulated annealing that simultaneously explores HW/SW spatial
partitioning, temporal partitioning into FPGA contexts, software
scheduling and bus transaction ordering, evaluated by the longest path
of a sequentialization-edge-augmented search graph.

Quickstart — the declarative public API (``repro.api``): describe the
workload as data, run it through the one façade::

    from repro.api import BudgetSpec, ExplorationRequest, explore

    request = ExplorationRequest(          # defaults: the paper's
        kind="single",                     # motion benchmark on a
        budget=BudgetSpec(iterations=5000),  # 2000-CLB EPICURE device
        seed=1,
    )
    response = explore(request)
    print(response.best["evaluation"]["makespan_ms"])
    open("run.json", "w").write(request.to_json())  # reproduce via
    # `python -m repro explore --spec run.json` — same seed, same result

The imperative objects remain available for programmatic use::

    from repro import (
        motion_detection_application, epicure_architecture,
        DesignSpaceExplorer,
    )

    app = motion_detection_application()
    arch = epicure_architecture(n_clbs=2000)
    explorer = DesignSpaceExplorer(app, arch, iterations=5000, seed=1)
    result = explorer.run()
    print(result.best_evaluation.makespan_ms)
"""

from repro.errors import (
    ReproError,
    GraphError,
    CycleError,
    ModelError,
    ArchitectureError,
    CapacityError,
    MappingError,
    MoveError,
    InfeasibleMoveError,
    ConfigurationError,
    TelemetryError,
    ServiceError,
)
from repro.graph import Dag
from repro.model import (
    Application,
    GeneratorConfig,
    Implementation,
    SdfActor,
    SdfChannel,
    SdfGraph,
    Task,
    motion_detection_application,
    random_application,
    MOTION_TOTAL_SW_TIME_MS,
)
from repro.arch import (
    Architecture,
    Asic,
    Bus,
    Processor,
    ReconfigurableCircuit,
    epicure_architecture,
)
from repro.mapping import (
    ENGINES,
    Evaluation,
    EvaluationEngine,
    Evaluator,
    ExecutionSimulator,
    FullRebuildEngine,
    IncrementalEngine,
    MakespanCost,
    make_engine,
    Schedule,
    SimulationResult,
    Solution,
    SystemCost,
    extract_schedule,
    random_initial_solution,
    render_gantt,
    simulate,
)
from repro.sa import (
    AnnealerConfig,
    DesignSpaceExplorer,
    ExplorationResult,
    GeometricSchedule,
    LamDelosmeSchedule,
    ModifiedLamSchedule,
    MoveGenerator,
)
from repro.search import (
    InstanceSpec,
    SearchBudget,
    SearchJob,
    SearchResult,
    SearchStrategy,
    StrategySpec,
    derive_seeds,
    run_portfolio,
    run_search_jobs,
)
from repro.obs import Telemetry
from repro.service import ExplorationService, ResultStore, run_workers
from repro import api
from repro.api import (
    ApplicationSpec,
    ArchitectureSpec,
    BudgetSpec,
    EngineSpec,
    ExplorationRequest,
    ExplorationResponse,
    explore,
    load_request,
)

__version__ = "1.3.0"

__all__ = [
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
    # declarative public API (note: repro.api.StrategySpec is the
    # spec-layer strategy document; repro.StrategySpec stays the
    # runner-level job spec)
    "api", "ApplicationSpec", "ArchitectureSpec", "BudgetSpec",
    "EngineSpec", "ExplorationRequest", "ExplorationResponse",
    "explore", "load_request",
    "__version__",
]
