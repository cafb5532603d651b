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

Both surfaces, this package and :mod:`repro.api`, load from one table
each: a name is imported from its defining module on first use (PEP
562), so ``import repro`` loads no submodule.  The subpackages export
nothing; import the defining module, e.g.
``from repro.service.service import ExplorationService``.
"""

import importlib

__version__ = "1.3.0"

#: Each public name, listed once under the module that defines it.
#: ``repro.StrategySpec`` is the runner-level job spec;
#: ``repro.api.StrategySpec`` is the spec-layer strategy document.
_EXPORTS = {
    "repro.errors": (
        "ReproError", "GraphError", "CycleError", "ModelError",
        "ArchitectureError", "CapacityError", "MappingError", "MoveError",
        "InfeasibleMoveError", "ConfigurationError", "TelemetryError",
        "ServiceError",
    ),
    "repro.graph.dag": ("Dag",),
    "repro.model.application": ("Application",),
    "repro.model.task": ("Implementation", "Task"),
    "repro.model.sdf": ("SdfActor", "SdfChannel", "SdfGraph"),
    "repro.model.generator": ("GeneratorConfig", "random_application"),
    "repro.model.motion": (
        "motion_detection_application", "MOTION_TOTAL_SW_TIME_MS",
    ),
    "repro.arch.architecture": ("Architecture", "epicure_architecture"),
    "repro.arch.asic": ("Asic",),
    "repro.arch.bus": ("Bus",),
    "repro.arch.processor": ("Processor",),
    "repro.arch.reconfigurable": ("ReconfigurableCircuit",),
    "repro.mapping.solution": ("Solution", "random_initial_solution"),
    "repro.mapping.engine": (
        "ENGINES", "Evaluation", "EvaluationEngine", "FullRebuildEngine",
        "IncrementalEngine", "make_engine",
    ),
    "repro.mapping.evaluator": ("Evaluator",),
    "repro.mapping.cost": ("MakespanCost", "SystemCost"),
    "repro.mapping.schedule": ("Schedule", "extract_schedule"),
    "repro.mapping.gantt": ("render_gantt",),
    "repro.mapping.simulator": (
        "ExecutionSimulator", "SimulationResult", "simulate",
    ),
    "repro.sa.schedules": (
        "GeometricSchedule", "LamDelosmeSchedule", "ModifiedLamSchedule",
    ),
    "repro.sa.moves": ("MoveGenerator",),
    "repro.sa.annealer": ("AnnealerConfig",),
    "repro.sa.explorer": ("DesignSpaceExplorer", "ExplorationResult"),
    "repro.search.strategy": (
        "SearchStrategy", "SearchBudget", "SearchResult",
    ),
    "repro.search.runner": (
        "StrategySpec", "InstanceSpec", "SearchJob", "run_search_jobs",
        "derive_seeds",
    ),
    "repro.search.portfolio": ("run_portfolio",),
    "repro.obs.telemetry": ("Telemetry",),
    "repro.service.service": ("ExplorationService",),
    "repro.service.store": ("ResultStore",),
    "repro.service.jobs": ("run_workers",),
    "repro.api": ("api",),
    "repro.api.specs": (
        "ApplicationSpec", "ArchitectureSpec", "BudgetSpec", "EngineSpec",
        "ExplorationRequest", "ExplorationResponse", "load_request",
    ),
    "repro.api.facade": ("explore",),
}


def _lazy_exports(namespace, table):
    """PEP 562 hooks for the package whose globals are ``namespace``:
    ``(__all__, __getattr__, __dir__)`` for the public names ``table``
    maps from their defining modules.  A name is imported on first use
    and then kept in ``namespace``; a name whose module is
    ``<package>.<name>`` is that subpackage itself."""
    package = namespace["__name__"]
    origin = {
        name: module for module, names in table.items() for name in names
    }

    def __getattr__(name):
        if name not in origin:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = importlib.import_module(origin[name])
        if origin[name] != f"{package}.{name}":
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(origin))

    return list(origin), __getattr__, __dir__


__all__, __getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
__all__.append("__version__")
