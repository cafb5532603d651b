"""The one resolution pipeline: specs → concrete objects → runner jobs.

Every client (the CLI, the experiments, the examples and the
exploration service) materializes :mod:`repro.api.specs` documents
through this module, so there is exactly one place where "builtin
motion", "generated tgff/60" or "the bundled instance at this path"
turns into live :class:`~repro.model.application.Application` /
:class:`~repro.arch.architecture.Architecture` / strategy objects, and
one seed plan that turns a request of any kind into the
:class:`~repro.search.runner.SearchJob` list the façade runs.
Deserialization reuses the :mod:`repro.io` loaders verbatim — the spec
layer adds no second copy of the format glue.

Resolving an application or an architecture is on the service's
cache-key path, so this module imports the search stack (runner,
portfolio, strategies, cost functions) only inside the functions that
build runner jobs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.api.specs import (
    ApplicationSpec,
    ArchitectureSpec,
    BudgetSpec,
    EngineSpec,
    ExplorationRequest,
    StrategySpec,
)
from repro.arch.architecture import Architecture, epicure_architecture
from repro.arch.asic import Asic
from repro.arch.processor import Processor
from repro.arch.reconfigurable import ReconfigurableCircuit
from repro.errors import ConfigurationError
from repro.model.application import Application
from repro.model.generator import GeneratorConfig, random_application
from repro.model.motion import MOTION_DEADLINE_MS, motion_detection_application

if TYPE_CHECKING:
    from repro.mapping.cost import CostFunction
    from repro.search.runner import SearchJob
    from repro.search.runner import StrategySpec as RunnerStrategySpec
    from repro.search.strategy import SearchBudget

#: Named builtin applications an ``ApplicationSpec(kind="builtin")``
#: may reference.
BUILTIN_APPLICATIONS = {
    "motion": motion_detection_application,
}

#: Deadlines shipped with the builtin applications.
BUILTIN_DEADLINES_MS = {
    "motion": MOTION_DEADLINE_MS,
}

#: Named builtin architectures (builders taking ``n_clbs`` + options).
BUILTIN_ARCHITECTURES = {
    "epicure": epicure_architecture,
}


# ----------------------------------------------------------------------
# application / architecture
# ----------------------------------------------------------------------
@dataclass
class ResolvedProblem:
    """An application plus whatever platform context came with it (a
    bundled instance carries its own architecture and deadline)."""

    application: Application
    architecture: Optional[Architecture] = None
    deadline_ms: Optional[float] = None


def load_json_document(path: str, what: str) -> Dict[str, Any]:
    """Read one JSON object with spec-grade error messages."""
    import json

    try:
        with open(path) as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {what} file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{what} file {path!r} is not valid JSON: {exc}"
        ) from None
    if not isinstance(document, dict):
        raise ConfigurationError(
            f"{what} file {path!r} must hold a JSON object, "
            f"got {type(document).__name__}"
        )
    return document


def _read_document(spec, what: str) -> Dict[str, Any]:
    if spec.document is not None:
        if not isinstance(spec.document, dict):
            raise ConfigurationError(
                f"{what} document must be a JSON object, "
                f"got {type(spec.document).__name__}"
            )
        return spec.document
    return load_json_document(spec.path, what)


def resolve_application(spec: ApplicationSpec) -> ResolvedProblem:
    """Materialize an application spec (fresh objects every call)."""
    from repro.io import application_from_dict, instance_from_dict

    spec.validate()
    if spec.kind == "builtin":
        return ResolvedProblem(
            application=BUILTIN_APPLICATIONS[spec.name](),
            deadline_ms=BUILTIN_DEADLINES_MS.get(spec.name),
        )
    if spec.kind == "generated":
        config = GeneratorConfig(**dict(spec.generator))
        return ResolvedProblem(
            application=random_application(config, seed=spec.seed)
        )
    if spec.kind == "bundled":
        instance = instance_from_dict(_read_document(spec, "bundled instance"))
        return ResolvedProblem(
            application=instance.application,
            architecture=instance.architecture,
            deadline_ms=instance.deadline_ms,
        )
    # inline application document
    return ResolvedProblem(
        application=application_from_dict(_read_document(spec, "application"))
    )


def resolve_architecture(
    spec: Optional[ArchitectureSpec],
    bundled: Optional[Architecture] = None,
) -> Architecture:
    """Materialize the platform: an explicit spec wins, then the bundled
    instance's architecture, then the builtin EPICURE default."""
    from repro.io import architecture_from_dict

    if spec is None:
        if bundled is not None:
            return bundled
        spec = ArchitectureSpec()
    spec.validate()
    if spec.kind == "builtin":
        builder = BUILTIN_ARCHITECTURES[spec.name]
        try:
            return builder(n_clbs=spec.n_clbs, **dict(spec.options))
        except TypeError as exc:
            raise ConfigurationError(
                f"invalid option for builtin architecture {spec.name!r}: {exc}"
            ) from None
    return architecture_from_dict(_read_document(spec, "architecture"))


# ----------------------------------------------------------------------
# cost functions and resource catalogs
# ----------------------------------------------------------------------
def build_cost_function(cost: Optional[Dict[str, Any]]) -> Optional[CostFunction]:
    """Declarative cost spec → live :class:`CostFunction` (or ``None``
    for the strategy default)."""
    from repro.mapping.cost import MakespanCost, SystemCost

    if cost is None:
        return None
    if cost["kind"] == "makespan":
        return MakespanCost()
    return SystemCost(
        deadline_ms=cost["deadline_ms"],
        penalty_per_ms=cost.get("penalty_per_ms", 10.0),
    )


def _make_processor(name: str, **params: Any) -> Processor:
    return Processor(name, **params)


def _make_reconfigurable(name: str, **params: Any) -> ReconfigurableCircuit:
    return ReconfigurableCircuit(name, **params)


def _make_asic(name: str, **params: Any) -> Asic:
    return Asic(name, **params)


_CATALOG_BUILDERS = {
    "processor": _make_processor,
    "reconfigurable": _make_reconfigurable,
    "asic": _make_asic,
}


def build_catalog(entries) -> Optional[List[Any]]:
    """Declarative catalog entries → resource factories.

    The factories are :func:`functools.partial` objects over top-level
    builders, so — unlike the lambda catalogs of the historical examples
    — a spec-built catalog pickles across the runner's ``spawn``
    boundary and works with ``jobs=N``.
    """
    if not entries:
        return None
    factories = []
    for entry in entries:
        params = {k: v for k, v in entry.items() if k != "kind"}
        try:
            builder = _CATALOG_BUILDERS[entry["kind"]]
            builder("__probe__", **params)  # fail at resolve, not mid-run
        except TypeError as exc:
            raise ConfigurationError(
                f"invalid catalog {entry['kind']!r} params: {exc}"
            ) from None
        factories.append(functools.partial(builder, **params))
    return factories


# ----------------------------------------------------------------------
# strategy folding
# ----------------------------------------------------------------------
def resolve_strategy(
    strategy: StrategySpec,
    budget: BudgetSpec,
    engine: EngineSpec,
) -> RunnerStrategySpec:
    """Fold strategy + budget + engine into one runner spec.

    The kind's :data:`~repro.search.runner.STRATEGY_KINDS` entry says
    where the budget goes: its iterations set the kind's ``unit``
    option (``iterations``, ``generations`` or ``samples``), and an
    annealer also takes the warm-up and the stall limit.  The folding
    is key-minimal: only knobs that are actually set appear in the
    options dict, so spec-driven runs produce the same strategy
    fingerprints (hence reuse the same JSONL checkpoints) as the
    historical hand-assembled jobs.
    """
    from repro.search.runner import STRATEGY_KINDS
    from repro.search.runner import StrategySpec as RunnerStrategySpec

    strategy.validate()
    budget.validate()
    engine.validate()
    kind = STRATEGY_KINDS[strategy.kind]
    options: Dict[str, Any] = dict(strategy.options)
    if budget.iterations is not None:
        options[kind.unit] = budget.iterations
    if kind.anneals:
        from repro.sa.annealer import default_warmup

        if budget.warmup_iterations is not None:
            options["warmup_iterations"] = budget.warmup_iterations
        elif (
            "warmup_iterations" not in options
            and budget.iterations is not None
        ):
            options["warmup_iterations"] = default_warmup(budget.iterations)
        if budget.stall_limit is not None:
            options["stall_limit"] = budget.stall_limit
    # Engine options select nothing (see EngineSpec), so only the kind
    # is folded: a bare string, as in historical checkpoint fingerprints.
    options["engine"] = engine.kind
    cost_function = build_cost_function(strategy.cost)
    if cost_function is not None:
        options["cost_function"] = cost_function
    catalog = build_catalog(strategy.catalog)
    if catalog is not None:
        options["catalog"] = catalog
    spec = RunnerStrategySpec(strategy.kind, options)
    spec.validate()
    return spec


def resolve_budget(budget: BudgetSpec) -> Optional[SearchBudget]:
    """The wall-clock / stall part of the budget as a
    :class:`SearchBudget` (``None`` when neither limit is set; the
    iteration budget is folded into the strategy options instead so
    historical fingerprints stay stable)."""
    from repro.search.strategy import SearchBudget

    if budget.time_limit_s is None and budget.stall_limit is None:
        return None
    return SearchBudget(
        time_limit_s=budget.time_limit_s,
        stall_limit=budget.stall_limit,
    )


# ----------------------------------------------------------------------
# the request
# ----------------------------------------------------------------------
@dataclass
class ResolvedRequest:
    """The runner jobs a request resolves to, and the deadline their
    best run is judged against."""

    jobs: List[SearchJob]
    deadline_ms: Optional[float] = None


def sweep_seed(seed0: int, n_clbs: int, run: int) -> int:
    """The historical Fig. 3 seeding formula — shared so spec-driven
    sweeps reproduce archived hand-wired ones bit-for-bit."""
    return seed0 + 1000 * run + n_clbs


def resolve_request(request: ExplorationRequest) -> ResolvedRequest:
    """Materialize a request into its runner jobs — the one seed plan.

    Single and batch requests run one job per seed (``[seed]``, the
    explicit ``seeds`` or ``seed + r``), tagged by position; a sweep
    runs one job per ``(n_clbs, r)`` cell, seeded by :func:`sweep_seed`
    and tagged ``[n_clbs, r]``; a portfolio runs
    :func:`~repro.search.portfolio.portfolio_jobs`, tagged by kind.
    Every job carries the request's wall-clock and stall limits.
    """
    from repro.search.portfolio import PORTFOLIO_KINDS, portfolio_jobs
    from repro.search.runner import InstanceSpec, SearchJob

    request.validate()
    problem = resolve_application(request.application)
    application = problem.application
    architecture = resolve_architecture(
        request.architecture, bundled=problem.architecture
    )
    # Folded for every kind, a portfolio's unused one too, so a bad
    # strategy spec fails the same way whatever the request's kind.
    strategy = resolve_strategy(
        request.strategy, request.budget, request.engine
    )
    budget = resolve_budget(request.budget)
    deadline = request.deadline_ms
    if deadline is None:
        deadline = problem.deadline_ms
    if deadline is None and request.kind == "sweep":
        deadline = 40.0  # the paper's constraint, the historical default
    instance = InstanceSpec(application, architecture=architecture)
    if request.kind == "portfolio":
        iterations = request.budget.iterations
        jobs = portfolio_jobs(
            instance,
            iterations=iterations if iterations is not None else 8000,
            seed=request.seed,
            engine=request.engine.kind,
            kinds=request.portfolio_kinds or PORTFOLIO_KINDS,
            warmup_iterations=request.budget.warmup_iterations,
            budget=budget,
        )
        return ResolvedRequest(jobs, deadline)
    if request.kind == "sweep":
        cells = [
            (InstanceSpec(application, n_clbs=n_clbs),
             sweep_seed(request.seed, n_clbs, r), [n_clbs, r])
            for n_clbs in request.sizes
            for r in range(request.runs)
        ]
    else:
        if request.seeds is not None:
            seeds = list(request.seeds)
        else:  # a single request has runs == 1
            seeds = [request.seed + r for r in range(request.runs)]
        cells = [
            (instance, seed, position) for position, seed in enumerate(seeds)
        ]
    # A warm start (single and batch requests only) is decoded against
    # the live objects the jobs' instance holds, so each pickled job
    # stays one consistent object graph.
    initial = None
    if request.strategy.initial_solution is not None:
        from repro.mapping.seed import seed_solution

        initial, _repairs = seed_solution(
            request.strategy.initial_solution, application, architecture
        )
    anytime = request.budget.anytime
    if anytime is not None:
        anytime = dict(anytime)
    jobs = [
        SearchJob(
            strategy, cell_instance, seed=seed, tag=tag, initial=initial,
            budget=budget, anytime=anytime,
        )
        for cell_instance, seed, tag in cells
    ]
    return ResolvedRequest(jobs, deadline)
