"""The declarative public API: versioned specs, one resolution
pipeline, one façade.

Every workload is expressible as data — an
:class:`~repro.api.specs.ExplorationRequest` JSON document — and every
client (the CLI, the experiment modules, the bench suites, the
examples, or a network service speaking JSON) executes it the same way:

    from repro.api import ExplorationRequest, BudgetSpec, explore

    request = ExplorationRequest(
        kind="single",
        budget=BudgetSpec(iterations=8000, warmup_iterations=1200),
        seed=7,
    )
    response = explore(request, jobs=1)
    print(response.best["cost"], response.best["evaluation"])
    print(response.to_json())            # the serializable envelope

Specs round-trip through JSON byte-stably, reject unknown keys, and are
stamped with ``schema_version`` — see :mod:`repro.api.specs`, which also
holds the response envelope.

The names below load from one table, each from its defining module on
first use (PEP 562): ``from repro.api import ExplorationRequest`` loads
the specs, not the façade's search stack.
"""

from repro import _lazy_exports

#: Each public name, listed once under the module that defines it.
_EXPORTS = {
    "repro.api.specs": (
        "SCHEMA_VERSION", "APPLICATION_KINDS", "ARCHITECTURE_KINDS",
        "REQUEST_KINDS", "ApplicationSpec", "ArchitectureSpec",
        "StrategySpec", "BudgetSpec", "EngineSpec", "ExplorationRequest",
        "load_request", "ExplorationResponse", "environment_stamp",
        "load_response",
    ),
    "repro.api.resolve": (
        "BUILTIN_APPLICATIONS", "BUILTIN_ARCHITECTURES", "ResolvedProblem",
        "ResolvedRequest", "resolve_application", "resolve_architecture",
        "resolve_request", "resolve_strategy",
    ),
    "repro.api.facade": ("evaluation_to_dict", "explore"),
}

__all__, __getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
