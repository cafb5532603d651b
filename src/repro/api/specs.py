"""Typed, versioned, JSON-round-trippable request specs.

Every workload this repository can run — a single annealing run, a
multi-seed batch, a strategy-portfolio race, a device-size sweep grid —
is expressible as one :class:`ExplorationRequest` document.  The specs
are plain frozen dataclasses with ``to_dict``/``from_dict`` (and
``to_json``/``from_json`` on the request), a ``schema_version`` stamp,
defaulting for omitted keys, and **unknown-key rejection**: a misspelled
knob in a spec file must fail loudly with the list of accepted keys,
never run a silently different experiment.

Serialization is canonical: ``to_json`` always emits the *full* spec
(every field, in declaration order), so spec files are byte-stable
across round trips — the golden fixtures under ``tests/api/fixtures``
pin this.

The specs only *describe* a workload; :mod:`repro.api.resolve` is the
one pipeline that materializes them into concrete model / architecture
/ search objects, and :func:`repro.api.facade.explore` executes them.
The answer is the other versioned document kept here, the
:class:`ExplorationResponse` envelope with its environment stamp, so
the service's store reads and writes envelopes without importing the
execution stack.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro import __version__
from repro.errors import ConfigurationError

#: Version of the ``ExplorationRequest`` document format.  Bump it when
#: a field changes meaning; ``from_dict`` rejects documents stamped with
#: a newer version than this library understands.
SCHEMA_VERSION = 1

#: ``ApplicationSpec.kind`` values.
APPLICATION_KINDS = ("builtin", "generated", "bundled", "inline")

#: ``ArchitectureSpec.kind`` values.
ARCHITECTURE_KINDS = ("builtin", "inline")

#: ``ExplorationRequest.kind`` values.
REQUEST_KINDS = ("single", "batch", "portfolio", "sweep")

#: ``StrategySpec.cost`` kinds (see :mod:`repro.mapping.cost`).
COST_KINDS = ("makespan", "system")

#: Declarative catalog entry kinds (the :mod:`repro.io` resource
#: vocabulary, minus the per-instance ``name`` the move generator adds).
CATALOG_KINDS = ("processor", "reconfigurable", "asic")


# ----------------------------------------------------------------------
# shared (de)serialization machinery
# ----------------------------------------------------------------------
def _reject_unknown(data: Mapping[str, Any], known, what: str) -> None:
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) in {what}: {sorted(unknown)}; "
            f"accepted keys: {sorted(known)}"
        )


def _require_mapping(value: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ConfigurationError(
            f"{what} must be a JSON object, got {type(value).__name__}"
        )
    return value


def _json_clean(value: Any, what: str) -> Any:
    """Round ``value`` through JSON so specs only ever hold plain data
    (rejects callables, sets, custom objects with a pointed message)."""
    try:
        return json.loads(json.dumps(value))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"{what} must be JSON-serializable data: {exc}"
        ) from None


class _SpecBase:
    """``to_dict``/``from_dict`` via dataclass introspection."""

    #: Field names omitted from ``to_dict`` while ``None``.  Fields added
    #: after a format shipped go here: the canonical document (and hence
    #: every golden fixture and pinned content hash) stays byte-identical
    #: until a request actually uses the new field.
    _OMIT_WHEN_NONE: frozenset = frozenset()

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is None and f.name in self._OMIT_WHEN_NONE:
                continue
            if isinstance(value, _SpecBase):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = [
                    v.to_dict() if isinstance(v, _SpecBase) else v
                    for v in value
                ]
            elif isinstance(value, Mapping):
                value = dict(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "_SpecBase":
        data = _require_mapping(data, f"{cls.__name__} spec")
        names = [f.name for f in dataclasses.fields(cls)]
        _reject_unknown(data, names, f"{cls.__name__} spec")
        return cls(**{name: data[name] for name in names if name in data})


# ----------------------------------------------------------------------
# application
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ApplicationSpec(_SpecBase):
    """What to map.

    ``kind`` selects the source:

    * ``"builtin"`` — a named builtin (``name="motion"``, the paper's
      28-task benchmark);
    * ``"generated"`` — :class:`~repro.model.generator.GeneratorConfig`
      knobs in ``generator`` plus the generator ``seed``;
    * ``"bundled"`` — a self-contained problem instance (application ×
      architecture × deadline) as produced by
      :func:`repro.io.dump_instance`, inline in ``document`` or at
      ``path``; the bundle's architecture and deadline become the
      request defaults;
    * ``"inline"`` — an application document
      (:func:`repro.io.dump_application`) inline in ``document`` or at
      ``path``.
    """

    kind: str = "builtin"
    name: str = "motion"
    generator: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    path: Optional[str] = None
    document: Optional[Dict[str, Any]] = None

    def validate(self) -> None:
        if self.kind not in APPLICATION_KINDS:
            raise ConfigurationError(
                f"unknown application kind {self.kind!r}; "
                f"known: {list(APPLICATION_KINDS)}"
            )
        if self.kind == "builtin":
            from repro.api.resolve import BUILTIN_APPLICATIONS

            if self.name not in BUILTIN_APPLICATIONS:
                raise ConfigurationError(
                    f"unknown builtin application {self.name!r}; "
                    f"known: {sorted(BUILTIN_APPLICATIONS)}"
                )
        elif self.kind == "generated":
            from repro.model.generator import GeneratorConfig

            generator = _require_mapping(
                self.generator, "ApplicationSpec.generator"
            )
            names = [f.name for f in dataclasses.fields(GeneratorConfig)]
            _reject_unknown(generator, names, "ApplicationSpec.generator")
            GeneratorConfig(**generator).validate()
        elif (self.path is None) == (self.document is None):
            raise ConfigurationError(
                f"application kind {self.kind!r} needs exactly one of "
                f"'path' or 'document'"
            )


# ----------------------------------------------------------------------
# architecture
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ArchitectureSpec(_SpecBase):
    """What to map onto.

    ``"builtin"`` builds the paper's EPICURE platform
    (:func:`repro.arch.architecture.epicure_architecture`) at ``n_clbs``
    capacity with optional builder ``options`` (e.g.
    ``bus_rate_kbytes_per_ms``); ``"inline"`` loads an architecture
    document (:func:`repro.io.dump_architecture`) from ``document`` or
    ``path``.
    """

    kind: str = "builtin"
    name: str = "epicure"
    n_clbs: int = 2000
    options: Dict[str, Any] = field(default_factory=dict)
    path: Optional[str] = None
    document: Optional[Dict[str, Any]] = None

    def validate(self) -> None:
        if self.kind not in ARCHITECTURE_KINDS:
            raise ConfigurationError(
                f"unknown architecture kind {self.kind!r}; "
                f"known: {list(ARCHITECTURE_KINDS)}"
            )
        if self.kind == "builtin":
            from repro.api.resolve import BUILTIN_ARCHITECTURES

            if self.name not in BUILTIN_ARCHITECTURES:
                raise ConfigurationError(
                    f"unknown builtin architecture {self.name!r}; "
                    f"known: {sorted(BUILTIN_ARCHITECTURES)}"
                )
            if self.n_clbs < 1:
                raise ConfigurationError("architecture n_clbs must be >= 1")
            _require_mapping(self.options, "ArchitectureSpec.options")
        elif (self.path is None) == (self.document is None):
            raise ConfigurationError(
                "architecture kind 'inline' needs exactly one of "
                "'path' or 'document'"
            )


# ----------------------------------------------------------------------
# strategy / budget / engine
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StrategySpec(_SpecBase):
    """Which searcher to run.

    ``kind`` keys into the runner's strategy registry
    (:data:`repro.search.runner.STRATEGY_KINDS`); ``options`` are that
    strategy's plain-data knobs.  The two knobs whose runtime form is
    not JSON — the architecture-exploration resource ``catalog`` and the
    ``cost`` function — have declarative fields here and are built into
    live objects by :mod:`repro.api.resolve`.
    """

    kind: str = "sa"
    options: Dict[str, Any] = field(default_factory=dict)
    #: ``{"kind": "makespan"}`` (default) or ``{"kind": "system",
    #: "deadline_ms": ..., "penalty_per_ms": ...}``.
    cost: Optional[Dict[str, Any]] = None
    #: Declarative resource catalog for architecture exploration: each
    #: entry is ``{"kind": "processor" | "reconfigurable" | "asic",
    #: ...resource params...}`` (the :mod:`repro.io` vocabulary).
    catalog: Tuple[Dict[str, Any], ...] = ()
    #: Warm-start seed: a solution document
    #: (:func:`repro.io.dump_solution` vocabulary) decoded — and, if the
    #: instance drifted from the document's origin, repaired — into the
    #: strategy's starting solution by :mod:`repro.api.resolve`.  The
    #: exploration service injects a cached near-instance incumbent
    #: here; omitted (None) the strategy draws its seed-random initial
    #: exactly as before this field existed.
    initial_solution: Optional[Dict[str, Any]] = None

    _OMIT_WHEN_NONE = frozenset({"initial_solution"})

    def __post_init__(self) -> None:
        object.__setattr__(self, "catalog", tuple(self.catalog))

    def validate(self) -> None:
        from repro.search.runner import strategy_kind

        kind = strategy_kind(self.kind)
        options = _require_mapping(self.options, "StrategySpec.options")
        for reserved, pointer in (
            ("catalog", "StrategySpec.catalog"),
            ("cost_function", "StrategySpec.cost"),
            ("engine", "EngineSpec"),
        ):
            if reserved in options:
                raise ConfigurationError(
                    f"strategy option {reserved!r} is not accepted in a "
                    f"spec; use the declarative {pointer} field instead"
                )
        known = kind.options - {"catalog", "cost_function", "engine"}
        _reject_unknown(options, known, f"strategy {self.kind!r} options")
        _json_clean(dict(options), f"strategy {self.kind!r} options")
        p_zero = options.get("p_zero", 0.0)
        if isinstance(p_zero, bool) or not isinstance(p_zero, (int, float)) \
                or not 0.0 <= p_zero < 1.0:
            raise ConfigurationError(
                f"strategy option 'p_zero' must lie in [0, 1), got {p_zero!r}"
            )
        if p_zero > 0.0 and not self.catalog:
            raise ConfigurationError(
                "architecture moves (p_zero > 0) need a resource catalog: "
                "set StrategySpec.catalog (the 'sa' strategy only)"
            )
        if self.cost is not None:
            cost = _require_mapping(self.cost, "StrategySpec.cost")
            cost_kind = cost.get("kind")
            if cost_kind not in COST_KINDS:
                raise ConfigurationError(
                    f"unknown cost kind {cost_kind!r}; known: {list(COST_KINDS)}"
                )
            known_cost = (
                {"kind"} if cost_kind == "makespan"
                else {"kind", "deadline_ms", "penalty_per_ms"}
            )
            _reject_unknown(cost, known_cost, f"{cost_kind!r} cost spec")
        for entry in self.catalog:
            entry = _require_mapping(entry, "StrategySpec.catalog entry")
            if entry.get("kind") not in CATALOG_KINDS:
                raise ConfigurationError(
                    f"unknown catalog resource kind {entry.get('kind')!r}; "
                    f"known: {list(CATALOG_KINDS)}"
                )
        if self.cost is not None and "cost_function" not in kind.options:
            raise ConfigurationError(
                "cost specs apply to the 'sa' and 'tempering' strategies "
                "only (the other searchers optimize raw makespan)"
            )
        if self.catalog and self.kind != "sa":
            raise ConfigurationError(
                "catalog specs apply to the 'sa' strategy only "
                "(architecture exploration runs through the annealer)"
            )
        if self.initial_solution is not None:
            seed_doc = _require_mapping(
                self.initial_solution, "StrategySpec.initial_solution"
            )
            if seed_doc.get("format") != "solution":
                raise ConfigurationError(
                    "initial_solution must be a solution document "
                    "(format == 'solution'; see repro.io.dump_solution)"
                )
            if self.catalog:
                raise ConfigurationError(
                    "initial_solution cannot be combined with a catalog "
                    "(architecture exploration re-derives its mapping)"
                )


@dataclass(frozen=True)
class BudgetSpec(_SpecBase):
    """Uniform stopping criteria, folded into the strategy at resolve
    time: ``iterations`` maps to the strategy's natural unit (move draws
    for sa / hill / tabu, generations for ga, samples for random);
    ``warmup_iterations`` is the annealer's infinite-temperature phase
    (default: the shared budget-scaled formula); ``time_limit_s`` and
    ``stall_limit`` become a :class:`~repro.search.strategy.SearchBudget`.
    """

    iterations: Optional[int] = None
    warmup_iterations: Optional[int] = None
    time_limit_s: Optional[float] = None
    stall_limit: Optional[int] = None
    #: Anytime reporting: ``{"interval_iterations": n}`` and/or
    #: ``{"interval_s": seconds}``.  The search periodically snapshots
    #: its incumbent (iteration, best cost, current cost, elapsed wall
    #: clock) into ``SearchResult.extras["anytime"]``; the facade
    #: surfaces the snapshots as the response's ``partials`` section.
    anytime: Optional[Dict[str, Any]] = None

    _OMIT_WHEN_NONE = frozenset({"anytime"})

    def validate(self) -> None:
        if self.iterations is not None and self.iterations < 1:
            raise ConfigurationError("budget iterations must be >= 1")
        if self.warmup_iterations is not None and self.warmup_iterations < 0:
            raise ConfigurationError("budget warmup_iterations must be >= 0")
        if self.time_limit_s is not None and self.time_limit_s <= 0:
            raise ConfigurationError("budget time_limit_s must be > 0")
        if self.stall_limit is not None and self.stall_limit < 1:
            raise ConfigurationError("budget stall_limit must be >= 1")
        if self.anytime is not None:
            anytime = _require_mapping(self.anytime, "BudgetSpec.anytime")
            _reject_unknown(
                anytime,
                {"interval_iterations", "interval_s"},
                "BudgetSpec.anytime",
            )
            if not anytime:
                raise ConfigurationError(
                    "budget anytime needs interval_iterations and/or "
                    "interval_s"
                )
            interval = anytime.get("interval_iterations")
            if interval is not None and (
                not isinstance(interval, int)
                or isinstance(interval, bool)
                or interval < 1
            ):
                raise ConfigurationError(
                    "anytime interval_iterations must be an int >= 1"
                )
            interval_s = anytime.get("interval_s")
            if interval_s is not None and (
                not isinstance(interval_s, (int, float))
                or isinstance(interval_s, bool)
                or interval_s <= 0
            ):
                raise ConfigurationError("anytime interval_s must be > 0")


@dataclass(frozen=True)
class EngineSpec(_SpecBase):
    """Evaluation engine: ``"incremental"`` (delta-sync with a
    persistent longest-path DP, default) or ``"full"`` (reference
    rebuild) — bit-identical results either way (engine parity is
    enforced by the test suite).  ``"array"`` names the same engine as
    ``"incremental"`` and is kept so persisted specs stay valid.

    ``options`` is accepted for ``"array"`` only, again for persisted
    specs: ``kernel_batch_min_work`` (an integer >= 0) and ``dispatch``
    (``"auto"``, ``"kernel"`` or ``"scalar"``) are validated but select
    nothing — no engine option changes how a request runs.
    """

    kind: str = "incremental"
    options: Dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        from repro.mapping.evaluator import ENGINES

        if self.kind not in ENGINES:
            raise ConfigurationError(
                f"unknown engine kind {self.kind!r}; known: {sorted(ENGINES)}"
            )
        options = _require_mapping(self.options, "EngineSpec.options")
        _reject_unknown(
            options,
            {"kernel_batch_min_work", "dispatch"},
            "EngineSpec.options",
        )
        if options and self.kind != "array":
            raise ConfigurationError(
                f"engine option(s) {sorted(options)} apply to the "
                f"'array' engine only, not {self.kind!r}"
            )
        if "kernel_batch_min_work" in options:
            threshold = options["kernel_batch_min_work"]
            if not isinstance(threshold, int) or isinstance(threshold, bool) \
                    or threshold < 0:
                raise ConfigurationError(
                    "engine option 'kernel_batch_min_work' must be an "
                    f"integer >= 0, got {threshold!r}"
                )
        if "dispatch" in options:
            modes = ["auto", "kernel", "scalar"]
            mode = options["dispatch"]
            if mode not in modes:
                raise ConfigurationError(
                    f"engine option 'dispatch' must be one of {modes}, "
                    f"got {mode!r}"
                )


# ----------------------------------------------------------------------
# the request
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExplorationRequest(_SpecBase):
    """One serializable exploration workload.

    ``kind`` selects the shape:

    * ``"single"`` — one run of ``strategy`` at ``seed``;
    * ``"batch"`` — multi-seed replicates: explicit ``seeds``, or
      ``runs`` consecutive seeds from ``seed``;
    * ``"portfolio"`` — race ``portfolio_kinds`` on one instance under
      evaluation-normalized budgets (seeds derived from ``seed``);
    * ``"sweep"`` — the Fig. 3 grid: ``sizes`` × ``runs`` annealing runs
      on EPICURE devices, seeded ``seed + 1000*r + n_clbs`` (the
      historical sweep formula, so spec-driven sweeps reproduce archived
      ones bit-for-bit).

    ``architecture`` may be omitted: a bundled application supplies its
    own platform, everything else defaults to the builtin EPICURE.
    ``deadline_ms`` defaults to the bundle's deadline (or the motion
    benchmark's 40 ms for sweeps).
    """

    schema_version: int = SCHEMA_VERSION
    kind: str = "single"
    application: ApplicationSpec = field(default_factory=ApplicationSpec)
    architecture: Optional[ArchitectureSpec] = None
    strategy: StrategySpec = field(default_factory=StrategySpec)
    budget: BudgetSpec = field(default_factory=BudgetSpec)
    engine: EngineSpec = field(default_factory=EngineSpec)
    seed: int = 7
    runs: int = 1
    seeds: Optional[Tuple[int, ...]] = None
    sizes: Tuple[int, ...] = ()
    portfolio_kinds: Tuple[str, ...] = ()
    deadline_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.seeds is not None:
            object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(self, "sizes", tuple(self.sizes))
        object.__setattr__(
            self, "portfolio_kinds", tuple(self.portfolio_kinds)
        )

    # ------------------------------------------------------------------
    def validate(self) -> None:
        from repro.search.runner import STRATEGY_KINDS

        if self.kind not in REQUEST_KINDS:
            raise ConfigurationError(
                f"unknown request kind {self.kind!r}; "
                f"known: {list(REQUEST_KINDS)}"
            )
        self.application.validate()
        if self.architecture is not None:
            self.architecture.validate()
        self.strategy.validate()
        self.budget.validate()
        self.engine.validate()
        if self.runs < 1:
            raise ConfigurationError("request runs must be >= 1")
        if self.seeds is not None:
            if self.kind != "batch":
                raise ConfigurationError(
                    f"'seeds' only applies to batch requests, not "
                    f"{self.kind!r} (use 'seed' for the single base seed)"
                )
            if not self.seeds:
                raise ConfigurationError(
                    "request seeds, when given, needs at least one seed"
                )
        if self.runs != 1 and self.kind not in ("batch", "sweep"):
            raise ConfigurationError(
                f"'runs' only applies to batch and sweep requests, "
                f"not {self.kind!r}"
            )
        if (
            self.budget.warmup_iterations is not None
            and not STRATEGY_KINDS[self.strategy.kind].anneals
        ):
            raise ConfigurationError(
                f"budget warmup_iterations is an annealer knob; strategy "
                f"{self.strategy.kind!r} would silently ignore it"
            )
        if self.kind == "sweep":
            if not self.sizes:
                raise ConfigurationError(
                    "a sweep request needs a non-empty 'sizes' grid"
                )
            if any(size < 1 for size in self.sizes):
                raise ConfigurationError("sweep sizes must all be >= 1")
            if self.strategy.kind != "sa":
                raise ConfigurationError(
                    "sweep requests run the annealer; leave strategy.kind "
                    "as 'sa'"
                )
            if self.architecture is not None:
                raise ConfigurationError(
                    "sweep requests build the builtin EPICURE platform at "
                    "each grid size; drop the 'architecture' spec"
                )
        elif self.sizes:
            raise ConfigurationError(
                f"'sizes' only applies to sweep requests, not {self.kind!r}"
            )
        if self.kind == "portfolio":
            unknown = set(self.portfolio_kinds) - set(STRATEGY_KINDS)
            if unknown:
                raise ConfigurationError(
                    f"unknown portfolio strategy kind(s) {sorted(unknown)}; "
                    f"known: {sorted(STRATEGY_KINDS)}"
                )
        elif self.portfolio_kinds:
            raise ConfigurationError(
                f"'portfolio_kinds' only applies to portfolio requests, "
                f"not {self.kind!r}"
            )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ConfigurationError("deadline_ms must be > 0")
        if (
            self.strategy.initial_solution is not None
            and self.kind not in ("single", "batch")
        ):
            raise ConfigurationError(
                f"initial_solution applies to single and batch requests "
                f"only, not {self.kind!r} (the instance varies per job)"
            )
        if self.budget.anytime is not None and self.kind == "portfolio":
            raise ConfigurationError(
                "anytime snapshots are not supported for portfolio "
                "requests (their results are listed by rank, not by run)"
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExplorationRequest":
        data = _require_mapping(data, "ExplorationRequest")
        names = [f.name for f in dataclasses.fields(cls)]
        _reject_unknown(data, names, "ExplorationRequest")
        version = data.get("schema_version")
        if version is None:
            raise ConfigurationError(
                "ExplorationRequest is missing 'schema_version' "
                f"(current version: {SCHEMA_VERSION})"
            )
        if not isinstance(version, int) or version < 1:
            raise ConfigurationError(
                f"schema_version must be a positive integer, got {version!r}"
            )
        if version > SCHEMA_VERSION:
            raise ConfigurationError(
                f"request schema_version {version} is newer than this "
                f"library understands ({SCHEMA_VERSION}); upgrade repro"
            )
        kwargs: Dict[str, Any] = {
            name: data[name] for name in names if name in data
        }
        kwargs["application"] = ApplicationSpec.from_dict(
            data.get("application", {})
        )
        if data.get("architecture") is not None:
            kwargs["architecture"] = ArchitectureSpec.from_dict(
                data["architecture"]
            )
        kwargs["strategy"] = StrategySpec.from_dict(data.get("strategy", {}))
        kwargs["budget"] = BudgetSpec.from_dict(data.get("budget", {}))
        kwargs["engine"] = EngineSpec.from_dict(data.get("engine", {}))
        request = cls(**kwargs)
        request.validate()
        return request

    def to_json(self, indent: int = 2) -> str:
        """Canonical full-form JSON (byte-stable across round trips)."""
        return json.dumps(self.to_dict(), indent=indent)

    def canonical_json(self) -> str:
        """The hashing form: key-sorted, separator-minimal full-form
        JSON.  Key sorting makes the bytes independent of spec-key
        ordering (and of ``PYTHONHASHSEED``); the full form makes them
        sensitive to every semantic field, defaulted or not."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    def content_hash(self) -> str:
        """SHA-256 hex digest of :meth:`canonical_json` — the request's
        content address.

        Byte-stable across processes, runs and machines: two requests
        hash equal exactly when they describe the same workload
        document.  The exploration service composes this with the
        resolved instance hash to key its result cache; the golden
        fixtures in ``tests/api/test_content_hash.py`` pin the digests.
        """
        return hashlib.sha256(
            self.canonical_json().encode("utf-8")
        ).hexdigest()

    @classmethod
    def from_json(cls, text: str) -> "ExplorationRequest":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"request is not valid JSON: {exc}"
            ) from None
        return cls.from_dict(data)


def load_request(path: str) -> ExplorationRequest:
    """Read and validate an :class:`ExplorationRequest` spec file."""
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read spec file: {exc}") from None
    return ExplorationRequest.from_json(text)


# ----------------------------------------------------------------------
# the response envelope
# ----------------------------------------------------------------------
RESPONSE_FORMAT = "exploration-response"


def environment_stamp() -> Dict[str, Any]:
    """Where a response was computed (stamped into every envelope).

    ``platform`` joins what :func:`platform.platform` reports on Linux
    (system, release, machine and libc) without its first call's
    ``uname -p`` child process; where the processor name is empty the
    two strings are equal."""
    parts = [platform.system(), platform.release(), platform.machine()]
    libc = "".join(platform.libc_ver())
    if libc:
        parts += ["with", libc]
    return {
        "repro_version": __version__,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": "-".join(part for part in parts if part),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


@dataclass
class ExplorationResponse:
    """Serializable result envelope for any request kind.

    ``results`` holds one record per run (seed, best cost, iteration and
    evaluation counts, runtime, evaluation breakdown, best-so-far
    ``history`` when the strategy kept one); ``best`` points at the
    winning run and carries its solution document; ``summary`` is the
    kind-specific aggregate (batch statistics, sweep rows, portfolio
    scoreboard).  ``outcomes`` / ``rows`` / ``entries`` are the live
    in-process objects (never serialized).
    """

    kind: str
    request: Dict[str, Any]
    results: List[Dict[str, Any]] = field(default_factory=list)
    best: Optional[Dict[str, Any]] = None
    summary: Dict[str, Any] = field(default_factory=dict)
    environment: Dict[str, Any] = field(default_factory=environment_stamp)
    jobs: int = 1
    schema_version: int = SCHEMA_VERSION
    #: Telemetry summary block (counters/gauges/timers snapshot), present
    #: only when the caller supplied a recorder; omitted from the JSON
    #: envelope otherwise so pre-telemetry documents stay byte-identical.
    telemetry: Optional[Dict[str, Any]] = None
    #: Anytime incumbent snapshots, one entry per run that recorded any
    #: (``{"index": run index, "snapshots": [...]}``); present only when
    #: the request's budget carried an ``anytime`` block, omitted from
    #: the JSON envelope otherwise so pre-anytime documents stay
    #: byte-identical.
    partials: Optional[List[Dict[str, Any]]] = None
    #: Live objects, in-process only (excluded from the JSON envelope).
    outcomes: List[Any] = field(
        default_factory=list, repr=False, compare=False
    )
    rows: List[Any] = field(default_factory=list, repr=False, compare=False)
    entries: List[Any] = field(default_factory=list, repr=False, compare=False)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data = {
            "format": RESPONSE_FORMAT,
            "schema_version": self.schema_version,
            "kind": self.kind,
            "environment": dict(self.environment),
            "jobs": self.jobs,
            "request": self.request,
            "results": self.results,
            "best": self.best,
            "summary": self.summary,
        }
        if self.telemetry is not None:
            data["telemetry"] = self.telemetry
        if self.partials is not None:
            data["partials"] = self.partials
        return data

    def to_json(self, indent: Optional[int] = None) -> str:
        """The envelope as JSON: one line by default, which CPython
        encodes in C (any ``indent`` falls back to the pure-Python
        encoder).  Stored envelopes and cache hits use this form."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExplorationResponse":
        data = _require_mapping(data, "ExplorationResponse")
        if data.get("format") != RESPONSE_FORMAT:
            raise ConfigurationError(
                f"expected a {RESPONSE_FORMAT!r} document, "
                f"got {data.get('format')!r}"
            )
        version = data.get("schema_version")
        if not isinstance(version, int) or version > SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported response schema_version {version!r} "
                f"(this library understands <= {SCHEMA_VERSION})"
            )
        return cls(
            kind=data["kind"],
            request=data.get("request", {}),
            results=list(data.get("results", [])),
            best=data.get("best"),
            summary=dict(data.get("summary", {})),
            environment=dict(data.get("environment", {})),
            jobs=data.get("jobs", 1),
            schema_version=version,
            telemetry=data.get("telemetry"),
            partials=data.get("partials"),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExplorationResponse":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"response is not valid JSON: {exc}"
            ) from None
        return cls.from_dict(data)

    # -- disk round-trip -----------------------------------------------
    def save(self, path: str) -> str:
        """Write the envelope to ``path``; returns the exact text
        written (what :func:`load_response` reads back byte-identically
        — the contract the service's result store relies on)."""
        text = self.to_json()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return text

    # -- convenience views ---------------------------------------------
    @property
    def best_outcome(self) -> Any:
        """The winning run's live
        :class:`~repro.search.runner.JobOutcome` (in-process responses
        only)."""
        if self.best is None or not self.outcomes:
            return None
        return self.outcomes[self.best["index"]]

    @property
    def best_result(self):
        outcome = self.best_outcome
        return None if outcome is None else outcome.result


def load_response(path: str) -> ExplorationResponse:
    """Read an envelope written by :meth:`ExplorationResponse.save` (or
    by the service's result store).  For an envelope this version wrote,
    ``load_response(p).to_json()`` is byte-identical to the file's
    content: the outer key order is fixed by ``to_dict`` and every
    nested document passes through with its written order preserved.
    Earlier versions wrote indented envelopes; they load the same, and
    the store serves their bytes unchanged."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read response file: {exc}"
        ) from None
    return ExplorationResponse.from_json(text)
