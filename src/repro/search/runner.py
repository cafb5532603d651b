"""Parallel multi-seed experiment runner.

The paper's headline result is statistical (Fig. 3 averages 100
annealing runs per device size), and its comparison with the GA flow is
a wall-clock argument — so the repository needs to run *batches* of
searches, and it needs to saturate the machine doing so.  This module
executes a list of :class:`SearchJob` — ``(strategy spec, instance,
seed)`` triples — either inline or across worker processes.

Design rules that make parallel results **bit-identical** to sequential
ones for fixed seeds:

* Job specs are plain picklable data (spawn-safe: no lambdas, no open
  handles); workers rebuild strategies from the spec registry.
* Every job runs against its own private object graph.  Worker
  processes get one by construction (pickling); the inline path pickles
  each job through :func:`_isolate` so a shared ``Application`` or
  ``Architecture`` can never leak state between jobs, in either mode.
* Jobs without an explicit seed get one derived from ``base_seed`` and
  their position (:func:`derive_seeds`), so adding workers never
  re-deals the seeds.
* Outcomes are returned in submission order regardless of completion
  order.

``checkpoint_path`` appends one JSONL row per finished job (strategy
kind, seed, best cost, serialized best solution, history); re-running
with the same path skips the finished jobs and reloads their results,
so a multi-hour sweep survives interruption.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import os
import pickle
import pkgutil
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.arch.architecture import Architecture, epicure_architecture
from repro.errors import ConfigurationError
from repro.mapping.evaluator import Evaluation, Evaluator
from repro.mapping.solution import Solution
from repro.model.application import Application
from repro.search.strategy import SearchBudget, SearchResult, SearchStrategy


# ----------------------------------------------------------------------
# seeds
# ----------------------------------------------------------------------
_MASK32 = 0xFFFFFFFF


def _spawned_seed(words: List[int], index: int) -> int:
    """First 32-bit output word of child ``index`` of NumPy's
    ``SeedSequence`` over the entropy ``words`` (low word first).

    The 4-word pool, the hash constants and the mixing order are those
    of ``numpy/random/bit_generator.pyx``.
    """
    entropy = words + [0] * (4 - len(words)) + [index]
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    value = (pool[0] ^ 0x8B51F9DD) * (0x8B51F9DD * 0x58F38DED & _MASK32)
    value &= _MASK32
    return value ^ value >> 16


def derive_seeds(base_seed: int, n: int) -> List[int]:
    """``n`` statistically independent 32-bit seeds from one base seed.

    A pure-Python port of NumPy's ``SeedSequence(base_seed).spawn(n)``
    with one ``generate_state(1)`` word per child (the recommended way
    to key parallel streams): the seeds are NumPy's bit for bit and
    deterministic for a given ``base_seed``, which must be a
    non-negative ``int`` (a missing seed never means fresh entropy).
    """
    if (
        not isinstance(base_seed, int)
        or isinstance(base_seed, bool)
        or base_seed < 0
    ):
        raise ConfigurationError(
            f"base seed must be a non-negative int, not {base_seed!r}"
        )
    if n < 0:
        raise ConfigurationError("cannot derive a negative number of seeds")
    words = [
        base_seed >> shift & _MASK32
        for shift in range(0, max(base_seed.bit_length(), 1), 32)
    ]
    return [_spawned_seed(words, index) for index in range(n)]


# ----------------------------------------------------------------------
# job specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StrategySpec:
    """Which searcher to run and how to configure it.

    ``kind`` keys into :data:`STRATEGY_KINDS`; ``options`` are keyword
    parameters of the constructors its builder calls (all plain data,
    so the spec pickles across a ``spawn`` boundary).  Unknown option
    keys are rejected up front — a misspelled knob must fail loudly,
    not run a silently different experiment.
    """

    kind: str
    options: Dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        known = strategy_kind(self.kind).options
        unknown = set(self.options) - known
        if unknown:
            raise ConfigurationError(
                f"unknown option(s) for strategy {self.kind!r}: "
                f"{sorted(unknown)}; known: {sorted(known)}"
            )

    def fingerprint(self) -> str:
        """Stable identity of kind + options for checkpoint matching.

        Non-JSON option values (e.g. a resource catalog of callables)
        serialize via ``repr``, whose process-dependent addresses make
        such specs never match a checkpoint — recomputing is the safe
        direction.
        """
        return json.dumps(
            {"kind": self.kind, "options": self.options},
            sort_keys=True, default=repr,
        )


@dataclass(frozen=True)
class InstanceSpec:
    """The problem instance a job runs on.

    Either an explicit ``architecture`` or an ``n_clbs`` device size
    (the worker then builds the paper's EPICURE platform at that
    capacity — cheaper to ship than a full architecture object).
    """

    application: Application
    architecture: Optional[Architecture] = None
    n_clbs: Optional[int] = None

    def build(self) -> Tuple[Application, Architecture]:
        if self.architecture is not None:
            return self.application, self.architecture
        if self.n_clbs is None:
            raise ConfigurationError(
                "InstanceSpec needs an architecture or an n_clbs device size"
            )
        return self.application, epicure_architecture(n_clbs=self.n_clbs)


@dataclass(frozen=True)
class SearchJob:
    """One unit of work: strategy × instance × seed.

    ``tag`` is an opaque JSON-serializable label echoed back on the
    outcome (consumers use it to regroup results); ``initial`` is an
    optional starting solution (build it from the same ``application``
    / ``architecture`` objects as the spec so the pickled job stays one
    consistent object graph).  ``budget`` adds wall-clock / stall limits
    on top of the strategy's own iteration budget (note: the budget is
    not part of the checkpoint fingerprint — keep it out of
    checkpointed batches whose limits you intend to vary).

    ``telemetry`` is a plain-dict recorder config (see
    :meth:`repro.obs.telemetry.Telemetry.job_config`); when set, the
    worker builds a private recorder for its run and ships the exported
    event stream back inside ``result.extras["telemetry"]``.  Like the
    budget, it is not part of the checkpoint fingerprint.

    ``anytime`` is a plain-dict snapshot config
    (``{"interval_iterations": n}`` and/or ``{"interval_s": secs}``).
    Callbacks cannot cross the spawn boundary, so the worker builds the
    periodic incumbent recorder itself and ships the snapshots back
    inside ``result.extras["anytime"]``.  Also not part of the
    checkpoint fingerprint (checkpoint-restored results carry no
    snapshots).
    """

    strategy: StrategySpec
    instance: InstanceSpec
    seed: Optional[int] = None
    tag: Any = None
    initial: Optional[Solution] = None
    budget: Optional[SearchBudget] = None
    telemetry: Optional[Dict[str, Any]] = None
    anytime: Optional[Dict[str, Any]] = None


@dataclass
class JobOutcome:
    """A finished job, in submission order."""

    index: int
    tag: Any
    seed: Optional[int]
    result: SearchResult
    from_checkpoint: bool = False


# ----------------------------------------------------------------------
# the strategy table (builders are top-level functions: spawn-safe)
# ----------------------------------------------------------------------
#: Constructor parameters the builders fill themselves; every other
#: parameter of a constructor a builder calls is an option.
_WIRED = frozenset({"application", "architecture", "seed", "evaluator",
                    "move_generator", "config"})


@functools.lru_cache(maxsize=None)
def _keywords(cls) -> frozenset:
    """The option keys ``cls``'s constructor takes."""
    return frozenset(inspect.signature(cls).parameters) - _WIRED


def _own(cls, options: Dict[str, Any]) -> Dict[str, Any]:
    """The subset of ``options`` that ``cls``'s constructor takes."""
    keys = _keywords(cls)
    return {key: value for key, value in options.items() if key in keys}


def _build_sa(application, architecture, seed, options) -> SearchStrategy:
    from repro.sa.explorer import DesignSpaceExplorer

    options = {"keep_trace": False, **options}
    return DesignSpaceExplorer(application, architecture, seed=seed, **options)


def _build_tempering(application, architecture, seed, options) -> SearchStrategy:
    from repro.sa.population import PopulationAnnealer

    options = {"keep_trace": False, **options}
    return PopulationAnnealer(application, architecture, seed=seed, **options)


def _evaluator(application, architecture, options) -> Evaluator:
    return Evaluator(application, architecture, **_own(Evaluator, options))


def _move_generator(application, options):
    from repro.sa.moves import MoveGenerator

    return MoveGenerator(application, **_own(MoveGenerator, options))


def _build_hill(application, architecture, seed, options) -> SearchStrategy:
    from repro.baselines.hill_climber import HillClimber

    return HillClimber(
        _evaluator(application, architecture, options),
        _move_generator(application, options),
        seed=seed,
        **_own(HillClimber, options),
    )


def _build_tabu(application, architecture, seed, options) -> SearchStrategy:
    from repro.baselines.tabu import TabuConfig, TabuSearch

    return TabuSearch(
        _evaluator(application, architecture, options),
        _move_generator(application, options),
        TabuConfig(seed=seed, **_own(TabuConfig, options)),
    )


def _build_ga(application, architecture, seed, options) -> SearchStrategy:
    from repro.baselines.ga import GeneticConfig, GeneticPartitioner

    return GeneticPartitioner(
        application,
        architecture,
        GeneticConfig(seed=seed, **_own(GeneticConfig, options)),
        **_own(GeneticPartitioner, options),
    )


def _build_random(application, architecture, seed, options) -> SearchStrategy:
    from repro.baselines.random_search import RandomSearch

    return RandomSearch(application, architecture, seed=seed, **options)


@dataclass(frozen=True)
class StrategyKind:
    """Everything the package knows about one searcher kind.

    ``build(application, architecture, seed, options)`` makes the
    searcher and hands each constructor named in ``parts`` the options
    it takes, so every default is stated once, in its class.  A
    budget's iterations set the ``unit`` option.  In a portfolio race
    one unit costs ``per_unit`` evaluations and ``race`` holds the
    racer's fixed options.  ``warm`` says whether a warm start (an
    initial solution) can seed the kind.
    """

    build: Callable[..., SearchStrategy]
    parts: Tuple[str, ...]
    unit: str = "iterations"
    per_unit: int = 1
    race: Dict[str, Any] = field(default_factory=dict)
    warm: bool = True

    @functools.cached_property
    def options(self) -> frozenset:
        """The accepted ``StrategySpec.options`` keys: the keyword
        parameters of the ``parts`` constructors.  Derived on first use,
        because importing the strategy classes with this module would
        close the ``repro.sa`` → ``repro.search`` → runner cycle."""
        return frozenset().union(
            *(_keywords(pkgutil.resolve_name(path)) for path in self.parts)
        )

    @property
    def anneals(self) -> bool:
        """An annealer takes a warm-up (and folds a stall limit)."""
        return "warmup_iterations" in self.options

    def share(self, evaluations: int) -> int:
        """``evaluations`` counted in this kind's units, at least one."""
        if self.per_unit == 1:
            return evaluations
        return max(1, evaluations // self.per_unit)


_EVALUATOR = "repro.mapping.evaluator.Evaluator"
_MOVES = "repro.sa.moves.MoveGenerator"

#: One entry per searcher kind (see :class:`StrategyKind`).
STRATEGY_KINDS: Dict[str, StrategyKind] = {
    "sa": StrategyKind(_build_sa, ("repro.sa.explorer.DesignSpaceExplorer",)),
    "hill_climber": StrategyKind(
        _build_hill,
        (_EVALUATOR, _MOVES, "repro.baselines.hill_climber.HillClimber"),
    ),
    "tabu": StrategyKind(
        _build_tabu, (_EVALUATOR, _MOVES, "repro.baselines.tabu.TabuConfig"),
        per_unit=6, race={"candidates_per_iteration": 6},
    ),
    "ga": StrategyKind(
        _build_ga, ("repro.baselines.ga.GeneticConfig",
                    "repro.baselines.ga.GeneticPartitioner"),
        unit="generations", per_unit=50, race={"population_size": 50},
        warm=False,
    ),
    "random": StrategyKind(
        _build_random, ("repro.baselines.random_search.RandomSearch",),
        unit="samples", per_unit=10, warm=False,
    ),
    "tempering": StrategyKind(
        _build_tempering, ("repro.sa.population.PopulationAnnealer",),
        per_unit=4, race={"chains": 4},
    ),
}


def strategy_kind(kind: str) -> StrategyKind:
    """The table entry of ``kind``; an unknown kind fails loudly."""
    if kind not in STRATEGY_KINDS:
        raise ConfigurationError(
            f"unknown strategy kind {kind!r}; known: {sorted(STRATEGY_KINDS)}"
        )
    return STRATEGY_KINDS[kind]


def build_strategy(
    spec: StrategySpec,
    application: Application,
    architecture: Architecture,
    seed: Optional[int] = None,
) -> SearchStrategy:
    """Instantiate the searcher a spec describes for one instance."""
    spec.validate()
    return STRATEGY_KINDS[spec.kind].build(
        application, architecture, seed, spec.options
    )


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def _anytime_recorder(config: Dict[str, Any]):
    """A periodic incumbent-snapshot ``on_step`` hook.

    Returns ``(snapshots, on_step)``; the hook appends
    ``{iteration, best_cost, current_cost, elapsed_s}`` whenever the
    iteration and/or wall-clock interval elapses.  The ``_s`` suffix
    keeps the wall-clock field inside the telemetry determinism
    contract (``strip_times`` drops ``*_s`` keys).
    """
    import time

    snapshots: List[Dict[str, Any]] = []
    interval_iterations = config.get("interval_iterations")
    interval_s = config.get("interval_s")
    started = time.perf_counter()
    state = {
        "next_iteration": interval_iterations or 0,
        "next_elapsed": interval_s or 0.0,
    }

    def on_step(step) -> None:
        due = interval_iterations is not None and (
            step.iteration >= state["next_iteration"]
        )
        elapsed = None
        if not due:
            if interval_s is None:
                return
            elapsed = time.perf_counter() - started
            if elapsed < state["next_elapsed"]:
                return
        if elapsed is None:
            elapsed = time.perf_counter() - started
        snapshots.append({
            "iteration": step.iteration,
            "best_cost": step.best_cost,
            "current_cost": step.current_cost,
            "elapsed_s": elapsed,
        })
        if interval_iterations is not None:
            state["next_iteration"] = step.iteration + interval_iterations
        if interval_s is not None:
            state["next_elapsed"] = elapsed + interval_s

    return snapshots, on_step


def _execute_job(payload: Tuple[int, SearchJob]) -> Tuple[int, SearchResult]:
    """Worker entry point (top-level, hence spawn-picklable).

    When the job carries a telemetry config, the worker runs with its
    own private recorder and ships the exported stream back inside
    ``result.extras["telemetry"]`` — the parent absorbs the streams in
    submission-index order, so the merged stream is deterministic no
    matter how many workers raced.  An ``anytime`` config likewise runs
    worker-side: the snapshots travel back in
    ``result.extras["anytime"]``.
    """
    index, job = payload
    application, architecture = job.instance.build()
    strategy = build_strategy(job.strategy, application, architecture, job.seed)
    recorder = None
    if job.telemetry is not None:
        from repro.obs.telemetry import Telemetry

        recorder = Telemetry(label=job.strategy.kind, **job.telemetry)
        strategy.telemetry = recorder
    on_step = None
    snapshots = None
    if job.anytime is not None:
        snapshots, on_step = _anytime_recorder(job.anytime)
    result = strategy.search(job.initial, budget=job.budget, on_step=on_step)
    if snapshots is not None:
        result.extras["anytime"] = {
            "snapshots": snapshots,
            "interval_iterations": job.anytime.get("interval_iterations"),
            "interval_s": job.anytime.get("interval_s"),
        }
        if snapshots and recorder is not None and recorder.enabled:
            recorder.count("anytime_snapshot", len(snapshots))
    if recorder is not None:
        result.extras["telemetry"] = recorder.export()
    return index, result


def _isolate(job: SearchJob) -> SearchJob:
    """A private copy of the job's whole object graph — exactly what a
    worker process would receive, so inline (``jobs=1``) execution and
    pooled execution see identical inputs."""
    return pickle.loads(pickle.dumps(job))


def best_evaluation_of(result: SearchResult) -> Evaluation:
    """Full evaluation of a result's best solution.

    Reuses the evaluation the strategy already computed
    (``extras["best_evaluation"]``) when present; otherwise — e.g. for
    checkpoint-resumed results, whose extras are not persisted —
    recomputes it from the solution's own application/architecture with
    the reference engine.  Both paths are bit-identical (engine parity
    is enforced bitwise by the test suite).
    """
    cached = result.best_evaluation
    if cached is not None:
        return cached
    solution = result.best_solution
    if solution is None:
        raise ConfigurationError("result carries no best solution")
    evaluator = Evaluator(
        solution.application, solution.architecture, engine="full"
    )
    return evaluator.evaluate(solution)


# ----------------------------------------------------------------------
# checkpointing
# ----------------------------------------------------------------------
def _checkpoint_row(index: int, job: SearchJob, result: SearchResult) -> str:
    from repro.io import solution_to_dict

    row = {
        "index": index,
        "kind": job.strategy.kind,
        "spec": job.strategy.fingerprint(),
        "seed": job.seed,
        "tag": job.tag,
        "strategy": result.strategy,
        "best_cost": result.best_cost,
        "final_cost": result.final_cost,
        "iterations_run": result.iterations_run,
        "runtime_s": result.runtime_s,
        "evaluations": result.evaluations,
        "history": result.history,
        "solution": solution_to_dict(result.best_solution),
    }
    return json.dumps(row)


def _load_checkpoint(path: str) -> Dict[int, Dict[str, Any]]:
    rows: Dict[int, Dict[str, Any]] = {}
    if not os.path.exists(path):
        return rows
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail write from an interrupted run
            rows[row["index"]] = row
    return rows


def _restore_result(row: Dict[str, Any], job: SearchJob) -> Optional[SearchResult]:
    """Rebuild a SearchResult from a checkpoint row, or ``None`` when
    the row does not match the job (stale checkpoint).

    A row matches only if kind, seed, the full strategy-options
    fingerprint AND the tag agree — re-running a batch with changed
    knobs (more iterations, a different lambda rate, ...) must
    recompute, never silently reuse old numbers."""
    from repro.io import solution_from_dict

    if (
        row.get("kind") != job.strategy.kind
        or row.get("seed") != job.seed
        or row.get("spec") != job.strategy.fingerprint()
        or row.get("tag") != json.loads(json.dumps(job.tag))
    ):
        return None
    try:
        application, architecture = _isolate(job).instance.build()
        solution = solution_from_dict(row["solution"], application, architecture)
    except Exception:
        return None
    return SearchResult(
        best_solution=solution,
        best_cost=row["best_cost"],
        strategy=row.get("strategy", job.strategy.kind),
        final_cost=row.get("final_cost", row["best_cost"]),
        iterations_run=row.get("iterations_run", 0),
        runtime_s=row.get("runtime_s", 0.0),
        seed=job.seed,
        evaluations=row.get("evaluations", 0),
        history=list(row.get("history", [])),
    )


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
def run_search_jobs(
    job_list: Sequence[SearchJob],
    jobs: int = 1,
    checkpoint_path: Optional[str] = None,
    base_seed: int = 0,
    telemetry=None,
) -> List[JobOutcome]:
    """Execute a batch of search jobs, ``jobs`` processes at a time.

    Results come back in submission order and are bit-identical whether
    ``jobs`` is 1 (inline) or N (worker pool) — every job is seeded,
    isolated, and deterministic.  Jobs whose ``seed`` is ``None`` get a
    seed derived from ``base_seed`` and their position
    (:func:`derive_seeds`), so the seeding is also independent of
    ``jobs``.

    ``checkpoint_path`` (JSONL, append-only) makes the batch resumable:
    finished jobs found there are reloaded instead of re-run.

    ``telemetry`` (a :class:`repro.obs.telemetry.Telemetry`) gives every
    job its own worker-side recorder; the per-job streams are merged
    into the given recorder in submission-index order once all jobs have
    finished, so the merged stream (minus timestamps) is byte-identical
    across ``jobs=N``.

    Unlike the service's drain workers
    (:func:`repro.service.jobs.run_workers`), the pool here is built per
    call and shut down before returning: a drained request's own
    fan-out must not queue behind the drain loops that are running it.
    """
    if jobs < 1:
        raise ConfigurationError("jobs must be >= 1")
    sealed: List[SearchJob] = []
    derived = derive_seeds(base_seed, len(job_list))
    job_telemetry = (
        telemetry.job_config() if telemetry is not None else None
    )
    for position, job in enumerate(job_list):
        job.strategy.validate()
        if job.seed is None:
            job = dataclasses.replace(job, seed=derived[position])
        if job_telemetry is not None and job.telemetry is None:
            job = dataclasses.replace(job, telemetry=job_telemetry)
        sealed.append(job)

    outcomes: Dict[int, JobOutcome] = {}
    pending: List[int] = []
    checkpoint_rows = (
        _load_checkpoint(checkpoint_path) if checkpoint_path else {}
    )
    for index, job in enumerate(sealed):
        row = checkpoint_rows.get(index)
        restored = _restore_result(row, job) if row is not None else None
        if restored is not None:
            outcomes[index] = JobOutcome(
                index=index, tag=job.tag, seed=job.seed,
                result=restored, from_checkpoint=True,
            )
        else:
            pending.append(index)

    checkpoint_handle = None
    if checkpoint_path and pending:
        checkpoint_handle = open(checkpoint_path, "a")

    def record(index: int, result: SearchResult) -> None:
        job = sealed[index]
        outcomes[index] = JobOutcome(
            index=index, tag=job.tag, seed=job.seed, result=result
        )
        if checkpoint_handle is not None:
            checkpoint_handle.write(_checkpoint_row(index, job, result) + "\n")
            checkpoint_handle.flush()

    try:
        if jobs == 1 or len(pending) <= 1:
            for index in pending:
                _, result = _execute_job((index, _isolate(sealed[index])))
                record(index, result)
        else:
            import multiprocessing

            context = multiprocessing.get_context("spawn")
            workers = min(jobs, len(pending))
            with ProcessPoolExecutor(
                max_workers=workers, mp_context=context
            ) as pool:
                futures = {
                    pool.submit(_execute_job, (index, sealed[index]))
                    for index in pending
                }
                while futures:
                    done, futures = wait(futures, return_when=FIRST_COMPLETED)
                    for future in done:
                        index, result = future.result()
                        record(index, result)
    finally:
        if checkpoint_handle is not None:
            checkpoint_handle.close()

    ordered = [outcomes[index] for index in range(len(sealed))]
    if telemetry is not None:
        # Deterministic merge: always in submission-index order, after
        # every job has finished, regardless of worker completion order.
        for outcome in ordered:
            payload = outcome.result.extras.pop("telemetry", None)
            if outcome.from_checkpoint and telemetry.enabled:
                telemetry.event(
                    "job_restored",
                    job=outcome.index,
                    tag=outcome.tag,
                    seed=outcome.seed,
                    kind=sealed[outcome.index].strategy.kind,
                )
            telemetry.absorb(outcome.index, outcome.tag, payload)
    return ordered
