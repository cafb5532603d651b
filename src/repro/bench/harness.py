"""Benchmark case protocol, registry, and timing harness.

A :class:`BenchCase` is prepared once (untimed: build instances, wire
evaluators), then its ``run`` is executed ``warmup`` times untimed and
``repeats`` times timed; the harness reports the median and
inter-quartile range of the wall-clock samples plus an evaluations/sec
counter whenever the case's metrics carry an ``"evaluations"`` count.
Cases that need multi-seed statistics submit their replicates through
the :mod:`repro.search.runner` (``jobs=N`` worker processes), so one
``--jobs`` knob parallelizes the whole suite's inner experiments
without changing any result bit.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.bench.corpus import CORPUS, Scenario, get_scenario, scenario_hash
from repro.errors import ConfigurationError, InfeasibleMoveError
from repro.io import ProblemInstance
from repro.mapping.evaluator import Evaluator
from repro.mapping.solution import random_initial_solution
from repro.sa.moves import MoveGenerator

#: The evaluation engines every throughput scenario is measured under.
ENGINES = ("full", "incremental")


# ----------------------------------------------------------------------
# context
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BenchContext:
    """Execution knobs shared by every case in one suite run."""

    suite: str = "quick"
    jobs: int = 1
    repeats: int = 3
    warmup: int = 1
    evals: int = 120
    iterations: int = 400
    runs: int = 2
    seed: int = 7

    def validate(self) -> None:
        if self.jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        if self.repeats < 1:
            raise ConfigurationError("repeats must be >= 1")
        if self.warmup < 0:
            raise ConfigurationError("warmup must be >= 0")
        if min(self.evals, self.iterations, self.runs) < 1:
            raise ConfigurationError(
                "evals, iterations and runs must be >= 1"
            )


#: Per-suite defaults: ``quick`` is the CI smoke scale, ``full`` the
#: paper-faithful scale.
SUITE_DEFAULTS: Dict[str, Dict[str, Any]] = {
    "quick": dict(repeats=3, warmup=1, evals=120, iterations=400, runs=2),
    "full": dict(repeats=5, warmup=1, evals=3000, iterations=8000, runs=3),
}


def context_for_suite(suite: str, **overrides: Any) -> BenchContext:
    if suite not in SUITE_DEFAULTS:
        raise ConfigurationError(
            f"unknown suite {suite!r}; known: {sorted(SUITE_DEFAULTS)}"
        )
    knobs = dict(SUITE_DEFAULTS[suite])
    knobs.update({k: v for k, v in overrides.items() if v is not None})
    context = BenchContext(suite=suite, **knobs)
    context.validate()
    return context


# ----------------------------------------------------------------------
# cases
# ----------------------------------------------------------------------
@runtime_checkable
class BenchCase(Protocol):
    """What the harness needs from a benchmark case."""

    name: str
    suites: Tuple[str, ...]
    scenarios: Tuple[str, ...]

    def prepare(self, context: BenchContext) -> Any:
        """Untimed setup; the return value is passed to every ``run``."""

    def run(self, context: BenchContext, state: Any) -> Mapping[str, Any]:
        """One timed measurement; returns JSON-serializable metrics.

        The optional ``"report"`` key (a preformatted string) is
        stripped from the stored metrics and surfaced separately.  An
        ``"evaluations"`` count enables the evals/sec counter.
        """


@dataclass
class FunctionCase:
    """A :class:`BenchCase` from plain functions.

    ``repeats_cap``/``warmup_cap`` bound the context's repeat/warmup
    counts for expensive cases (a multi-minute sweep is measured once
    even when the suite default is five timed repeats).
    """

    name: str
    fn: Callable[[BenchContext, Any], Mapping[str, Any]]
    suites: Tuple[str, ...] = ("full",)
    scenarios: Tuple[str, ...] = ()
    setup: Optional[Callable[[BenchContext], Any]] = None
    repeats_cap: Optional[int] = None
    warmup_cap: Optional[int] = None

    def prepare(self, context: BenchContext) -> Any:
        return self.setup(context) if self.setup is not None else None

    def run(self, context: BenchContext, state: Any) -> Mapping[str, Any]:
        return self.fn(context, state)


CASE_REGISTRY: Dict[str, BenchCase] = {}


def register_case(case: BenchCase) -> BenchCase:
    if case.name in CASE_REGISTRY:
        raise ConfigurationError(f"duplicate bench case {case.name!r}")
    for scenario_name in case.scenarios:
        if scenario_name not in CORPUS:
            raise ConfigurationError(
                f"case {case.name!r} references unknown scenario "
                f"{scenario_name!r}"
            )
    CASE_REGISTRY[case.name] = case
    return case


def bench_case(
    name: str,
    suites: Sequence[str] = ("full",),
    scenarios: Sequence[str] = (),
    setup: Optional[Callable[[BenchContext], Any]] = None,
    repeats_cap: Optional[int] = None,
    warmup_cap: Optional[int] = None,
) -> Callable[[Callable], Callable]:
    """Decorator flavor of :func:`register_case`."""

    def decorate(fn: Callable) -> Callable:
        register_case(
            FunctionCase(
                name=name,
                fn=fn,
                suites=tuple(suites),
                scenarios=tuple(scenarios),
                setup=setup,
                repeats_cap=repeats_cap,
                warmup_cap=warmup_cap,
            )
        )
        return fn

    return decorate


def get_case(name: str) -> BenchCase:
    try:
        return CASE_REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown bench case {name!r}; see `repro bench list`"
        ) from None


def list_cases(
    suite: Optional[str] = None, pattern: Optional[str] = None
) -> List[BenchCase]:
    cases = [
        case
        for case in CASE_REGISTRY.values()
        if (suite is None or suite in case.suites)
        and (pattern is None or pattern in case.name)
    ]
    return sorted(cases, key=lambda case: case.name)


# ----------------------------------------------------------------------
# timing
# ----------------------------------------------------------------------
def _quantile(sorted_samples: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of pre-sorted samples."""
    if not sorted_samples:
        raise ConfigurationError("quantile of empty sample set")
    if len(sorted_samples) == 1:
        return sorted_samples[0]
    position = q * (len(sorted_samples) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_samples) - 1)
    weight = position - low
    return sorted_samples[low] * (1 - weight) + sorted_samples[high] * weight


def timing_stats(timings: Sequence[float]) -> Tuple[float, float]:
    """(median, inter-quartile range) of wall-clock samples."""
    ordered = sorted(timings)
    return (
        _quantile(ordered, 0.5),
        _quantile(ordered, 0.75) - _quantile(ordered, 0.25),
    )


@dataclass
class CaseResult:
    """One case's measurement: timings, robust stats, metrics."""

    name: str
    suites: Tuple[str, ...]
    scenarios: Tuple[str, ...]
    timings_s: List[float]
    median_s: float
    iqr_s: float
    metrics: Dict[str, Any]
    evals_per_sec: Optional[float] = None
    report: Optional[str] = None
    #: cProfile top-N cumulative dump of one extra run (``--profile``).
    profile: Optional[str] = None


#: Functions shown per case in a ``--profile`` dump.
PROFILE_TOP_N = 25


def _profile_case(case: BenchCase, context: BenchContext, state: Any) -> str:
    """One additional (untimed) run under cProfile; returns the top-N
    cumulative-time table — the hotspot attribution that made PR 1's
    RC-layout finding possible, now reproducible per case."""
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    case.run(context, state)
    profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(PROFILE_TOP_N)
    return stream.getvalue()


def run_case(
    case: BenchCase, context: BenchContext, profile: bool = False
) -> CaseResult:
    state = case.prepare(context)
    repeats_cap = getattr(case, "repeats_cap", None)
    warmup_cap = getattr(case, "warmup_cap", None)
    repeats = context.repeats if repeats_cap is None else min(
        context.repeats, repeats_cap
    )
    warmup = context.warmup if warmup_cap is None else min(
        context.warmup, warmup_cap
    )
    for _ in range(warmup):
        case.run(context, state)
    timings: List[float] = []
    metrics: Dict[str, Any] = {}
    for _ in range(repeats):
        started = time.perf_counter()
        metrics = dict(case.run(context, state))
        timings.append(time.perf_counter() - started)
    report = metrics.pop("report", None)
    median_s, iqr_s = timing_stats(timings)
    evals_per_sec = None
    evaluations = metrics.get("evaluations")
    if isinstance(evaluations, (int, float)) and median_s > 0:
        evals_per_sec = evaluations / median_s
    return CaseResult(
        name=case.name,
        suites=case.suites,
        scenarios=case.scenarios,
        timings_s=timings,
        median_s=median_s,
        iqr_s=iqr_s,
        metrics=metrics,
        evals_per_sec=evals_per_sec,
        report=report,
        profile=_profile_case(case, context, state) if profile else None,
    )


@dataclass
class SuiteRun:
    """Everything one suite execution measured."""

    suite: str
    context: BenchContext
    results: List[CaseResult] = field(default_factory=list)
    #: scenario name -> descriptor (family, seed, params, hash, sizes)
    scenarios: Dict[str, Dict[str, Any]] = field(default_factory=dict)


def describe_scenario(entry: Scenario) -> Dict[str, Any]:
    instance = entry.build()
    return {
        "family": entry.family,
        "seed": entry.seed,
        "params": entry.param_dict,
        "hash": scenario_hash(instance),
        "num_tasks": len(instance.application),
        "num_edges": instance.application.dag.num_edges(),
        "deadline_ms": instance.deadline_ms,
        "resources": sorted(
            resource.name for resource in instance.architecture.resources()
        ),
    }


def run_suite(
    suite: str,
    context: Optional[BenchContext] = None,
    pattern: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
    profile: bool = False,
) -> SuiteRun:
    """Run every registered case of ``suite`` (optionally filtered).
    ``profile`` adds one cProfile'd run per case (dump on the result)."""
    context = context if context is not None else context_for_suite(suite)
    cases = list_cases(suite=suite, pattern=pattern)
    if not cases:
        raise ConfigurationError(
            f"no bench cases match suite={suite!r} pattern={pattern!r}"
        )
    suite_run = SuiteRun(suite=suite, context=context)
    for case in cases:
        if progress is not None:
            progress(f"running {case.name} ...")
        suite_run.results.append(run_case(case, context, profile=profile))
    touched = sorted({name for case in cases for name in case.scenarios})
    for name in touched:
        suite_run.scenarios[name] = describe_scenario(get_scenario(name))
    return suite_run


# ----------------------------------------------------------------------
# shared measurement helpers
# ----------------------------------------------------------------------
def move_eval_loop(
    instance: ProblemInstance,
    engine: str,
    n_evals: int,
    seed: int = 7,
    time_evals_only: bool = False,
) -> Dict[str, Any]:
    """The annealer-shaped hot loop: propose, apply, evaluate, 50% undo.

    Returns ``evaluations`` (for the harness's evals/sec counter), the
    final makespan, and — with ``time_evals_only`` — ``eval_elapsed_s``
    covering just the ``evaluate`` calls (the engine-comparison tables
    exclude move-proposal overhead).
    """
    application, architecture = instance.application, instance.architecture
    evaluator = Evaluator(application, architecture, engine=engine)
    rng = random.Random(seed)
    solution = random_initial_solution(
        application, architecture, rng, hw_fraction=0.5
    )
    generator = MoveGenerator(application)
    elapsed = 0.0
    done = 0
    makespan = evaluator.evaluate(solution).makespan_ms
    while done < n_evals:
        try:
            move = generator.propose(solution, rng)
            move.apply(solution)
        except InfeasibleMoveError:
            continue
        if time_evals_only:
            started = time.perf_counter()
            makespan = evaluator.evaluate(solution).makespan_ms
            elapsed += time.perf_counter() - started
        else:
            makespan = evaluator.evaluate(solution).makespan_ms
        done += 1
        if rng.random() < 0.5:
            move.undo(solution)
    out: Dict[str, Any] = {
        "evaluations": done,
        "final_makespan_ms": makespan,
        "engine": engine,
    }
    # The engine's internal telemetry counters — sync sizes, memo hits
    # and order repairs next to every throughput number make
    # regressions attributable.
    for name, value in sorted(evaluator.telemetry_counters().items()):
        out[f"counter_{name}"] = value
    if time_evals_only:
        out["eval_elapsed_s"] = elapsed
    return out
