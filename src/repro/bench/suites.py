"""The registered benchmark cases, grouped into ``quick``/``full`` suites.

Two layers of cases:

* **Corpus throughput** — every corpus scenario × both evaluation
  engines through the annealer-shaped move/evaluate/undo loop; the
  machine-readable evals/sec trajectory that perf PRs are gated on.
* **Search, service and micro cases** — adaptive-SA replicate batches
  expressed as batch :class:`~repro.api.specs.ExplorationRequest` specs
  (the scenario's bundled document is the application) and executed
  through :func:`repro.api.facade.explore` (``jobs=N``), population
  tempering, the exploration service's cache and warm start, the
  solution-space table and two evaluation micro cases.

The paper's experiments are not cases: ``benchmarks/test_*.py`` call
:mod:`repro.experiments` directly and assert the paper's claims.

Every case returns a flat JSON-serializable metrics mapping; the
optional ``"report"`` key carries a human-readable table.
"""

from __future__ import annotations

import math
import random
import time
from typing import Any, Dict

from repro.analysis.combinatorics import (
    chain_interleavings,
    solution_space_report,
)
from repro.api.facade import explore
from repro.api.specs import (
    ApplicationSpec,
    BudgetSpec,
    ExplorationRequest,
    StrategySpec,
)
from repro.bench.corpus import CORPUS, get_scenario
from repro.bench.harness import (
    ENGINES,
    BenchContext,
    bench_case,
    move_eval_loop,
)
from repro.mapping.evaluator import Evaluator
from repro.mapping.solution import random_initial_solution
from repro.model.motion import motion_detection_application
from repro.sa.explorer import DesignSpaceExplorer


def _scaled_warmup(iterations: int) -> int:
    """A quarter of the budget as warmup, at most the paper's 1200."""
    return min(1200, max(1, iterations // 4))


# ----------------------------------------------------------------------
# corpus throughput (quick + full): the evals/sec trajectory
# ----------------------------------------------------------------------
def _register_throughput_cases() -> None:
    for scenario_name, entry in CORPUS.items():
        for engine in ENGINES:
            suites = ("quick", "full") if "quick" in entry.tags else ("full",)

            def fn(
                context: BenchContext,
                state: Any,
                _engine: str = engine,
            ) -> Dict[str, Any]:
                return move_eval_loop(
                    state, _engine, context.evals, seed=context.seed
                )

            def setup(
                context: BenchContext, _name: str = scenario_name
            ) -> Any:
                return get_scenario(_name).build()

            bench_case(
                name=f"throughput/{scenario_name}@{engine}",
                suites=suites,
                scenarios=(scenario_name,),
                setup=setup,
            )(fn)


_register_throughput_cases()


# ----------------------------------------------------------------------
# multi-seed search through the spec façade (quick + full)
# ----------------------------------------------------------------------
def _register_search_cases() -> None:
    for scenario_name in ("motion/2000", "tgff/36"):

        def setup(
            context: BenchContext, _name: str = scenario_name
        ) -> Any:
            # Scenario materialization is spec-shaped: the bundled
            # instance document doubles as the request's application.
            return get_scenario(_name).document()

        def fn(
            context: BenchContext,
            state: Any,
            _name: str = scenario_name,
        ) -> Dict[str, Any]:
            request = ExplorationRequest(
                kind="batch",
                application=ApplicationSpec(kind="bundled", document=state),
                strategy=StrategySpec("sa", {"keep_trace": False}),
                budget=BudgetSpec(
                    iterations=context.iterations,
                    warmup_iterations=_scaled_warmup(context.iterations),
                ),
                seeds=tuple(
                    context.seed + r for r in range(context.runs)
                ),
            )
            response = explore(request, jobs=context.jobs)
            return {
                "evaluations": sum(
                    r["evaluations"] for r in response.results
                ),
                "runs": context.runs,
                "best_cost_min": response.summary["best_cost_min"],
                "best_cost_mean": response.summary["best_cost_mean"],
                "deadline_ms": state["deadline_ms"],
            }

        bench_case(
            name=f"search/sa_multiseed@{scenario_name}",
            suites=("quick", "full"),
            scenarios=(scenario_name,),
            setup=setup,
        )(fn)


_register_search_cases()


# ----------------------------------------------------------------------
# population tempering: K chains over one compile pass
# ----------------------------------------------------------------------
def _population_run(application, architecture, chains, rounds, seed,
                    engine="incremental", swap_interval=10):
    from repro.sa.population import PopulationAnnealer

    annealer = PopulationAnnealer(
        application, architecture, chains=chains, iterations=rounds,
        warmup_iterations=max(1, rounds // 4), seed=seed,
        swap_interval=swap_interval, engine=engine, keep_trace=False,
    )
    started = time.perf_counter()
    result = annealer.search()
    return result, time.perf_counter() - started


def _register_tempering_cases() -> None:
    for scenario_name, chains in (("motion/2000", 4), ("tgff/120", 8)):

        def setup(context: BenchContext, _name: str = scenario_name) -> Any:
            return get_scenario(_name).build()

        def fn(
            context: BenchContext,
            state: Any,
            _chains: int = chains,
        ) -> Dict[str, Any]:
            rounds = max(10, context.iterations // _chains)
            result, elapsed = _population_run(
                state.application, state.architecture, _chains, rounds,
                context.seed,
            )
            steps = result.iterations_run * _chains
            return {
                "chains": _chains,
                "rounds": result.iterations_run,
                "chain_steps_per_sec": steps / max(elapsed, 1e-9),
                "best_cost": result.best_cost,
                "swap_attempts": result.extras["swap_attempts"],
                "swap_accepts": result.extras["swap_accepts"],
                "evaluations": result.evaluations,
            }

        bench_case(
            name=f"tempering/population@{scenario_name}",
            suites=("quick", "full"),
            scenarios=(scenario_name,),
            setup=setup,
        )(fn)


_register_tempering_cases()


@bench_case(
    name="tempering/population_vs_sequential@tgff/120",
    suites=("quick", "full"),
    scenarios=("tgff/120",),
    setup=lambda context: get_scenario("tgff/120").build(),
)
def _population_vs_sequential(
    context: BenchContext, state: Any
) -> Dict[str, Any]:
    """K=8 population chains vs 8 sequential SA chains.

    Records the aggregate chain-steps/sec of the population annealer's
    persistent per-chain delta path (apply → delta-sync → read the
    makespan, commit-on-accept) against both sequential baselines (full
    rebuild and incremental delta repair) at an identical per-chain
    round budget.  Each path reports the best of two
    identically-seeded timed runs, damping scheduler noise
    symmetrically.
    """
    chains = 8
    rounds = max(10, context.iterations // chains)
    warmup = max(1, rounds // 4)
    application, architecture = state.application, state.architecture

    population_sps = 0.0
    best_cost = math.inf
    result = None
    for _ in range(2):
        result, elapsed = _population_run(
            application, architecture, chains, rounds, context.seed,
        )
        steps = result.iterations_run * chains
        population_sps = max(population_sps, steps / max(elapsed, 1e-9))
        best_cost = result.best_cost  # identical seeds: same result
    sequential_sps = {}
    for engine in ("full", "incremental"):
        best_sps = 0.0
        for _ in range(2):
            explorers = [
                DesignSpaceExplorer(
                    application, architecture, iterations=rounds,
                    warmup_iterations=warmup, seed=context.seed + c,
                    engine=engine, keep_trace=False,
                )
                for c in range(chains)
            ]
            started = time.perf_counter()
            run_steps = sum(e.search().iterations_run for e in explorers)
            best_sps = max(
                best_sps,
                run_steps / max(time.perf_counter() - started, 1e-9),
            )
        sequential_sps[engine] = best_sps

    return {
        "chains": chains,
        "rounds": result.iterations_run,
        "population_steps_per_sec": population_sps,
        "sequential_full_steps_per_sec": sequential_sps["full"],
        "sequential_incremental_steps_per_sec": (
            sequential_sps["incremental"]
        ),
        "speedup_vs_full": population_sps / sequential_sps["full"],
        "speedup_vs_incremental": (
            population_sps / sequential_sps["incremental"]
        ),
        "best_cost": best_cost,
        "report": (
            f"population annealing, K={chains}, "
            f"{rounds} rounds (tgff/120)\n"
            f"{'path':<24} {'chain-steps/s':>14}\n"
            f"{'population':<24} {population_sps:>14.1f}\n"
            f"{'8x sequential full':<24} "
            f"{sequential_sps['full']:>14.1f}\n"
            f"{'8x sequential incr.':<24} "
            f"{sequential_sps['incremental']:>14.1f}\n"
            f"speedup vs full: "
            f"{population_sps / sequential_sps['full']:.2f}x, "
            f"vs incremental: "
            f"{population_sps / sequential_sps['incremental']:.2f}x"
        ),
    }


# ----------------------------------------------------------------------
# exploration service: cold compute vs warm cache hit
# ----------------------------------------------------------------------
@bench_case(
    name="service/cache_hit@motion",
    suites=("quick", "full"),
    scenarios=("motion/2000",),
)
def _service_cache_hit(context: BenchContext, state: Any) -> Dict[str, Any]:
    """Cold submit+compute vs warm cache lookup through the service.

    Each timed run builds a *fresh* temp store (the harness repeats the
    body, and the cold path must actually be cold), submits one annealer
    request, drains it inline, then submits the identical request again
    and serves it from the cache.  The headline metric is the hit/miss
    latency ratio — how much a content-addressed hit saves over
    recomputing."""
    import shutil
    import tempfile

    from repro.service import ExplorationService

    request = ExplorationRequest(
        kind="single",
        application=ApplicationSpec(kind="builtin", name="motion"),
        strategy=StrategySpec("sa", {"keep_trace": False}),
        budget=BudgetSpec(
            iterations=context.iterations,
            warmup_iterations=_scaled_warmup(context.iterations),
        ),
        seed=context.seed,
    )
    root = tempfile.mkdtemp(prefix="repro-bench-store-")
    try:
        service = ExplorationService(root)
        started = time.perf_counter()
        cold = service.submit(request)
        executed = service.run_local()
        cold_s = time.perf_counter() - started
        started = time.perf_counter()
        warm = service.submit(request)
        warm_s = time.perf_counter() - started
        record = service.status(cold.key)
        return {
            "cold_submit_s": cold_s,
            "warm_lookup_s": warm_s,
            "hit_miss_latency_ratio": cold_s / max(warm_s, 1e-9),
            "cold_status": cold.status,
            "warm_status": warm.status,
            "executions": record.attempts,
            "cache_hits": record.hits,
            "jobs_executed": executed,
            "evaluations": sum(
                r["evaluations"] for r in warm.response.results
            ),
            "report": (
                f"service cache (motion, {context.iterations} iterations)\n"
                f"{'path':<14} {'seconds':>10}\n"
                f"{'cold compute':<14} {cold_s:>10.4f}\n"
                f"{'warm hit':<14} {warm_s:>10.4f}\n"
                f"hit/miss latency ratio: "
                f"{cold_s / max(warm_s, 1e-9):.0f}x"
            ),
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


@bench_case(
    name="service/warm_start@motion",
    suites=("quick", "full"),
    scenarios=("motion/2000",),
    setup=lambda context: get_scenario("motion/2000").document(),
)
def _service_warm_start(context: BenchContext, state: Any) -> Dict[str, Any]:
    """Warm-started convergence vs a cold run on a perturbed instance.

    The anytime/warm-start headline: solve the motion instance once
    (the donor), perturb one task's software duration by 5% (a
    param-only delta — same structure hash, different cache key), and
    submit the perturbed instance through the service.  The near-index
    finds the donor, its best solution is re-seeded onto the perturbed
    instance, and the annealer starts from it with warmup folded to
    zero.  The headline metric is ``evals_ratio``: the evaluations the
    warm run needs to reach the *cold* run's final best cost, as a
    fraction of the cold run's evaluations (the ISSUE target is
    <= 0.5x).  Each timed run builds a fresh temp store so the donor
    lookup is exercised end to end."""
    import copy
    import shutil
    import tempfile

    from repro.service import ExplorationService

    def request_for(
        document: Dict[str, Any], keep_trace: bool = False
    ) -> ExplorationRequest:
        # keep_trace doubles as keep_history: the measured runs need the
        # per-iteration best-so-far curve to locate the crossing point.
        return ExplorationRequest(
            kind="single",
            application=ApplicationSpec(kind="bundled", document=document),
            strategy=StrategySpec("sa", {"keep_trace": keep_trace}),
            budget=BudgetSpec(
                iterations=context.iterations,
                warmup_iterations=_scaled_warmup(context.iterations),
            ),
            seed=context.seed,
        )

    perturbed = copy.deepcopy(state)
    task = perturbed["application"]["tasks"][0]
    task["sw_time_ms"] = task["sw_time_ms"] * 1.05

    # cold baseline: the perturbed instance from a random initial
    cold = explore(request_for(perturbed))
    cold_result = cold.results[0]
    cold_best = cold_result["best_cost"]

    root = tempfile.mkdtemp(prefix="repro-bench-warm-")
    try:
        service = ExplorationService(root)
        service.submit(request_for(state))  # the donor
        service.run_local()
        outcome = service.submit(request_for(perturbed, keep_trace=True))
        service.run_local()
        record = service.status(outcome.key)
        warm = service.result(outcome.key)
        warm_result = warm.results[0]
        # history[i] is the best-so-far cost after iteration i+1, so the
        # first index at or below the cold final cost is the evaluation
        # count the warm run needed to match the cold run end-to-end.
        reached = next(
            (
                i + 1
                for i, cost in enumerate(warm_result["history"])
                if cost <= cold_best
            ),
            None,
        )
        evals_to_cold = (
            reached if reached is not None else warm_result["evaluations"]
        )
        ratio = evals_to_cold / max(cold_result["evaluations"], 1)
        warm_start = record.warm_start or {}
        delta = warm_start.get("delta", {})
        return {
            "cold_best_cost": cold_best,
            "cold_evaluations": cold_result["evaluations"],
            "warm_best_cost": warm_result["best_cost"],
            "warm_evaluations": warm_result["evaluations"],
            "warm_evals_to_cold_best": evals_to_cold,
            "evals_ratio": ratio,
            "reached_cold_best": reached is not None,
            "warm_start_hit": int(record.warm_start is not None),
            "warm_start_repairs": warm_start.get("repairs", 0),
            "delta_kind": delta.get("kind"),
            "delta_size": delta.get("size"),
            "evaluations": (
                cold_result["evaluations"] + warm_result["evaluations"]
            ),
            "report": (
                f"service warm start (motion, 5% duration perturbation, "
                f"{context.iterations} iterations)\n"
                f"{'path':<22} {'evals to cold best':>19}\n"
                f"{'cold (random init)':<22} "
                f"{cold_result['evaluations']:>19}\n"
                f"{'warm (delta-seeded)':<22} {evals_to_cold:>19}\n"
                f"evals ratio: {ratio:.3f}x "
                f"(delta {delta.get('kind')}/{delta.get('size')}, "
                f"{warm_start.get('repairs', 0)} repair(s))"
            ),
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


# ----------------------------------------------------------------------
# pure-analysis and micro cases (quick + full)
# ----------------------------------------------------------------------
@bench_case(
    name="analysis/combinatorics",
    suites=("quick", "full"),
    scenarios=("motion/2000",),
)
def _combinatorics(context: BenchContext, state: Any) -> Dict[str, Any]:
    """E4 — solution-space size table (paper section 5)."""
    application = motion_detection_application()
    report = solution_space_report(application, context_changes=(2, 4, 6))
    return {
        "total_orders": report.total_orders,
        "placements_2": report.placements[2],
        "placements_6": report.placements[6],
        "combinations_2": report.combinations[2],
        "combinations_4": report.combinations[4],
        "chain_7_6": chain_interleavings([7, 6]),
        "chain_2_1": chain_interleavings([2, 1]),
        "report": "Solution-space size (paper section 5)\n"
        + report.format_table(),
    }


@bench_case(
    name="micro/rc_layout_realization",
    suites=("quick", "full"),
    scenarios=("motion/2000",),
)
def _rc_layout_realization(context: BenchContext, state: Any) -> Dict[str, Any]:
    """Targeted micro-bench for the per-move RC-layout realization path:
    every iteration flips one hardware task's implementation choice —
    marking its context dirty for ``IncrementalEngine._refresh_contexts``
    — and re-evaluates, so it measures one context refresh (its
    re-derivation, boundary edge patch, suffix DP) per flip."""
    instance = get_scenario("motion/2000").build()
    application, architecture = instance.application, instance.architecture
    evaluator = Evaluator(application, architecture, engine="incremental")
    solution = random_initial_solution(
        application, architecture, random.Random(context.seed),
        hw_fraction=1.0,
    )
    flippable = [
        t for t in application.task_indices()
        if solution.context_of(t) is not None
        and application.task(t).num_implementations > 1
    ]
    makespan = evaluator.evaluate(solution).makespan_ms
    n = context.evals
    for k in range(n):
        task_index = flippable[k % len(flippable)]
        task = application.task(task_index)
        choice = (
            solution.implementation_choice(task_index) + 1
        ) % task.num_implementations
        solution.set_implementation_choice(task_index, choice)
        makespan = evaluator.evaluate(solution).makespan_ms
    return {
        "evaluations": n,
        "final_makespan_ms": makespan,
        "engine": "incremental",
        "flippable_tasks": len(flippable),
    }


@bench_case(
    name="kernel/solution_evaluation",
    suites=("quick", "full"),
    scenarios=("motion/2000",),
)
def _solution_evaluation(context: BenchContext, state: Any) -> Dict[str, Any]:
    """Full-pipeline evaluation throughput on the motion benchmark."""
    instance = get_scenario("motion/2000").build()
    evaluator = Evaluator(instance.application, instance.architecture)
    solution = random_initial_solution(
        instance.application,
        instance.architecture,
        random.Random(context.seed),
    )
    n = min(context.evals, 50)
    makespan = 0.0
    for _ in range(n):
        makespan = evaluator.makespan_ms(solution)
    return {"makespan_ms": makespan, "evaluations": n}
