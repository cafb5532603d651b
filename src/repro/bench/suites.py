"""The registered benchmark cases, grouped into ``quick``/``full`` suites.

Three layers of cases:

* **Corpus throughput** — every corpus scenario × both evaluation
  engines through the annealer-shaped move/evaluate/undo loop; the
  machine-readable evals/sec trajectory that perf PRs are gated on.
* **Multi-seed search** — adaptive-SA replicate batches expressed as
  batch :class:`~repro.api.specs.ExplorationRequest` specs (the
  scenario's bundled document is the application) and executed through
  :func:`repro.api.facade.explore` (``jobs=N``); cases whose per-job
  architectures vary (the reconfiguration ablation) stay on the raw
  runner underneath the façade.
* **Ported experiment scripts** — the measurement bodies of the 14
  historical ``benchmarks/bench_*.py`` scripts; the scripts are now
  thin shims that call these cases and assert on the returned metrics.

Every case returns a flat JSON-serializable metrics mapping; the
optional ``"report"`` key carries the human-readable table the old
scripts used to print.
"""

from __future__ import annotations

import math
import os
import random
import time
from typing import Any, Dict, List

from repro.analysis.combinatorics import (
    chain_interleavings,
    solution_space_report,
)
from repro.analysis.plot import plot_sweep, plot_trace
from repro.analysis.stats import Summary
from repro.analysis.sweep import run_device_sweep
from repro.api.facade import explore
from repro.api.specs import (
    ApplicationSpec,
    BudgetSpec,
    ExplorationRequest,
)
from repro.api.specs import StrategySpec as ApiStrategySpec
from repro.arch.architecture import Architecture
from repro.arch.asic import Asic
from repro.arch.bus import Bus
from repro.arch.processor import Processor
from repro.arch.reconfigurable import ReconfigurableCircuit
from repro.bench.corpus import CORPUS, get_scenario
from repro.bench.harness import (
    ENGINES,
    BenchContext,
    bench_case,
    move_eval_loop,
)
from repro.experiments.ablations import (
    SCHEDULE_ABLATION_HEADER,
    run_bus_ablation,
    run_impl_ablation,
    run_schedule_ablation,
)
from repro.experiments.comparison import run_comparison
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import FIG3_SIZES, format_fig3_table
from repro.experiments.pareto import format_pareto_table, run_pareto_front
from repro.experiments.quality import format_quality_table, run_quality_knob
from repro.mapping.cost import SystemCost
from repro.mapping.evaluator import Evaluator
from repro.mapping.solution import random_initial_solution
from repro.model.motion import MOTION_DEADLINE_MS, motion_detection_application
from repro.sa.explorer import DesignSpaceExplorer
from repro.sa.trace import downsample
from repro.search.runner import (
    InstanceSpec,
    SearchJob,
    StrategySpec,
    best_evaluation_of,
    run_search_jobs,
)


def _scaled_warmup(iterations: int) -> int:
    """The historical scripts' warmup (1200 at the paper's budget),
    scaled down safely for quick contexts."""
    return min(1200, max(1, iterations // 4))


def _summary_dict(summary: Summary) -> Dict[str, float]:
    return {
        "mean": summary.mean,
        "std": summary.std,
        "min": summary.minimum,
        "median": summary.median,
        "max": summary.maximum,
        "n": summary.n,
    }


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
                strategy=ApiStrategySpec("sa", {"keep_trace": False}),
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
        strategy=ApiStrategySpec("sa", {"keep_trace": False}),
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
            strategy=ApiStrategySpec("sa", {"keep_trace": keep_trace}),
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
    re-stamping the DRLC and forcing ``IncrementalEngine._refresh_rc`` —
    and re-evaluates, so it measures one RC refresh (layout realization
    through the per-context memo, edge patch, suffix DP) per flip."""
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


# ----------------------------------------------------------------------
# ported experiment scripts (full suite; heavy => single repeat)
# ----------------------------------------------------------------------
#: Ported experiment scripts run minutes, not milliseconds: one timed
#: measurement, no warmup — their value is the metrics trajectory.
_HEAVY = dict(suites=("full",), repeats_cap=1, warmup_cap=0)


@bench_case(name="experiment/fig2_trace", scenarios=("motion/2000",), **_HEAVY)
def _fig2(context: BenchContext, state: Any) -> Dict[str, Any]:
    """E1 / Fig. 2 — execution time and context count vs iteration."""
    result = run_fig2(
        n_clbs=2000,
        iterations=context.iterations,
        warmup_iterations=_scaled_warmup(context.iterations),
        seed=context.seed,
    )
    ev = result.final_evaluation
    lo, hi = result.warmup_spread()
    table = [f"{'iteration':>10} {'exec (ms)':>10} {'contexts':>9}"]
    for record in downsample(
        result.trace, every=max(len(result.trace) // 40, 1)
    ):
        table.append(
            f"{record.iteration:>10} {record.current_cost:>10.2f} "
            f"{record.num_contexts:>9}"
        )
    return {
        "initial_makespan_ms": result.initial_evaluation.makespan_ms,
        "final_makespan_ms": ev.makespan_ms,
        "num_contexts": ev.num_contexts,
        "hw_tasks": ev.hw_tasks,
        "warmup_lo": lo,
        "warmup_hi": hi,
        "iterations_to_deadline": result.iterations_to_deadline(),
        "deadline_ms": result.deadline_ms,
        "evaluations": result.iterations_run,
        "report": "\n".join(
            [result.format_summary(), "", plot_trace(result.trace), ""]
            + table
        ),
    }


@bench_case(name="experiment/fig3_sweep", scenarios=("motion/2000",), **_HEAVY)
def _fig3(context: BenchContext, state: Any) -> Dict[str, Any]:
    """E2 / Fig. 3 — execution/reconfiguration/contexts vs device size."""
    rows = run_device_sweep(
        motion_detection_application(),
        sizes=FIG3_SIZES,
        runs=context.runs,
        iterations=context.iterations,
        warmup_iterations=_scaled_warmup(context.iterations),
        deadline_ms=MOTION_DEADLINE_MS,
        seed0=1,
        jobs=context.jobs,
    )
    return {
        "rows": {
            str(row.n_clbs): {
                "execution_ms": row.execution_ms,
                "execution_std_ms": row.execution_std_ms,
                "initial_reconfig_ms": row.initial_reconfig_ms,
                "dynamic_reconfig_ms": row.dynamic_reconfig_ms,
                "reconfig_ms": row.reconfig_ms,
                "num_contexts": row.num_contexts,
                "hw_tasks": row.hw_tasks,
                "feasible_fraction": row.feasible_fraction,
            }
            for row in rows
        },
        "best_n_clbs": min(rows, key=lambda r: r.execution_ms).n_clbs,
        "sizes": list(FIG3_SIZES),
        "report": format_fig3_table(rows) + "\n\n" + plot_sweep(rows),
    }


@bench_case(name="experiment/comparison", scenarios=("motion/2000",), **_HEAVY)
def _comparison(context: BenchContext, state: Any) -> Dict[str, Any]:
    """E3 — adaptive SA vs the GA baseline of Ben Chehida & Auguin.

    Always sequential: the headline metric is the SA/GA *wall-clock
    ratio*, and racing both optimizers concurrently would let CPU
    contention distort exactly that number.
    """
    result = run_comparison(
        n_clbs=2000,
        sa_iterations=context.iterations,
        sa_warmup=_scaled_warmup(context.iterations),
        ga_population=300,
        ga_generations=60,
        seed=11,
        jobs=1,
    )
    return {
        "sa_makespan_ms": result.sa_makespan_ms,
        "ga_makespan_ms": result.ga_makespan_ms,
        "sa_runtime_s": result.sa_runtime_s,
        "ga_runtime_s": result.ga_runtime_s,
        "sa_contexts": result.sa_contexts,
        "ga_contexts": result.ga_contexts,
        "speedup": result.speedup,
        "deadline_ms": result.deadline_ms,
        "report": result.format_table(),
    }


@bench_case(
    name="experiment/quality_knob", scenarios=("motion/2000",), **_HEAVY
)
def _quality(context: BenchContext, state: Any) -> Dict[str, Any]:
    """The designer's quality/time knob (lambda_rate sweep)."""
    rates = (0.4, 0.1, 0.025)
    rows = run_quality_knob(
        lambda_rates=rates, runs=context.runs, jobs=context.jobs
    )
    return {
        "rows": {
            str(row.lambda_rate): {
                "makespan": _summary_dict(row.makespan),
                "mean_iterations": row.mean_iterations,
                "mean_runtime_s": row.mean_runtime_s,
            }
            for row in rows
        },
        "report": format_quality_table(rows),
    }


@bench_case(
    name="experiment/pareto_front", scenarios=("motion/2000",), **_HEAVY
)
def _pareto(context: BenchContext, state: Any) -> Dict[str, Any]:
    """Cost-performance Pareto front over a deadline sweep."""
    deadlines = (80.0, 60.0, 40.0, 30.0)
    points = run_pareto_front(
        deadlines_ms=deadlines,
        iterations=context.iterations,
        warmup=_scaled_warmup(context.iterations),
    )
    return {
        "rows": {
            str(point.deadline_ms): {
                "makespan_ms": point.makespan_ms,
                "monetary_cost": point.monetary_cost,
                "meets_deadline": point.meets_deadline,
                "resources": list(point.resources),
            }
            for point in points
        },
        "report": format_pareto_table(points),
    }


ARCH_EXPLORATION_CATALOG = [
    lambda name: Processor(name, speed_factor=1.0, monetary_cost=1.0),
    lambda name: ReconfigurableCircuit(
        name, n_clbs=1000, reconfig_ms_per_clb=0.0225, monetary_cost=2.0
    ),
    lambda name: Asic(name, monetary_cost=4.0),
]


def minimal_platform() -> Architecture:
    arch = Architecture("minimal", bus=Bus(rate_kbytes_per_ms=50.0))
    arch.add_resource(Processor("arm922", monetary_cost=1.0))
    arch.add_resource(
        ReconfigurableCircuit(
            "virtex", n_clbs=1000, reconfig_ms_per_clb=0.0225,
            monetary_cost=2.0,
        )
    )
    return arch


@bench_case(
    name="experiment/arch_exploration", scenarios=("motion/2000",), **_HEAVY
)
def _arch_exploration(context: BenchContext, state: Any) -> Dict[str, Any]:
    """A4 — architecture exploration with moves m3/m4 under SystemCost."""
    explorer = DesignSpaceExplorer(
        motion_detection_application(),
        minimal_platform(),
        iterations=context.iterations,
        warmup_iterations=_scaled_warmup(context.iterations),
        seed=19,
        p_zero=0.05,
        catalog=ARCH_EXPLORATION_CATALOG,
        cost_function=SystemCost(
            deadline_ms=MOTION_DEADLINE_MS, penalty_per_ms=50.0
        ),
        keep_trace=False,
    )
    result = explorer.run()
    arch = result.best_solution.architecture
    ev = result.best_evaluation
    return {
        "makespan_ms": ev.makespan_ms,
        "feasible": ev.feasible,
        "monetary_cost": arch.total_monetary_cost(),
        "num_resources": len(list(arch.resources())),
        "num_processors": len(arch.processors()),
        "resources": [r.name for r in arch.resources()],
        "evaluations": result.annealing.iterations_run,
        "report": (
            "Architecture exploration (SystemCost, 40 ms deadline)\n"
            f"  final makespan:   {ev.makespan_ms:.2f} ms\n"
            f"  final resources:  {[r.name for r in arch.resources()]}\n"
            f"  monetary cost:    {arch.total_monetary_cost():.1f}"
        ),
    }


@bench_case(name="ablation/schedules", scenarios=("motion/2000",), **_HEAVY)
def _ablation_schedules(context: BenchContext, state: Any) -> Dict[str, Any]:
    """A1 — cooling schedules vs no-temperature baselines, equal budget."""
    rows = run_schedule_ablation(
        n_clbs=2000,
        iterations=context.iterations,
        warmup=_scaled_warmup(context.iterations),
        runs=context.runs,
        jobs=context.jobs,
    )
    return {
        "rows": {
            row.method: dict(
                _summary_dict(row.makespan),
                mean_runtime_s=row.mean_runtime_s,
            )
            for row in rows
        },
        "report": "\n".join(
            ["Schedule ablation (motion detection, 2000 CLBs)",
             SCHEDULE_ABLATION_HEADER]
            + [row.format_row() for row in rows]
        ),
    }


@bench_case(name="ablation/impls", scenarios=("motion/2000",), **_HEAVY)
def _ablation_impls(context: BenchContext, state: Any) -> Dict[str, Any]:
    """A3 — multi-implementation exploration on/off."""
    results = run_impl_ablation(
        n_clbs=2000,
        iterations=context.iterations,
        warmup=_scaled_warmup(context.iterations),
        runs=context.runs,
        jobs=context.jobs,
    )
    return {
        "rows": {mode: _summary_dict(s) for mode, s in results.items()},
        "report": "\n".join(
            ["Implementation-selection ablation (motion, 2000 CLBs)"]
            + [f"  {mode:<10} {summary.format('ms')}"
               for mode, summary in results.items()]
        ),
    }


@bench_case(name="ablation/bus", scenarios=("motion/2000",), **_HEAVY)
def _ablation_bus(context: BenchContext, state: Any) -> Dict[str, Any]:
    """Bus policy: serialized transactions vs plain edge delays."""
    results = run_bus_ablation(
        n_clbs=2000,
        iterations=context.iterations,
        warmup=_scaled_warmup(context.iterations),
        runs=context.runs,
        jobs=context.jobs,
    )
    return {
        "rows": {policy: _summary_dict(s) for policy, s in results.items()},
        "report": "\n".join(
            ["Bus-policy ablation (motion detection, 2000 CLBs)"]
            + [f"  {policy:<8} {summary.format('ms')}"
               for policy, summary in results.items()]
        ),
    }


def reconfig_ablation_arch(partial: bool) -> Architecture:
    arch = Architecture(
        "ablation_platform", bus=Bus(rate_kbytes_per_ms=50.0)
    )
    arch.add_resource(Processor("arm922"))
    arch.add_resource(
        ReconfigurableCircuit(
            "virtex",
            n_clbs=2000,
            reconfig_ms_per_clb=0.0225,
            partial_reconfiguration=partial,
        )
    )
    return arch


@bench_case(name="ablation/reconfig", scenarios=("motion/2000",), **_HEAVY)
def _ablation_reconfig(context: BenchContext, state: Any) -> Dict[str, Any]:
    """Partial vs full reconfiguration, multi-seed through the runner."""
    application = motion_detection_application()
    spec = StrategySpec("sa", {
        "iterations": context.iterations,
        "warmup_iterations": _scaled_warmup(context.iterations),
        "keep_trace": False,
    })
    job_list = [
        SearchJob(
            spec,
            InstanceSpec(
                application,
                architecture=reconfig_ablation_arch(partial),
            ),
            seed=31 + r,
            tag=["partial" if partial else "full", r],
        )
        for partial in (True, False)
        for r in range(context.runs)
    ]
    outcomes = run_search_jobs(job_list, jobs=context.jobs)
    by_mode: Dict[str, Dict[str, List[float]]] = {
        "partial": {"exec": [], "reconfig": [], "contexts": []},
        "full": {"exec": [], "reconfig": [], "contexts": []},
    }
    for outcome in outcomes:
        ev = best_evaluation_of(outcome.result)
        bucket = by_mode[outcome.tag[0]]
        bucket["exec"].append(ev.makespan_ms)
        bucket["reconfig"].append(ev.reconfig_ms)
        bucket["contexts"].append(float(ev.num_contexts))
    rows = {
        mode: {
            "exec_mean": sum(v["exec"]) / len(v["exec"]),
            "reconfig_mean": sum(v["reconfig"]) / len(v["reconfig"]),
            "contexts_mean": sum(v["contexts"]) / len(v["contexts"]),
        }
        for mode, v in by_mode.items()
    }
    report = [
        "Partial vs full reconfiguration (2000 CLBs, tR = 22.5 us/CLB)",
        f"{'mode':<9} {'exec(ms)':>9} {'reconfig(ms)':>13} {'contexts':>9}",
    ]
    for mode, row in rows.items():
        report.append(
            f"{mode:<9} {row['exec_mean']:>9.2f} "
            f"{row['reconfig_mean']:>13.2f} {row['contexts_mean']:>9.2f}"
        )
    return {"rows": rows, "report": "\n".join(report)}


@bench_case(
    name="runner/parallel_scaling", scenarios=("motion/2000",), **_HEAVY
)
def _runner_scaling(context: BenchContext, state: Any) -> Dict[str, Any]:
    """Parallel sweep scaling: jobs=1 vs jobs=N wall clock, rows equal."""
    application = motion_detection_application()
    workers = min(os.cpu_count() or 1, 4)
    kwargs = dict(
        sizes=(400, 800, 2000),
        runs=context.runs,
        iterations=context.iterations,
        warmup_iterations=_scaled_warmup(context.iterations),
        seed0=1,
        engine="incremental",
    )
    started = time.perf_counter()
    sequential = run_device_sweep(application, jobs=1, **kwargs)
    t_seq = time.perf_counter() - started
    started = time.perf_counter()
    parallel = run_device_sweep(application, jobs=workers, **kwargs)
    t_par = time.perf_counter() - started
    speedup = t_seq / max(t_par, 1e-9)
    return {
        "t_sequential_s": t_seq,
        "t_parallel_s": t_par,
        "speedup": speedup,
        "workers": workers,
        "rows_identical": sequential == parallel,
        "cpu_count": os.cpu_count(),
        "report": (
            f"device sweep: 3 sizes x {context.runs} runs x "
            f"{context.iterations} iterations\n"
            f"{'jobs':>6} {'wall (s)':>10}\n"
            f"{1:>6} {t_seq:>10.2f}\n"
            f"{workers:>6} {t_par:>10.2f}\n"
            f"speedup: {speedup:.2f}x on {os.cpu_count()} visible cores"
        ),
    }
