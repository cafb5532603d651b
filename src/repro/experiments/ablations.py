"""Ablations A1/A3, the bus-policy study and the reconfiguration study.

* **Schedule ablation** — Lam adaptive vs modified-Lam vs geometric vs
  hill climbing vs random search at an equal move budget: what the
  adaptive schedule buys (the paper's central claim is that it needs no
  tuning yet matches or beats tuned alternatives).
* **Implementation-choice ablation** — with the paper's 5-6 Pareto
  variants per function versus frozen smallest/fastest variants: what
  the area/time trade-off exploration buys.
* **Bus-policy ablation** — serialized transactions (the paper's model)
  versus plain edge delays: how much bus exclusiveness matters.
* **Reconfiguration ablation** — partial reconfiguration (the paper's
  model, section 3.2) versus whole-fabric reconfiguration, as in the
  full-device approaches of its related work (Chatha & Vemuri [5]).

All four submit their runs through the parallel runner
(:mod:`repro.search.runner`): every ``(configuration, seed)`` cell is an
independent job, so ``jobs=N`` spreads a whole ablation over N worker
processes without changing its numbers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.analysis.stats import Summary, summarize
from repro.arch.architecture import Architecture, epicure_architecture
from repro.arch.bus import Bus
from repro.arch.processor import Processor
from repro.arch.reconfigurable import ReconfigurableCircuit
from repro.errors import ConfigurationError
from repro.model.motion import motion_detection_application
from repro.mapping.solution import random_initial_solution
from repro.search.runner import (
    InstanceSpec,
    SearchJob,
    StrategySpec,
    best_evaluation_of,
    run_search_jobs,
)


@dataclass(frozen=True)
class ScheduleAblationRow:
    method: str
    makespan: Summary
    mean_runtime_s: float

    def format_row(self) -> str:
        return (
            f"{self.method:<16} {self.makespan.mean:>9.2f} {self.makespan.std:>7.2f} "
            f"{self.makespan.minimum:>8.2f} {self.makespan.maximum:>8.2f} "
            f"{self.mean_runtime_s:>9.2f}"
        )


SCHEDULE_ABLATION_HEADER = (
    f"{'method':<16} {'mean(ms)':>9} {'std':>7} {'min':>8} {'max':>8} {'time(s)':>9}"
)


def format_schedule_ablation(rows: Sequence[ScheduleAblationRow]) -> str:
    return "\n".join(
        ["Schedule ablation (motion detection, 2000 CLBs)",
         SCHEDULE_ABLATION_HEADER]
        + [row.format_row() for row in rows]
    )


def format_ablation(title: str, results: Dict[str, Summary]) -> str:
    """One makespan summary per setting, as returned by the
    implementation-choice and bus-policy ablations."""
    return "\n".join(
        [title]
        + [f"  {name:<10} {summary.format('ms')}"
           for name, summary in results.items()]
    )


def _collect_rows(
    methods: Sequence[str],
    job_list: List[SearchJob],
    runs: int,
    jobs: int,
) -> List[ScheduleAblationRow]:
    outcomes = run_search_jobs(job_list, jobs=jobs)
    by_cell = {(o.tag[0], o.tag[1]): o.result for o in outcomes}
    rows: List[ScheduleAblationRow] = []
    for method in methods:
        results = [by_cell[(method, r)] for r in range(runs)]
        rows.append(
            ScheduleAblationRow(
                method=method,
                makespan=summarize([r.best_cost for r in results]),
                mean_runtime_s=sum(r.runtime_s for r in results) / runs,
            )
        )
    return rows


def run_schedule_ablation(
    n_clbs: int = 2000,
    iterations: int = 6000,
    warmup: int = 1000,
    runs: int = 5,
    seed0: int = 42,
    jobs: int = 1,
) -> List[ScheduleAblationRow]:
    """A1: cooling schedules and no-temperature baselines, equal budget."""
    if runs < 1:
        raise ConfigurationError("runs must be >= 1")
    application = motion_detection_application()
    instance = InstanceSpec(application, n_clbs=n_clbs)

    methods = ["lam", "modified_lam", "geometric", "hill_climb", "random_search"]
    job_list: List[SearchJob] = []
    for name in ("lam", "modified_lam", "geometric"):
        spec = StrategySpec("sa", {
            "iterations": iterations,
            "warmup_iterations": warmup,
            "schedule_name": name,
            "keep_trace": False,
        })
        job_list.extend(
            SearchJob(spec, instance, seed=seed0 + r, tag=[name, r])
            for r in range(runs)
        )
    # Hill climbing: same move space, zero temperature.
    hill_spec = StrategySpec("hill_climber", {"iterations": iterations})
    # Random restart: an evaluation budget comparable to one SA run.
    random_spec = StrategySpec(
        "random", {"samples": max(iterations // 10, 1)}
    )
    for r in range(runs):
        seed = seed0 + r
        architecture = epicure_architecture(n_clbs=n_clbs)
        initial = random_initial_solution(
            application, architecture, random.Random(seed)
        )
        job_list.append(SearchJob(
            hill_spec,
            InstanceSpec(application, architecture=architecture),
            seed=seed, tag=["hill_climb", r], initial=initial,
        ))
        job_list.append(SearchJob(
            random_spec, instance, seed=seed, tag=["random_search", r],
        ))
    return _collect_rows(methods, job_list, runs, jobs)


def run_impl_ablation(
    n_clbs: int = 2000,
    iterations: int = 6000,
    warmup: int = 1000,
    runs: int = 5,
    seed0: int = 17,
    jobs: int = 1,
) -> Dict[str, Summary]:
    """A3: multi-implementation exploration on/off.

    Returns makespan summaries for three settings: free implementation
    choice (p_impl > 0, the paper's mode), frozen smallest variants, and
    frozen fastest variants.
    """
    application = motion_detection_application()
    job_list: List[SearchJob] = []
    for mode in ("free", "smallest", "fastest"):
        p_impl = 0.15 if mode == "free" else 0.0
        spec = StrategySpec("sa", {
            "iterations": iterations,
            "warmup_iterations": warmup,
            "p_impl": p_impl,
            "keep_trace": False,
        })
        for r in range(runs):
            seed = seed0 + r
            architecture = epicure_architecture(n_clbs=n_clbs)
            initial = None
            if mode != "free":
                # Freeze every hardware-capable task to one variant in
                # the (seeded) initial solution the explorer would have
                # drawn itself.
                initial = random_initial_solution(
                    application, architecture, random.Random(seed)
                )
                for task in application.hardware_capable_tasks():
                    choice = (
                        0 if mode == "smallest"
                        else task.num_implementations - 1
                    )
                    initial.set_implementation_choice(task.index, choice)
            job_list.append(SearchJob(
                spec,
                InstanceSpec(application, architecture=architecture),
                seed=seed, tag=[mode, r], initial=initial,
            ))
    outcomes = run_search_jobs(job_list, jobs=jobs)
    by_cell = {(o.tag[0], o.tag[1]): o.result for o in outcomes}
    return {
        mode: summarize([by_cell[(mode, r)].best_cost for r in range(runs)])
        for mode in ("free", "smallest", "fastest")
    }


def run_bus_ablation(
    n_clbs: int = 2000,
    iterations: int = 6000,
    warmup: int = 1000,
    runs: int = 5,
    seed0: int = 23,
    jobs: int = 1,
) -> Dict[str, Summary]:
    """Bus policy: serialized transactions vs plain edge delays."""
    application = motion_detection_application()
    instance = InstanceSpec(application, n_clbs=n_clbs)
    job_list = [
        SearchJob(
            StrategySpec("sa", {
                "iterations": iterations,
                "warmup_iterations": warmup,
                "bus_policy": policy,
                "keep_trace": False,
            }),
            instance,
            seed=seed0 + r,
            tag=[policy, r],
        )
        for policy in ("ordered", "edge")
        for r in range(runs)
    ]
    outcomes = run_search_jobs(job_list, jobs=jobs)
    by_cell = {(o.tag[0], o.tag[1]): o.result for o in outcomes}
    return {
        policy: summarize(
            [by_cell[(policy, r)].best_cost for r in range(runs)]
        )
        for policy in ("ordered", "edge")
    }


def reconfig_ablation_arch(partial: bool) -> Architecture:
    """One processor and a 2000-CLB DRLC that reconfigures partially or
    as a whole fabric (22.5 us per CLB either way)."""
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


def run_reconfig_ablation(
    iterations: int = 6000,
    warmup: int = 1000,
    runs: int = 5,
    seed0: int = 31,
    jobs: int = 1,
) -> Dict[str, Dict[str, float]]:
    """Partial vs full reconfiguration.

    Returns, per mode (``"partial"``, ``"full"``), the means of the best
    solutions' makespan (``exec_mean``), total reconfiguration time
    (``reconfig_mean``) and context count (``contexts_mean``).
    """
    application = motion_detection_application()
    spec = StrategySpec("sa", {
        "iterations": iterations,
        "warmup_iterations": warmup,
        "keep_trace": False,
    })
    modes = {"partial": True, "full": False}
    job_list = [
        SearchJob(
            spec,
            InstanceSpec(
                application,
                architecture=reconfig_ablation_arch(partial),
            ),
            seed=seed0 + r,
            tag=[mode, r],
        )
        for mode, partial in modes.items()
        for r in range(runs)
    ]
    samples: Dict[str, Dict[str, List[float]]] = {
        mode: {"exec": [], "reconfig": [], "contexts": []} for mode in modes
    }
    for outcome in run_search_jobs(job_list, jobs=jobs):
        ev = best_evaluation_of(outcome.result)
        bucket = samples[outcome.tag[0]]
        bucket["exec"].append(ev.makespan_ms)
        bucket["reconfig"].append(ev.reconfig_ms)
        bucket["contexts"].append(float(ev.num_contexts))
    return {
        mode: {
            f"{name}_mean": sum(values) / len(values)
            for name, values in bucket.items()
        }
        for mode, bucket in samples.items()
    }


def format_reconfig_ablation(rows: Dict[str, Dict[str, float]]) -> str:
    lines = [
        "Partial vs full reconfiguration (2000 CLBs, tR = 22.5 us/CLB)",
        f"{'mode':<9} {'exec(ms)':>9} {'reconfig(ms)':>13} {'contexts':>9}",
    ]
    for mode, row in rows.items():
        lines.append(
            f"{mode:<9} {row['exec_mean']:>9.2f} "
            f"{row['reconfig_mean']:>13.2f} {row['contexts_mean']:>9.2f}"
        )
    return "\n".join(lines)
