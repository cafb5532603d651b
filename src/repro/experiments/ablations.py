"""Ablations A1/A3 and the bus-policy study.

* **Schedule ablation** — Lam adaptive vs modified-Lam vs geometric vs
  hill climbing vs random search at an equal move budget: what the
  adaptive schedule buys (the paper's central claim is that it needs no
  tuning yet matches or beats tuned alternatives).
* **Implementation-choice ablation** — with the paper's 5-6 Pareto
  variants per function versus frozen smallest/fastest variants: what
  the area/time trade-off exploration buys.
* **Bus-policy ablation** — serialized transactions (the paper's model)
  versus plain edge delays: how much bus exclusiveness matters.

All three submit their runs through the parallel runner
(:mod:`repro.search.runner`): every ``(configuration, seed)`` cell is an
independent job, so ``jobs=N`` spreads a whole ablation over N worker
processes without changing its numbers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.analysis.stats import Summary, summarize
from repro.arch.architecture import epicure_architecture
from repro.errors import ConfigurationError
from repro.model.motion import motion_detection_application
from repro.mapping.solution import random_initial_solution
from repro.search.runner import (
    InstanceSpec,
    SearchJob,
    StrategySpec,
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
