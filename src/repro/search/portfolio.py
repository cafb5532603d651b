"""Strategy portfolio: race every searcher on one instance.

The paper argues its adaptive annealer needs no tuning; the cheapest way
to test that claim on a *new* instance is to race every strategy kind
under one evaluation budget and look at the scoreboard.  The portfolio
gives each strategy a seed derived from one base seed, fans the runs out
through the parallel runner, and reports the winner.

Budgets are normalized by evaluation count, not loop iterations: tabu
probes ``candidates_per_iteration`` moves per iteration and the GA
scores whole populations, so their loop counts are scaled down to match
the annealer's single-evaluation iterations.  The scale and each
racer's fixed options come from the kind's entry in
:data:`repro.search.runner.STRATEGY_KINDS` (``per_unit`` evaluations per
unit, ``race`` options); a stall limit is scaled like the budget.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.arch.architecture import Architecture
from repro.errors import ConfigurationError
from repro.mapping.evaluator import Evaluation
from repro.model.application import Application
from repro.search.runner import (
    InstanceSpec,
    JobOutcome,
    SearchJob,
    StrategySpec,
    best_evaluation_of,
    derive_seeds,
    run_search_jobs,
    strategy_kind,
)
from repro.search.strategy import SearchBudget, SearchResult

#: Default racers, in scoreboard tie-break order.  New kinds append at
#: the end: seeds are dealt by position, so insertion in the middle
#: would re-deal every later strategy's seed.
PORTFOLIO_KINDS = ("sa", "tabu", "hill_climber", "ga", "random", "tempering")


@dataclass
class PortfolioEntry:
    """One strategy's run in the race: the runner's outcome (tagged with
    the strategy kind) and the evaluation of its best solution."""

    outcome: JobOutcome
    evaluation: Evaluation

    @property
    def kind(self) -> str:
        return self.outcome.tag

    @property
    def seed(self) -> int:
        return self.outcome.seed

    @property
    def result(self) -> SearchResult:
        return self.outcome.result

    @property
    def best_cost(self) -> float:
        return self.result.best_cost


def portfolio_jobs(
    instance: InstanceSpec,
    iterations: int = 8000,
    seed: int = 7,
    engine: str = "incremental",
    kinds: Sequence[str] = PORTFOLIO_KINDS,
    warmup_iterations: Optional[int] = None,
    budget: Optional[SearchBudget] = None,
) -> List[SearchJob]:
    """The race as runner jobs: one evaluation-normalized strategy per
    kind, seeded by position from ``seed`` and tagged with its kind.
    ``budget`` (wall-clock and stall limits) applies to each racer; its
    stall limit, like the iterations and the warm-up, is counted in the
    racer's own units."""
    from repro.sa.annealer import default_warmup

    if not kinds:
        raise ConfigurationError("portfolio needs at least one strategy kind")
    if warmup_iterations is None:
        warmup_iterations = default_warmup(iterations)
    jobs = []
    for kind, racer_seed in zip(kinds, derive_seeds(seed, len(kinds))):
        entry = strategy_kind(kind)
        units = entry.share(iterations)
        options = {entry.unit: units, **entry.race, "engine": engine}
        if entry.anneals:
            options["warmup_iterations"] = min(
                entry.share(warmup_iterations), units - 1
            )
        racer_budget = budget
        if budget is not None and budget.stall_limit is not None:
            racer_budget = replace(
                budget, stall_limit=entry.share(budget.stall_limit)
            )
        jobs.append(SearchJob(
            StrategySpec(kind, options), instance, seed=racer_seed,
            tag=kind, budget=racer_budget,
        ))
    return jobs


def rank_outcomes(outcomes: Sequence[JobOutcome]) -> List[JobOutcome]:
    """The scoreboard: best cost first, ties broken by race order (the
    last position of each kind)."""
    order = {outcome.tag: rank for rank, outcome in enumerate(outcomes)}
    return sorted(outcomes, key=lambda o: (o.result.best_cost, order[o.tag]))


def run_portfolio(
    application: Application,
    architecture: Optional[Architecture] = None,
    n_clbs: int = 2000,
    iterations: int = 8000,
    seed: int = 7,
    engine: str = "incremental",
    jobs: int = 1,
    kinds: Sequence[str] = PORTFOLIO_KINDS,
    checkpoint_path: Optional[str] = None,
    warmup_iterations: Optional[int] = None,
    telemetry=None,
) -> List[PortfolioEntry]:
    """Race ``kinds`` on one instance; entries sorted best-first.

    The jobs are :func:`portfolio_jobs`, run by the runner and ranked
    by :func:`rank_outcomes` — the same steps a ``"portfolio"``
    :class:`~repro.api.specs.ExplorationRequest` takes through
    :func:`repro.api.facade.explore`.  ``telemetry`` (a
    :class:`repro.obs.telemetry.Telemetry`) collects every racer's event
    stream, merged deterministically by the runner.
    """
    instance = InstanceSpec(
        application,
        architecture=architecture,
        n_clbs=None if architecture is not None else n_clbs,
    )
    outcomes = run_search_jobs(
        portfolio_jobs(
            instance, iterations, seed, engine, kinds, warmup_iterations
        ),
        jobs=jobs, checkpoint_path=checkpoint_path, telemetry=telemetry,
    )
    return [
        PortfolioEntry(outcome, best_evaluation_of(outcome.result))
        for outcome in rank_outcomes(outcomes)
    ]


def format_portfolio_table(
    entries: Sequence[PortfolioEntry], deadline_ms: Optional[float] = None
) -> str:
    lines = [
        "Strategy portfolio (one instance, evaluation-normalized budgets)",
        f"{'strategy':<14} {'best (ms)':>10} {'contexts':>9} {'evals':>8} "
        f"{'iters':>8} {'time (s)':>9}",
    ]
    for entry in entries:
        lines.append(
            f"{entry.kind:<14} {entry.best_cost:>10.2f} "
            f"{entry.evaluation.num_contexts:>9} {entry.result.evaluations:>8} "
            f"{entry.result.iterations_run:>8} {entry.result.runtime_s:>9.2f}"
        )
    winner = entries[0]
    lines.append(f"winner: {winner.kind} at {winner.best_cost:.2f} ms")
    if deadline_ms is not None:
        lines.append(
            f"deadline {deadline_ms:.0f} ms met: "
            f"{winner.best_cost <= deadline_ms}"
        )
    return "\n".join(lines)
