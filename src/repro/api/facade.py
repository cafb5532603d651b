"""``explore(request) -> ExplorationResponse`` — the public front door.

One call executes any :class:`~repro.api.specs.ExplorationRequest`
(single run, multi-seed batch, portfolio race, sweep grid) through the
unified search runner and returns a serializable result envelope: best
solution mapping, evaluation breakdown, best-so-far history, per-seed
stats, and an environment stamp.  ``jobs=N`` fans independent runs
across worker processes; results are bit-identical to ``jobs=1`` for
the same request (every run is seeded and isolated by the runner).
The envelope class itself, :class:`~repro.api.specs.ExplorationResponse`,
lives beside the request in :mod:`repro.api.specs`, so reading a stored
envelope needs none of this module's imports.

The in-memory response additionally carries the live objects clients
built on before this API existed — the raw
:class:`~repro.search.runner.JobOutcome` list, the sweep's
:class:`~repro.analysis.sweep.DeviceSweepRow` rows, the portfolio's
:class:`~repro.search.portfolio.PortfolioEntry` entries — so the
experiment modules could become thin spec builders without changing
their own return types.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.api.resolve import resolve_request
from repro.api.specs import ExplorationRequest, ExplorationResponse
from repro.errors import ConfigurationError
from repro.mapping.evaluator import Evaluation
from repro.search.portfolio import PortfolioEntry, rank_outcomes
from repro.search.runner import (
    JobOutcome,
    best_evaluation_of,
    run_search_jobs,
)


def evaluation_to_dict(evaluation: Evaluation) -> Dict[str, Any]:
    """The full cost breakdown of one evaluated solution."""
    return {
        "makespan_ms": evaluation.makespan_ms,
        "feasible": evaluation.feasible,
        "num_contexts": evaluation.num_contexts,
        "hw_tasks": evaluation.hw_tasks,
        "sw_tasks": evaluation.sw_tasks,
        "initial_reconfig_ms": evaluation.initial_reconfig_ms,
        "dynamic_reconfig_ms": evaluation.dynamic_reconfig_ms,
        "comm_ms": evaluation.comm_ms,
        "clbs_used": evaluation.clbs_used,
    }


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def _result_record(outcome: JobOutcome, evaluation: Evaluation) -> Dict[str, Any]:
    result = outcome.result
    return {
        "tag": outcome.tag,
        "seed": outcome.seed,
        "strategy": result.strategy,
        "best_cost": result.best_cost,
        "final_cost": result.final_cost,
        "iterations_run": result.iterations_run,
        "runtime_s": result.runtime_s,
        "evaluations": result.evaluations,
        "from_checkpoint": outcome.from_checkpoint,
        "evaluation": evaluation_to_dict(evaluation),
        "history": list(result.history),
    }


def _best_record(
    outcomes: List[JobOutcome], evaluations: List[Evaluation]
) -> Dict[str, Any]:
    from repro.io import solution_to_dict

    index = min(
        range(len(outcomes)), key=lambda i: outcomes[i].result.best_cost
    )
    outcome = outcomes[index]
    return {
        "index": index,
        "tag": outcome.tag,
        "seed": outcome.seed,
        "cost": outcome.result.best_cost,
        "evaluation": evaluation_to_dict(evaluations[index]),
        "solution": solution_to_dict(outcome.result.best_solution),
    }


def _partials_of(outcomes: List[JobOutcome]) -> Optional[List[Dict[str, Any]]]:
    """The response-level anytime section: one entry per run that
    recorded snapshots (``None`` when no run did, keeping envelopes
    without an anytime budget byte-identical to pre-anytime ones)."""
    partials = [
        {
            "index": outcome.index,
            "snapshots": list(block["snapshots"]),
        }
        for outcome in outcomes
        for block in (outcome.result.extras.get("anytime"),)
        if block is not None and block["snapshots"]
    ]
    return partials or None


def _telemetry_block(telemetry) -> Dict[str, Any]:
    """The summary block attached to a response (snapshot + stream size)."""
    block = telemetry.snapshot()
    block["label"] = telemetry.label
    block["events"] = len(telemetry.events)
    return block


def explore(
    request: ExplorationRequest,
    jobs: int = 1,
    checkpoint_path: Optional[str] = None,
    telemetry=None,
) -> ExplorationResponse:
    """Execute ``request`` and return the result envelope.

    Every kind takes one path: :func:`~repro.api.resolve.resolve_request`
    builds the runner jobs, the runner executes them once, and the
    envelope's records, best run, telemetry and partials are built the
    same way for every kind; only the summary is kind-specific (batch
    statistics, sweep rows, or the portfolio's winner and ranking).
    The deadline verdict judges the best run (a sweep judges each size
    in its rows instead).

    ``jobs=N`` runs independent searches across N worker processes
    (bit-identical to ``jobs=1``); ``checkpoint_path`` (JSONL) makes
    the request resumable through the runner's checkpoint machinery.
    ``telemetry`` (a :class:`~repro.obs.telemetry.Telemetry`) records
    every run's event stream — merged deterministically across workers
    — and attaches a counters/timers summary block to the response.
    """
    if jobs < 1:
        raise ConfigurationError("jobs must be >= 1")
    resolved = resolve_request(request)
    outcomes = run_search_jobs(
        resolved.jobs, jobs=jobs, checkpoint_path=checkpoint_path,
        telemetry=telemetry,
    )
    if request.kind == "portfolio":
        outcomes = rank_outcomes(outcomes)
    evaluations = [best_evaluation_of(o.result) for o in outcomes]
    response = ExplorationResponse(
        kind=request.kind,
        request=request.to_dict(),
        results=[
            _result_record(o, ev) for o, ev in zip(outcomes, evaluations)
        ],
        best=_best_record(outcomes, evaluations),
        jobs=jobs,
        telemetry=(
            _telemetry_block(telemetry) if telemetry is not None else None
        ),
        partials=_partials_of(outcomes),
        outcomes=outcomes,
    )
    deadline = resolved.deadline_ms
    if request.kind == "batch":
        from repro.analysis.stats import summarize

        summary = summarize([o.result.best_cost for o in outcomes])
        response.summary = {
            "runs": len(outcomes),
            "best_cost_mean": summary.mean,
            "best_cost_std": summary.std,
            "best_cost_min": summary.minimum,
            "best_cost_max": summary.maximum,
        }
    elif request.kind == "portfolio":
        response.entries = [
            PortfolioEntry(o, ev) for o, ev in zip(outcomes, evaluations)
        ]
        response.summary = {
            "winner": outcomes[0].tag,
            "ranking": [o.tag for o in outcomes],
        }
    elif request.kind == "sweep":
        # Late import: analysis.sweep routes back through this façade.
        from repro.analysis.sweep import (
            _aggregate_rows,
            smallest_feasible_device,
        )

        by_cell = {tuple(o.tag): ev for o, ev in zip(outcomes, evaluations)}
        rows = _aggregate_rows(request.sizes, request.runs, by_cell, deadline)
        response.rows = rows
        response.summary = {
            "sizes": list(request.sizes),
            "runs": request.runs,
            "deadline_ms": deadline,
            "smallest_feasible_n_clbs": smallest_feasible_device(
                rows, deadline
            ),
            "rows": [
                {
                    "n_clbs": row.n_clbs,
                    "runs": row.runs,
                    "execution_ms": row.execution_ms,
                    "execution_std_ms": row.execution_std_ms,
                    "initial_reconfig_ms": row.initial_reconfig_ms,
                    "dynamic_reconfig_ms": row.dynamic_reconfig_ms,
                    "num_contexts": row.num_contexts,
                    "hw_tasks": row.hw_tasks,
                    "feasible_fraction": row.feasible_fraction,
                }
                for row in rows
            ],
        }
        return response
    if deadline is not None:
        # Compare the makespan, not best_cost: under a SystemCost the
        # cost is money + penalty and would invert this verdict.
        response.summary["deadline_ms"] = deadline
        response.summary["deadline_met"] = evaluations[
            response.best["index"]
        ].meets(deadline)
    return response
