"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``explore``    run an exploration request (annealer by default, or any
               spec file via ``--spec``)
``sweep``      Fig. 3-style device-size sweep (``--jobs N`` parallel)
``compare``    adaptive SA vs the GA baseline (``--jobs N`` parallel)
``portfolio``  race all search strategies on one instance
``info``       describe an application (tasks, structure, solution space)
``telemetry``  inspect telemetry streams: ``telemetry summarize`` loads
               a ``--telemetry`` JSONL file, validates it against the
               event schema and prints the per-job scoreboard
``serve``      exploration service over a content-addressed result
               store: ``serve submit`` is cache-first (identical
               requests dedupe to one computation), ``serve
               run-workers`` drains the queue with N crash-safe
               workers (this process and N-1 spawned ones), ``serve
               status|result|stats|gc`` inspect and prune the store

``explore``, ``sweep`` and ``portfolio`` accept ``--telemetry PATH``:
the run records structured events (per-phase timings, engine internals,
per-iteration samples) into a run-scoped recorder and writes the stream
as JSONL.  Apart from timestamps the stream is deterministic: a fixed
seed produces the same events whether the run is inline or fanned out
with ``--jobs N``.

The exploration commands are thin spec builders over the declarative
public API (:mod:`repro.api`): flags assemble an
:class:`~repro.api.specs.ExplorationRequest`, ``--spec FILE`` loads one
instead, ``--dump-spec [PATH]`` writes the assembled request without
running it, and every run goes through
:func:`repro.api.facade.explore`.  ``--json`` prints the serializable
:class:`~repro.api.specs.ExplorationResponse` envelope (or the
command's own JSON document) instead of tables.  Validation errors
print to stderr and exit with status 2.

Each command imports what it runs or renders, so the ``serve``
lookups (a cache hit, ``status``, ``result``, ``stats``) load no
search stack.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from repro.api.specs import (
    ApplicationSpec,
    ArchitectureSpec,
    BudgetSpec,
    EngineSpec,
    ExplorationRequest,
    ExplorationResponse,
    StrategySpec,
    load_request,
)
from repro.errors import ReproError
from repro.obs.telemetry import (
    Telemetry,
    format_summary_table,
    load_events,
    summarize_events,
    validate_events,
)
from repro.service.jobs import DEFAULT_STALE_AFTER_S, run_workers


# ----------------------------------------------------------------------
# flag -> spec assembly
# ----------------------------------------------------------------------
def _application_spec(path: Optional[str]) -> ApplicationSpec:
    """A spec for ``--application``: the builtin benchmark by default;
    a file is read once, sniffed (plain application document vs bundled
    instance) and embedded, so the resulting spec — and anything
    ``--dump-spec`` writes — is self-contained."""
    if path is None:
        return ApplicationSpec(kind="builtin", name="motion")
    from repro.api.resolve import load_json_document

    document = load_json_document(path, "application")
    kind = "bundled" if document.get("format") == "instance" else "inline"
    return ApplicationSpec(kind=kind, document=document)


def _architecture_spec(
    path: Optional[str], n_clbs: int
) -> Optional[ArchitectureSpec]:
    """A spec for ``--architecture``: EPICURE at ``n_clbs`` by default;
    a file is read once and embedded, as ``--application`` does."""
    if path is None:
        return ArchitectureSpec(kind="builtin", n_clbs=n_clbs)
    from repro.api.resolve import load_json_document

    document = load_json_document(path, "architecture")
    return ArchitectureSpec(kind="inline", document=document)


def _budget_spec(args: argparse.Namespace) -> BudgetSpec:
    """Explicit ``--warmup`` or the shared budget-scaled default
    (applied by the resolution pipeline when warmup is left unset)."""
    return BudgetSpec(
        iterations=args.iterations,
        warmup_iterations=args.warmup,
        time_limit_s=getattr(args, "time_limit_s", None),
        stall_limit=getattr(args, "stall_limit", None),
    )


def _explore_request(args: argparse.Namespace) -> ExplorationRequest:
    keep_trace = bool(args.plot or args.trace_csv)
    kind = getattr(args, "strategy", "sa")
    options = {
        "schedule_name": args.schedule,
        "keep_trace": keep_trace,
    }
    if kind == "tempering":
        options["chains"] = args.chains
    return ExplorationRequest(
        kind="single",
        application=_application_spec(args.application),
        architecture=_architecture_spec(args.architecture, args.clbs),
        strategy=StrategySpec(kind, options),
        budget=_budget_spec(args),
        engine=EngineSpec(args.engine),
        seed=args.seed,
    )


def _sweep_request(args: argparse.Namespace) -> ExplorationRequest:
    return ExplorationRequest(
        kind="sweep",
        application=_application_spec(args.application),
        strategy=StrategySpec("sa", {"keep_trace": False}),
        budget=_budget_spec(args),
        engine=EngineSpec(args.engine),
        seed=args.seed,
        runs=args.runs,
        sizes=tuple(int(s) for s in args.sizes.split(",")),
    )


def _portfolio_request(args: argparse.Namespace) -> ExplorationRequest:
    return ExplorationRequest(
        kind="portfolio",
        application=_application_spec(args.application),
        architecture=_architecture_spec(args.architecture, args.clbs),
        budget=_budget_spec(args),
        engine=EngineSpec(args.engine),
        seed=args.seed,
    )


def _request_for(args: argparse.Namespace, builder) -> ExplorationRequest:
    if getattr(args, "spec", None):
        return load_request(args.spec)
    return builder(args)


def _dump_spec(args: argparse.Namespace, request: ExplorationRequest) -> bool:
    """Handle ``--dump-spec``: write (or print) the request, skip the run."""
    target = getattr(args, "dump_spec", None)
    if target is None:
        return False
    text = request.to_json()
    if target == "-":
        print(text)
    else:
        with open(target, "w") as handle:
            handle.write(text + "\n")
        print(f"spec written to {target}", file=sys.stderr)
    return True


def _telemetry_for(args: argparse.Namespace) -> Optional[Telemetry]:
    """A run-scoped recorder when ``--telemetry PATH`` was given."""
    if getattr(args, "telemetry", None) is None:
        return None
    return Telemetry(label=args.command)


def _write_telemetry(
    telemetry: Optional[Telemetry], args: argparse.Namespace
) -> None:
    if telemetry is None:
        return
    records = telemetry.write_jsonl_path(args.telemetry)
    if not args.json:
        print(f"telemetry written to {args.telemetry} "
              f"({records} records)")


# ----------------------------------------------------------------------
# response rendering
# ----------------------------------------------------------------------
def _render_single(response: ExplorationResponse) -> None:
    record = response.results[response.best["index"]]
    ev = response.best["evaluation"]
    print(f"best mapping: {ev['makespan_ms']:.2f} ms, "
          f"{ev['num_contexts']} contexts, "
          f"{ev['hw_tasks']} hw / {ev['sw_tasks']} sw tasks "
          f"({record['runtime_s']:.1f} s)")
    print(f"reconfiguration: {ev['initial_reconfig_ms']:.2f} + "
          f"{ev['dynamic_reconfig_ms']:.2f} ms; "
          f"bus: {ev['comm_ms']:.2f} ms")


def _render_batch(response: ExplorationResponse) -> None:
    print(f"{'seed':>12} {'best (ms)':>10} {'iters':>8} {'time (s)':>9}")
    for record in response.results:
        print(f"{record['seed']:>12} {record['best_cost']:>10.2f} "
              f"{record['iterations_run']:>8} {record['runtime_s']:>9.2f}")
    summary = response.summary
    print(f"batch of {summary['runs']}: "
          f"mean {summary['best_cost_mean']:.2f} ms, "
          f"std {summary['best_cost_std']:.2f}, "
          f"best {summary['best_cost_min']:.2f} ms")


def _render_sweep(response: ExplorationResponse, plot: bool = False) -> None:
    from repro.analysis.plot import plot_sweep
    from repro.experiments.fig3 import format_fig3_table

    print(format_fig3_table(response.rows))
    if plot:
        print()
        print(plot_sweep(response.rows))


def _render_portfolio(response: ExplorationResponse) -> None:
    from repro.search.portfolio import format_portfolio_table

    deadline = response.summary.get("deadline_ms")
    print(format_portfolio_table(response.entries, deadline_ms=deadline))


def _render_response(response: ExplorationResponse,
                     args: argparse.Namespace) -> None:
    if response.kind == "single":
        _render_single(response)
    elif response.kind == "batch":
        _render_batch(response)
    elif response.kind == "sweep":
        _render_sweep(response, plot=getattr(args, "plot", False))
    else:
        _render_portfolio(response)


def _emit(response: ExplorationResponse, args: argparse.Namespace) -> None:
    if args.json:
        print(response.to_json(indent=2))
    else:
        _render_response(response, args)


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def cmd_explore(args: argparse.Namespace) -> int:
    from repro.analysis.plot import plot_trace
    from repro.api.facade import explore
    from repro.io import dump_solution
    from repro.mapping.evaluator import Evaluator
    from repro.mapping.gantt import render_gantt
    from repro.mapping.schedule import extract_schedule
    from repro.sa.trace import write_csv

    request = _request_for(args, _explore_request)
    if _dump_spec(args, request):
        return 0
    telemetry = _telemetry_for(args)
    response = explore(request, telemetry=telemetry)
    _emit(response, args)
    _write_telemetry(telemetry, args)
    if response.kind != "single":
        return 0
    result = response.best_result
    if args.trace_csv:
        with open(args.trace_csv, "w") as handle:
            write_csv(result.trace, handle)
        if not args.json:
            print(f"trace saved to {args.trace_csv} "
                  f"({len(result.trace)} records)")
    if args.plot and result.trace and not args.json:
        print()
        print(plot_trace(result.trace))
    if args.gantt and not args.json:
        solution = result.best_solution
        evaluator = Evaluator(solution.application, solution.architecture)
        schedule = extract_schedule(solution, evaluator.realize(solution))
        print()
        print(render_gantt(schedule))
    if args.save:
        with open(args.save, "w") as handle:
            handle.write(dump_solution(result.best_solution))
        if not args.json:
            print(f"solution saved to {args.save}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.api.facade import explore

    request = _request_for(args, _sweep_request)
    if _dump_spec(args, request):
        return 0
    telemetry = _telemetry_for(args)
    response = explore(
        request, jobs=args.jobs, checkpoint_path=args.checkpoint,
        telemetry=telemetry,
    )
    _emit(response, args)
    _write_telemetry(telemetry, args)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments.comparison import run_comparison

    result = run_comparison(
        n_clbs=args.clbs,
        sa_iterations=args.iterations,
        sa_warmup=args.warmup,
        ga_population=args.population,
        ga_generations=args.generations,
        seed=args.seed,
        engine=args.engine,
        jobs=args.jobs,
    )
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.format_table())
    return 0


def cmd_portfolio(args: argparse.Namespace) -> int:
    from repro.api.facade import explore

    request = _request_for(args, _portfolio_request)
    if _dump_spec(args, request):
        return 0
    telemetry = _telemetry_for(args)
    response = explore(request, jobs=args.jobs, telemetry=telemetry)
    _emit(response, args)
    _write_telemetry(telemetry, args)
    return 0


def cmd_telemetry_summarize(args: argparse.Namespace) -> int:
    events = load_events(args.path)
    validate_events(events)
    summary = summarize_events(events)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(format_summary_table(summary))
    return 0


def _serve_request(args: argparse.Namespace) -> ExplorationRequest:
    """The default ``serve submit`` workload: one annealer run.  Richer
    shapes (batch, portfolio, sweep) come in through ``--spec``."""
    return ExplorationRequest(
        kind="single",
        application=_application_spec(args.application),
        architecture=_architecture_spec(args.architecture, args.clbs),
        strategy=StrategySpec("sa", {"keep_trace": False}),
        budget=_budget_spec(args),
        engine=EngineSpec(args.engine),
        seed=args.seed,
    )


def _serve_service(args: argparse.Namespace, telemetry=None, create=True):
    # Only ``serve submit`` creates the store; the inspection commands
    # open it read-style so a mistyped --store path is an error, not a
    # silently minted empty store.
    from repro.service.service import ExplorationService

    if telemetry is None:
        return ExplorationService(args.store, create=create)
    return ExplorationService(args.store, telemetry=telemetry, create=create)


def _print_record(record) -> None:
    print(f"key:      {record.key}")
    print(f"status:   {record.status}")
    print(f"attempts: {record.attempts}   hits: {record.hits}")
    if record.worker:
        print(f"worker:   {record.worker}")
    if record.error:
        print(f"error:    {record.error}")
    print("history:")
    for entry in record.history:
        line = f"  {entry['status']}"
        if "worker" in entry:
            line += f" by {entry['worker']}"
        if "error" in entry:
            line += f" ({entry['error']})"
        print(line)


def cmd_serve_submit(args: argparse.Namespace) -> int:
    request = _request_for(args, _serve_request)
    if _dump_spec(args, request):
        return 0
    telemetry = _telemetry_for(args)
    service = _serve_service(args, telemetry)
    deadline_s = getattr(args, "deadline_s", None)
    if deadline_s is not None:
        outcome = service.submit_anytime(request, deadline_s=deadline_s)
    else:
        outcome = service.submit(request)
    if args.json:
        document: Dict[str, Any] = {
            "key": outcome.key,
            "status": outcome.status,
            "record_status": outcome.record.status,
            "attempts": outcome.record.attempts,
            "hits": outcome.record.hits,
        }
        if outcome.response is not None and outcome.response_text is None:
            # anytime partials are live-only: never persisted to the cache
            document["response"] = outcome.response.to_dict()
        elif outcome.response_text is not None:
            document["response"] = json.loads(outcome.response_text)
        print(json.dumps(document, indent=2))
    else:
        print(f"{outcome.status}: {outcome.key}")
        if outcome.status in ("hit", "partial"):
            best = (outcome.response.best if outcome.response else {}) or {}
            cost = best.get("cost")
            if cost is not None:
                label = "cached" if outcome.status == "hit" else "partial"
                print(f"{label} best: {cost:.2f} ms "
                      f"(seed {best.get('seed')})")
        elif outcome.status in ("queued", "resubmitted"):
            print("run 'repro serve run-workers' to execute it")
    _write_telemetry(telemetry, args)
    return 0


def cmd_serve_status(args: argparse.Namespace) -> int:
    service = _serve_service(args, create=False)
    record = service.status(args.key)
    if args.json:
        print(json.dumps(record.to_dict(), indent=2))
        return 0
    _print_record(record)
    return 0


def cmd_serve_result(args: argparse.Namespace) -> int:
    service = _serve_service(args, create=False)
    service.result(args.key)  # raises ServiceError while unfinished
    text = service.store.response_text(args.key)
    if args.json:
        # the exact persisted bytes — what cache hits serve
        print(text)
        return 0
    response = ExplorationResponse.from_json(text)
    best = response.best or {}
    print(f"kind: {response.kind}   runs: {len(response.results)}")
    if best.get("cost") is not None:
        print(f"best: {best['cost']:.2f} ms (seed {best.get('seed')})")
    for name, value in sorted(response.summary.items()):
        if not isinstance(value, (list, dict)):
            print(f"  {name}: {value}")
    return 0


def cmd_serve_run_workers(args: argparse.Namespace) -> int:
    telemetry = _telemetry_for(args)
    kwargs: Dict[str, Any] = {}
    if telemetry is not None:
        kwargs["telemetry"] = telemetry
    executed = run_workers(
        args.store,
        workers=args.workers,
        stale_after_s=args.stale_after,
        jobs=args.jobs,
        max_jobs=args.max_jobs,
        **kwargs,
    )
    if args.json:
        print(json.dumps(
            {"executed": executed, "workers": args.workers}, indent=2
        ))
    else:
        print(f"executed {executed} job(s) with {args.workers} worker(s)")
    _write_telemetry(telemetry, args)
    return 0


def cmd_serve_stats(args: argparse.Namespace) -> int:
    service = _serve_service(args, create=False)
    stats = service.stats()
    if args.json:
        print(json.dumps(stats, indent=2))
        return 0
    records = stats["records"]
    print(f"store: {stats['root']}")
    print(f"records: {records['total']} "
          f"(pending {records['pending']}, running {records['running']}, "
          f"done {records['done']}, failed {records['failed']})")
    print(f"queue: {stats['queue']['queued']} queued, "
          f"{stats['queue']['claimed']} claimed")
    print(f"executions: {stats['executions']}   "
          f"cache hits: {stats['hits']}")
    return 0


def cmd_serve_gc(args: argparse.Namespace) -> int:
    service = _serve_service(args, create=False)
    removed = service.gc(
        failed=not args.keep_failed,
        done_older_than_s=args.done_older_than,
    )
    if args.json:
        print(json.dumps(removed, indent=2))
        return 0
    print(f"removed: {removed['failed']} failed, {removed['done']} done, "
          f"{removed['orphan_tickets']} orphan ticket(s), "
          f"{removed['orphan_results']} orphan result(s)")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    from repro.analysis.combinatorics import solution_space_report
    from repro.api.resolve import resolve_application

    problem = resolve_application(_application_spec(args.application))
    application = problem.application
    sources = [application.task(t).name for t in application.sources()]
    sinks = [application.task(t).name for t in application.sinks()]
    if args.json:
        document: Dict[str, Any] = {
            "name": application.name,
            "tasks": len(application),
            "hardware_capable_tasks":
                len(application.hardware_capable_tasks()),
            "dependencies": application.dag.num_edges(),
            "total_sw_time_ms": application.total_sw_time_ms(),
            "sources": sources,
            "sinks": sinks,
        }
        if problem.deadline_ms is not None:
            document["deadline_ms"] = problem.deadline_ms
        print(json.dumps(document, indent=2))
        return 0
    print(f"application: {application.name}")
    print(f"  tasks: {len(application)} "
          f"({len(application.hardware_capable_tasks())} hardware-capable)")
    print(f"  dependencies: {application.dag.num_edges()}")
    print(f"  all-software time: {application.total_sw_time_ms():.2f} ms")
    print(f"  sources: {sources}")
    print(f"  sinks:   {sinks}")
    if len(application) <= 40:
        report = solution_space_report(application)
        print()
        print(report.format_table())
    return 0


# ----------------------------------------------------------------------
# the parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Design-space exploration for dynamically "
                    "reconfigurable architectures (DATE'05 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, iterations=8000):
        p.add_argument("--application", help="application JSON (default: motion detection)")
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--iterations", type=int, default=iterations)
        p.add_argument("--warmup", type=int, default=None,
                       help="warmup iterations at infinite temperature "
                            "(default: min(1200, iterations/4))")
        p.add_argument("--time-limit-s", type=float, default=None,
                       metavar="SECONDS", dest="time_limit_s",
                       help="wall-clock budget: stop the search once "
                            "this many seconds have elapsed (the "
                            "iteration budget still applies)")
        p.add_argument("--stall-limit", type=int, default=None,
                       metavar="N", dest="stall_limit",
                       help="stop after N consecutive iterations "
                            "without improving the best cost")
        p.add_argument("--engine", default="incremental",
                       choices=["full", "incremental", "array"],
                       help="evaluation engine (incremental = "
                            "delta-sync fast path with a persistent "
                            "longest-path DP, array = the same engine, "
                            "full = reference rebuild; makespans are "
                            "bit-identical)")
        p.add_argument("--json", action="store_true",
                       help="print the machine-readable response envelope")

    def spec_flags(p):
        p.add_argument("--spec", metavar="FILE",
                       help="run this ExplorationRequest spec file "
                            "(other request flags are ignored)")
        p.add_argument("--dump-spec", metavar="PATH", nargs="?", const="-",
                       help="write the assembled request spec (stdout "
                            "with no PATH) instead of running it")

    def parallel(p):
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes (results are bit-identical "
                            "to --jobs 1 for the same seeds)")

    def telemetry_flag(p):
        p.add_argument("--telemetry", metavar="PATH",
                       help="record structured run events (per-phase "
                            "timings, engine internals, iteration "
                            "samples) and write them as JSONL; "
                            "deterministic modulo timestamps, inspect "
                            "with 'repro telemetry summarize'")

    p = sub.add_parser("explore", help="run an exploration request")
    common(p)
    spec_flags(p)
    p.add_argument("--architecture", help="architecture JSON (default: EPICURE)")
    p.add_argument("--clbs", type=int, default=2000, help="device size for the default architecture")
    p.add_argument("--schedule", default="lam",
                   choices=["lam", "modified_lam", "geometric"])
    p.add_argument("--strategy", default="sa",
                   choices=["sa", "tempering"],
                   help="searcher: sa = single-chain annealer, tempering "
                        "= population annealing with replica exchange "
                        "(K chains, one move each per round)")
    p.add_argument("--chains", type=int, default=8,
                   help="chain count for --strategy tempering")
    p.add_argument("--plot", action="store_true", help="ASCII Fig.2-style trace plot")
    p.add_argument("--gantt", action="store_true", help="ASCII Gantt chart")
    p.add_argument("--save", help="write the best solution JSON here")
    p.add_argument("--trace-csv", metavar="PATH",
                   help="write the per-iteration trace (Fig. 2 data) as CSV")
    telemetry_flag(p)
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("sweep", help="device-size sweep (Fig. 3)")
    common(p)
    spec_flags(p)
    parallel(p)
    p.add_argument("--sizes", default="200,400,800,2000,5000",
                   help="comma-separated CLB counts")
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--plot", action="store_true")
    p.add_argument("--checkpoint", metavar="PATH",
                   help="JSONL checkpoint: finished runs are reloaded, "
                        "so an interrupted sweep resumes here")
    telemetry_flag(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="SA vs GA baseline")
    common(p)
    parallel(p)
    p.add_argument("--clbs", type=int, default=2000)
    p.add_argument("--population", type=int, default=300)
    p.add_argument("--generations", type=int, default=40)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "portfolio",
        help="race all search strategies on one instance",
    )
    common(p)
    spec_flags(p)
    parallel(p)
    p.add_argument("--architecture", help="architecture JSON (default: EPICURE)")
    p.add_argument("--clbs", type=int, default=2000)
    telemetry_flag(p)
    p.set_defaults(func=cmd_portfolio)

    p = sub.add_parser(
        "telemetry",
        help="inspect telemetry streams (summarize)",
    )
    tele_sub = p.add_subparsers(dest="telemetry_command", required=True)

    p = tele_sub.add_parser(
        "summarize",
        help="validate a telemetry JSONL stream and print the "
             "per-job scoreboard",
    )
    p.add_argument("path", help="telemetry JSONL written by --telemetry")
    p.add_argument("--json", action="store_true",
                   help="print the summary document instead of the table")
    p.set_defaults(func=cmd_telemetry_summarize)

    p = sub.add_parser(
        "serve",
        help="exploration service: content-addressed result cache + "
             "crash-safe worker pool",
    )
    serve_sub = p.add_subparsers(dest="serve_command", required=True)

    def store_flag(p):
        p.add_argument("--store", default=".repro-store", metavar="DIR",
                       help="result-store directory "
                            "(default: .repro-store)")

    p = serve_sub.add_parser(
        "submit",
        help="cache-first submit: serve the cached envelope, attach to "
             "an in-flight computation, or enqueue the job",
    )
    store_flag(p)
    common(p)
    spec_flags(p)
    p.add_argument("--architecture", help="architecture JSON (default: EPICURE)")
    p.add_argument("--clbs", type=int, default=2000,
                   help="device size for the default architecture")
    p.add_argument("--deadline-s", type=float, default=None,
                   metavar="SECONDS", dest="deadline_s",
                   help="anytime serving: answer within this many "
                        "seconds — cache hits are served instantly, "
                        "otherwise the job runs inline with the "
                        "deadline as its wall-clock budget and the "
                        "best-so-far envelope is returned (marked "
                        "partial; the record stays pending so workers "
                        "can still finish the full run)")
    telemetry_flag(p)
    p.set_defaults(func=cmd_serve_submit)

    p = serve_sub.add_parser("status", help="show one record row")
    store_flag(p)
    p.add_argument("key", help="cache key printed by 'serve submit'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_serve_status)

    p = serve_sub.add_parser(
        "result", help="print a completed job's result envelope"
    )
    store_flag(p)
    p.add_argument("key", help="cache key printed by 'serve submit'")
    p.add_argument("--json", action="store_true",
                   help="print the exact persisted envelope bytes")
    p.set_defaults(func=cmd_serve_result)

    p = serve_sub.add_parser(
        "run-workers",
        help="drain the queue with N workers (requeues stale "
             "running jobs first — crash recovery)",
    )
    store_flag(p)
    p.add_argument("--workers", type=int, default=2,
                   help="drain loops: this process is worker 0 and "
                        "N-1 more are spawned (1 = no pool)")
    p.add_argument("--stale-after", type=float,
                   default=DEFAULT_STALE_AFTER_S, metavar="SECONDS",
                   help="age after which a running job counts as "
                        "abandoned and is requeued (default %(default)g)")
    p.add_argument("--jobs", type=int, default=1,
                   help="runner processes per job (passed to explore)")
    p.add_argument("--max-jobs", type=int, default=None,
                   help="stop each worker after this many jobs")
    p.add_argument("--json", action="store_true")
    telemetry_flag(p)
    p.set_defaults(func=cmd_serve_run_workers)

    p = serve_sub.add_parser("stats", help="summarize the store")
    store_flag(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_serve_stats)

    p = serve_sub.add_parser(
        "gc", help="prune failed/aged records and orphaned files"
    )
    store_flag(p)
    p.add_argument("--keep-failed", action="store_true",
                   help="do not remove failed records")
    p.add_argument("--done-older-than", type=float, default=None,
                   metavar="SECONDS",
                   help="also remove done records (and their envelopes) "
                        "older than this")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_serve_gc)

    p = sub.add_parser("info", help="describe an application")
    p.add_argument("--application")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_info)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
