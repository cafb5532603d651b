"""The repository benchmark: one command, four workloads, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload explore-motion --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py --seed 1                 # every workload in turn

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half the
rounds untraced and the same rounds again traced, and prints the
per-layer metrics plus the tracing overhead.  The last line of standard
output is always one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The command exits
non-zero when any output is wrong (see ``README.md``).
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import atexit  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
DEFAULT_SEED = 1
DEFAULT_REFERENCES = os.path.join(HERE, "references.json")
SETUP_SAMPLES = 5

#: Gated metrics, printed on every workload with ``--trace 0``.
END_TO_END = (
    ("setup_s", "s"),
    ("request_s.p50.calibrated", "s"),
    ("evaluations_per_s.calibrated", "1/s"),
    ("jobs_per_s.calibrated", "1/s"),
    ("submit_miss_s.p50.calibrated", "s"),
    ("submit_warm_s.p50.calibrated", "s"),
    ("submit_hit_s.p50.calibrated", "s"),
    ("replay_s.p50.calibrated", "s"),
)

_CALLS_BUSY = (
    "api.specs.content_hash",
    "api.resolve.resolve_application",
    "service.store.create_record",
    "service.store.load_record",
    "service.store.write_record",
    "service.store.put_response",
    "service.store.response_text",
    "sa.moves.propose",
    "sa.moves.apply",
    "sa.moves.undo",
    "mapping.compiled.compile_instance",
    "mapping.engine.evaluate",
)
_BUSY = (
    "api.resolve.resolve_request",
    "service.store.instance_info_for",
    "api.facade.to_json",
    "mapping.engine.propose_moves",
    "mapping.engine.resolve",
)
_SELF = (
    "api.facade.explore",
    "search.runner.run_search_jobs",
    "sa.explorer.search",
    "sa.annealer.search",
    "sa.population.search",
)

#: Per-layer metrics, printed on every workload with ``--trace 1`` (a
#: layer a workload does not reach reads 0).
PER_LAYER = (
    tuple(
        item
        for name in _CALLS_BUSY
        for item in ((f"{name}.calls", "count"), (f"{name}.busy_s", "s"))
    )
    + tuple((f"{name}.busy_s", "s") for name in _BUSY)
    + tuple((f"{name}.self_s", "s") for name in _SELF)
    + (
        ("service.store.fsync.calls", "count"),
        ("service.store.bytes_written", "bytes"),
        ("service.service.submit.miss.self_s", "s"),
        ("service.service.submit.warm.self_s", "s"),
        ("service.service.submit.hit.self_s", "s"),
        ("service.service.submit.inflight.self_s", "s"),
        ("service.service.donor_loads_per_warm_submit", "count"),
        ("service.service.warm_start_ratio", "1"),
        ("service.service.hit_ratio", "1"),
        ("service.service.submit_miss_s.p95", "s"),
        ("service.service.submit_warm_s.p95", "s"),
        ("service.service.submit_hit_s.p95", "s"),
        ("service.service.result_s.p50", "s"),
        ("service.jobs.worker_start_s", "s"),
        ("service.jobs.queue_wait_s.p50", "s"),
        ("service.jobs.execute_s.p50", "s"),
        ("service.jobs.execute_s.p95", "s"),
        ("service.jobs.failed", "count"),
        ("service.jobs.requeued", "count"),
        ("api.facade.envelope_bytes", "bytes"),
        ("sa.moves.infeasible_ratio", "1"),
        ("search.evaluations", "count"),
        ("bench.request.self_s", "s"),
        ("trace.self_sum_ratio", "1"),
        ("trace.untraced.request_s.p50.calibrated", "s"),
        ("trace.traced.request_s.p50.calibrated", "s"),
        ("trace.untraced.submit_miss_s.p50.calibrated", "s"),
        ("trace.traced.submit_miss_s.p50.calibrated", "s"),
        ("trace.untraced.evaluations_per_s.calibrated", "1/s"),
        ("trace.traced.evaluations_per_s.calibrated", "1/s"),
    )
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true",
                        help="write this run's results as the references "
                             "of its workload instead of checking them (only "
                             "at the seed the references were recorded at)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _stop_resource_tracker():
    """Stop multiprocessing's resource-tracker process and wait for it.

    ``run_workers`` spawns its pool, and spawning starts a tracker
    process that would otherwise outlive the benchmark by a moment.
    Registered with ``atexit`` before ``multiprocessing`` is imported,
    so it runs after multiprocessing's own exit handler, whose
    finalizers still talk to the tracker.  Only the process that
    started the tracker knows its pid; spawned workers skip this."""
    module = sys.modules.get("multiprocessing.resource_tracker")
    if module is not None and module._resource_tracker._pid is not None:
        module._resource_tracker._stop()


atexit.register(_stop_resource_tracker)


def _import_program():
    """Put the checkout's ``src/`` first on the path; refuse to fall
    back on any other installed copy of the program."""
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        sys.stderr.write(f"no program source under {SOURCE!r}\n")
        sys.exit(2)
    if SOURCE not in sys.path:
        sys.path[:0] = [SOURCE, HERE]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SOURCE + os.sep):
        sys.stderr.write(f"imported repro from {repro.__file__!r}\n")
        sys.exit(2)


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def _setup(args, scratch):
    """Imports, instance documents, store creation and one untimed
    warm-up round at a small budget; returns the runner."""
    _import_program()
    import workloads
    from repro.api import facade
    from repro.service.service import ExplorationService

    workload = workloads.WORKLOADS[args.workload]
    runner = workloads.Runner(workload, args.seed, scratch)
    inputs = runner.inputs
    name = next(iter(inputs.documents))
    request = inputs.request(inputs.documents[name], 0, iterations=50)
    root = runner._store()
    try:
        service = ExplorationService(root)
        service.submit(request)
        if workload.scenario is None:
            service.run_local()
        else:
            service.queue.claim("warmup")
            response = facade.explore(request)
            response.to_json()
            service.queue.complete(service.key_of(request), response)
        service.submit(request)
        service.result(service.key_of(request)).to_json()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return runner


def _setup_samples(args, first):
    """The run's own set-up plus ``SETUP_SAMPLES - 1`` fresh processes
    doing the same set-up; the median is reported."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            raise RuntimeError("set-up probe failed")
        samples.append(float(child.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def _load_references(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _check_references(runner, references, args):
    """Pinned instance hashes always; per-request ``(best_cost,
    evaluations)`` at the reference seed, where every observed request
    must have a reference."""
    for name, digest in runner.inputs.hashes.items():
        expected = references["scenario_hashes"].get(name)
        if expected != digest:
            runner.fail(f"scenario_hash({name}) = {digest} != pinned {expected}")
    if args.seed != references["seed"]:
        return
    expected = references["results"].get(args.workload, [])
    for index, (got, want) in enumerate(zip(runner.observed, expected)):
        if got != want:
            runner.fail(f"result {index}: {got} != reference {want}")
    if len(runner.observed) > len(expected):
        runner.fail(f"{len(runner.observed)} results but only "
                    f"{len(expected)} references for {args.workload}")


def _record_references(runner, references, args):
    references["scenario_hashes"].update(runner.inputs.hashes)
    references["results"][args.workload] = runner.observed
    with open(DEFAULT_REFERENCES, "w", encoding="utf-8") as handle:
        json.dump(references, handle, indent=1, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _per_layer(runner, tracer, untraced):
    import workloads

    agg = tracer.aggregate()

    def field(name, key):
        return agg.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    def value_or_zero(value):
        return 0.0 if value is None or math.isnan(value) else value

    s = runner.samples
    metrics = {}
    for name in _CALLS_BUSY:
        metrics[f"{name}.calls"] = field(name, "calls")
        metrics[f"{name}.busy_s"] = field(name, "busy_s")
    for name in _BUSY:
        metrics[f"{name}.busy_s"] = field(name, "busy_s")
    for name in _SELF:
        metrics[f"{name}.self_s"] = field(name, "self_s")
    counters = tracer.counters
    by_status = tracer.self_by_status("service.service.submit")
    warm_loads = tracer.children_named(
        "service.service.submit", "service.store.load_record"
    ).get("warm", 0)
    proposals = field("sa.moves.propose", "calls")
    infeasible = (counters.get("sa.moves.propose.errors", 0)
                  + counters.get("sa.moves.apply.errors", 0))
    tiles = tracer.request_self_sums(
        "bench.request" if runner.workload.scenario else "bench.submit"
    )
    traced = runner.end_to_end()
    metrics.update({
        "service.store.fsync.calls": field("service.store.fsync", "calls"),
        "service.store.bytes_written": counters.get("service.store.bytes_written", 0),
        "service.service.donor_loads_per_warm_submit": ratio(
            warm_loads, len(s["submit_warm_s"])),
        "service.service.warm_start_ratio": ratio(runner.warm_starts, runner.drifted),
        "service.service.hit_ratio": ratio(runner.hits, runner.submits),
        "service.service.submit_miss_s.p95": workloads.percentile(s["submit_miss_s"], 95),
        "service.service.submit_warm_s.p95": workloads.percentile(s["submit_warm_s"], 95),
        "service.service.submit_hit_s.p95": workloads.percentile(s["submit_hit_s"], 95),
        "service.service.result_s.p50": workloads.median(s["result_s"]),
        "service.jobs.worker_start_s": workloads.median(s["worker_start_s"]),
        "service.jobs.queue_wait_s.p50": workloads.median(s["queue_wait_s"]),
        "service.jobs.execute_s.p50": workloads.median(s["execute_s"]),
        "service.jobs.execute_s.p95": workloads.percentile(s["execute_s"], 95),
        "service.jobs.failed": runner.job_failed,
        "service.jobs.requeued": runner.job_requeued,
        "api.facade.envelope_bytes": ratio(
            counters.get("api.facade.envelope_bytes", 0),
            counters.get("api.facade.envelopes", 0)),
        "sa.moves.infeasible_ratio": ratio(infeasible, proposals),
        "search.evaluations": runner.evaluations,
        "bench.request.self_s": field("bench.request", "self_s"),
        "trace.self_sum_ratio": ratio(
            sum(total for total, _ in tiles), sum(wall for _, wall in tiles)),
        "trace.untraced.request_s.p50.calibrated": untraced["request_s.p50.calibrated"][0],
        "trace.traced.request_s.p50.calibrated": traced["request_s.p50.calibrated"][0],
        "trace.untraced.submit_miss_s.p50.calibrated": untraced["submit_miss_s.p50.calibrated"][0],
        "trace.traced.submit_miss_s.p50.calibrated": traced["submit_miss_s.p50.calibrated"][0],
        "trace.untraced.evaluations_per_s.calibrated": untraced["evaluations_per_s.calibrated"][0],
        "trace.traced.evaluations_per_s.calibrated": traced["evaluations_per_s.calibrated"][0],
    })
    for status in ("miss", "warm", "hit", "inflight"):
        metrics[f"service.service.submit.{status}.self_s"] = by_status.get(status, 0.0)
    units = dict(PER_LAYER)
    out = {name: (value_or_zero(metrics[name]), units[name]) for name, _ in PER_LAYER}

    # Optional engine internals: read by name, printed when present.
    extra = {}
    engine = dict(tracer.engine_counters)
    for name, value in runner.engine_counters.items():
        engine[name] = engine.get(name, 0) + value
    for name, value in sorted(engine.items()):
        extra[f"mapping.engine.counter.{name}"] = (value, "count")
    if "proc_memo_hits" in engine and "proc_memo_misses" in engine:
        extra["mapping.engine.proc_memo_hit_ratio"] = (ratio(
            engine["proc_memo_hits"],
            engine["proc_memo_hits"] + engine["proc_memo_misses"]), "1")
    if "rc_content_hits" in engine and "rc_rebuilds" in engine:
        extra["mapping.engine.rc_memo_hit_ratio"] = (ratio(
            engine["rc_content_hits"],
            engine["rc_content_hits"] + engine["rc_rebuilds"]), "1")
    return out, extra


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
def run_workload(args):
    scratch = os.path.join(ROOT, ".bench_tmp", f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        runner = _setup(args, scratch)
        setup_first = time.perf_counter() - PROCESS_START
        if args.setup_only:
            print(repr(setup_first))
            return 0
        import workloads

        # The yardstick's heap is benchmark code: built after set-up has
        # been timed, so that ``setup_s`` measures the program only.
        workloads.calibrate()
        references = _load_references(DEFAULT_REFERENCES)
        if args.record_references and args.seed != references["seed"]:
            sys.stderr.write(
                f"--record-references needs --seed {references['seed']}, "
                f"the seed of every committed reference\n")
            return 2
        rounds = workloads.round_count(runner.workload, args.seconds)
        print(f"workload {args.workload} seed {args.seed} "
              f"rounds {rounds} trace {args.trace}")
        if args.trace:
            return _traced(args, runner, references, rounds)
        for index in range(rounds):
            runner.run_round(index)
        setup_s, setup_samples = _setup_samples(args, setup_first)
        if args.record_references:
            _record_references(runner, references, args)
        else:
            _check_references(runner, references, args)
        metrics = {"setup_s": (setup_s, "s", len(setup_samples))}
        metrics.update(runner.end_to_end())
        _print_table("end-to-end", {n: metrics[n] for n, _ in END_TO_END})
        _print_table("distribution (not gated)", runner.distribution())
        print(f"  {'failed_ratio':34s} "
              f"{runner.failed / max(1, runner.attempted):.6g} 1"
              f"  (n={runner.attempted})")
        return _finish(runner, {
            name: {"value": metrics[name][0], "unit": unit}
            for name, unit in END_TO_END
        })
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _traced(args, runner, references, rounds):
    """Half the rounds untraced, then the same rounds traced."""
    from spans import Tracer

    half = max(1, math.ceil(rounds / 2))
    for index in range(half):
        runner.run_round(index)
    untraced = {**runner.end_to_end(), **runner.distribution()}
    failed, attempted = runner.failed, runner.attempted
    runner.reset()
    tracer = Tracer()
    runner.tracer = tracer
    tracer.install()
    for target in tracer.missing:
        print(f"not traced (absent from the program): {target}")
    try:
        for index in range(half):
            runner.run_round(index)
    finally:
        tracer.uninstall()
    _check_references(runner, references, args)
    layer, extra = _per_layer(runner, tracer, untraced)
    _print_table("per-layer", {n: (v, u, None) for n, (v, u) in layer.items()})
    _print_table("engine counters (optional)",
                 {n: (v, u, None) for n, (v, u) in extra.items()})
    traced = {**runner.end_to_end(), **runner.distribution()}
    print("tracing overhead (untraced -> traced):")
    for name in ("speed_factor", "request_s.p50.calibrated", "request_s.p50",
                 "submit_miss_s.p50.calibrated", "submit_miss_s.p50",
                 "submit_hit_s.p50.calibrated", "evaluations_per_s.calibrated"):
        before, after = untraced[name][0], traced[name][0]
        print(f"  {name:34s} {before:.6g} -> {after:.6g} "
              f"({(after / before - 1) * 100:+.1f}%)")
    tracer.write(os.path.join(ROOT, ".bench_out",
                              f"spans-{args.workload}.jsonl.gz"))
    runner.failed += failed
    runner.attempted += attempted
    return _finish(runner, {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in layer.items()
    })


def _print_table(title, metrics):
    print(f"{title}:")
    for name, (value, unit, samples) in metrics.items():
        count = "" if samples is None else f"  (n={samples})"
        print(f"  {name:34s} {value:.6g} {unit}{count}")


def _finish(runner, metrics):
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# every workload
# ----------------------------------------------------------------------
def run_all(args, names):
    """Each workload in a fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.record_references:
            command.append("--record-references")
        child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0:
            status = 1
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            status = 1
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return status


def main(argv=None):
    args = _parse(argv)
    _import_program()
    import workloads

    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; known: "
                         f"{sorted(workloads.WORKLOADS)}\n")
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
