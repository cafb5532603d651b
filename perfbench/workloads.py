"""The four benchmark workloads and the measurements they take.

Every workload is a closed loop driven from one client process through
the program's public surface only: :func:`repro.api.facade.explore`,
:class:`repro.service.service.ExplorationService`,
:func:`repro.service.jobs.run_workers`, :class:`repro.mapping.evaluator.
Evaluator` and :func:`repro.bench.corpus.get_scenario`.  A workload runs
a fixed number of *rounds* derived from ``--seconds`` (so one seed means
the same inputs and the same work on every machine and commit); the
round count is sized to take about ``--seconds`` on a 2-CPU container.

* ``explore-*`` rounds: one request through ``explore()`` and
  ``to_json()`` (the timed request), then a *publish* step on a
  fresh store — cold submit, persist the envelope, hit submit, read the
  result, and submit a param-drifted variant that warm-starts from it.
  The publish step is timed per submit and never inside ``request_s``.
* ``serve-replay`` rounds: one phased replay against a fresh store with
  two spawned workers (see :meth:`Runner.serve_round`).
"""

from __future__ import annotations

import contextlib
import json
import random
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

perf_counter = time.perf_counter

#: The paper's SA budget.  ``explore-tgff120`` and ``explore-tempering``
#: run a quarter and 400 rounds instead, so that one timed request
#: lasts about a second like ``explore-motion``'s and a 15-second run
#: averages over a dozen request seeds rather than three.
SA_ITERATIONS = 8000
REPLAY_ITERATIONS = 400
REPLAY_INSTANCES = ("motion/2000", "tgff/36", "tgff/60")
REPLAY_PER_INSTANCE = 3
REPLAY_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: Optional[str]
    #: Seconds one round takes on a 2-CPU container; rounds per run =
    #: ``round(seconds / nominal_s)`` (at least ``min_rounds``).
    nominal_s: float
    min_rounds: int = 3
    strategy: Dict[str, Any] = field(default_factory=dict)
    engine: str = "incremental"
    iterations: int = SA_ITERATIONS


WORKLOADS: Dict[str, Workload] = {
    "explore-motion": Workload(
        "explore-motion", "motion/2000", nominal_s=0.85, min_rounds=5,
        strategy={"kind": "sa"},
    ),
    "explore-tgff120": Workload(
        "explore-tgff120", "tgff/120", nominal_s=1.2, min_rounds=3,
        strategy={"kind": "sa"}, iterations=SA_ITERATIONS // 4,
    ),
    "explore-tempering": Workload(
        "explore-tempering", "tgff/60", nominal_s=0.95, min_rounds=3,
        strategy={
            "kind": "tempering",
            "options": {
                "chains": 8,
                "swap_interval": 25,
                "ladder_ratio": 1.5,
                "keep_trace": False,
            },
        },
        engine="array",
        iterations=400,
    ),
    "serve-replay": Workload(
        "serve-replay", None, nominal_s=2.5, min_rounds=2,
        strategy={"kind": "sa"}, iterations=REPLAY_ITERATIONS,
    ),
}


def round_count(workload: Workload, seconds: float) -> int:
    return max(workload.min_rounds, round(seconds / workload.nominal_s))


def request_seed(workload: str, seed: int, index: int) -> int:
    """Seed of the ``index``-th request of a run (derived from the
    workload seed only, never from the machine or the clock)."""
    return random.Random(f"{workload}:{seed}:{index}").randrange(2 ** 31)


#: Mean time of one :func:`calibrate` slice at the reference CPU speed
#: (measured on the 2-CPU container the benchmark was sized on, in a
#: quiet period).  Gated times are reported at this speed.
CALIBRATION_REF_S = 0.004


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value: float, next: "Optional[_Node]") -> None:
        self.value = value
        self.next = next


_CALIBRATION_HEAP: List[Any] = []


def _calibration_heap() -> Tuple[List[_Node], List[int]]:
    """200k small objects and a fixed random visiting order, built once
    per process (during set-up)."""
    if not _CALIBRATION_HEAP:
        rng = random.Random(0)
        heap = [_Node(rng.random(), None) for _ in range(200_000)]
        order = list(range(len(heap)))
        rng.shuffle(order)
        _CALIBRATION_HEAP[:] = [heap, order[:10_000]]
    return _CALIBRATION_HEAP[0], _CALIBRATION_HEAP[1]


def _second(item: Tuple[str, int]) -> int:
    return -item[1]


def calibrate() -> float:
    """Time one slice of a fixed pure-Python yardstick (about 4 ms):
    small dicts, a keyed sort, object allocation and a linked-list walk,
    then random reads over a heap of 200k objects.

    The benchmark runs a slice before every timed operation.  On a
    shared host the CPU's speed swings within seconds and drifts over
    minutes; interpreter- and cache-bound work like this slows down
    with the program, while a change to the program leaves it alone.
    The mean of a run's slices therefore gives the run's speed."""
    heap, order = _calibration_heap()
    started = perf_counter()
    total = 0.0
    for round_ in range(150):
        table = {f"k{i}": i * round_ for i in range(20)}
        head = None
        for name, value in sorted(table.items(), key=_second)[:10]:
            head = _Node(value, head)
        while head is not None:
            total += head.value
            head = head.next
    for index in order:
        total += heap[index].value
    return perf_counter() - started


def median(values: List[float]) -> float:
    return statistics.median(values) if values else float("nan")


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def drift_document(document: Dict[str, Any], rng: random.Random) -> Dict[str, Any]:
    """A param-only drift of an instance document: one task's software
    time scaled by 1–5 %.  Topology and resource kinds are untouched,
    so the structure digest (the warm-start index key) is unchanged."""
    drifted = json.loads(json.dumps(document))
    tasks = drifted["application"]["tasks"]
    task = tasks[rng.randrange(len(tasks))]
    task["sw_time_ms"] = round(task["sw_time_ms"] * (1.01 + 0.04 * rng.random()), 9)
    return drifted


class Inputs:
    """Instance documents and request builders for one run."""

    def __init__(self, workload: Workload, seed: int) -> None:
        from repro.bench.corpus import get_scenario, scenario_hash

        self.workload = workload
        self.seed = seed
        names = (
            REPLAY_INSTANCES if workload.scenario is None
            else (workload.scenario,)
        )
        self.scenarios = {name: get_scenario(name) for name in names}
        self.documents = {
            name: scenario.document() for name, scenario in self.scenarios.items()
        }
        self.hashes = {
            name: scenario_hash(scenario)
            for name, scenario in self.scenarios.items()
        }

    def request(self, document: Dict[str, Any], seed: int, iterations: Optional[int] = None):
        from repro.api.specs import (
            ApplicationSpec, BudgetSpec, EngineSpec, ExplorationRequest,
            StrategySpec,
        )

        workload = self.workload
        return ExplorationRequest(
            kind="single",
            application=ApplicationSpec(kind="bundled", document=document),
            strategy=StrategySpec(**workload.strategy),
            budget=BudgetSpec(iterations=iterations or workload.iterations),
            engine=EngineSpec(kind=workload.engine),
            seed=seed,
        )


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def reevaluate(text: str, document: Dict[str, Any]) -> Optional[str]:
    """Re-score the envelope's best solution with the reference
    ``"full"`` engine; ``None`` when the reported makespan matches
    bit-for-bit, else a description of the mismatch."""
    from repro.io import instance_from_dict, solution_from_dict
    from repro.mapping.evaluator import Evaluator

    best = json.loads(text)["best"]
    instance = instance_from_dict(document)
    solution = solution_from_dict(
        best["solution"], instance.application, instance.architecture
    )
    evaluation = Evaluator(
        instance.application, instance.architecture, engine="full"
    ).evaluate(solution)
    reported = best["evaluation"]["makespan_ms"]
    if evaluation.makespan_ms != reported:
        return (
            f"best makespan {reported!r} != full-engine "
            f"{evaluation.makespan_ms!r}"
        )
    return None


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
class Runner:
    """Executes rounds of one workload and collects samples."""

    def __init__(self, workload: Workload, seed: int, scratch: str, tracer=None) -> None:
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.tracer = tracer
        self.inputs = Inputs(workload, seed)
        self.reset()

    def reset(self) -> None:
        self.samples: Dict[str, List[float]] = {
            "request_s": [], "submit_miss_s": [], "submit_warm_s": [],
            "submit_hit_s": [], "submit_inflight_s": [], "result_s": [],
            "execute_s": [], "queue_wait_s": [],
            "worker_start_s": [], "replay_s": [], "calibration_s": [],
        }
        #: ``(evaluations, jobs, seconds)`` per timed unit of work: one
        #: request on ``explore-*``, one drain on ``serve-replay``.
        self.units: List[Tuple[int, int, float]] = []
        self.job_failed = 0
        #: Engine ``telemetry_counters()`` the workers recorded into
        #: each job's record (``serve-replay`` only).
        self.engine_counters: Dict[str, int] = {}
        self.job_requeued = 0
        self.attempted = 0
        self.failed = 0
        self.observed: List[List[Any]] = []
        self.drifted = 0
        self.warm_starts = 0
        self.submits = 0
        self.hits = 0

    # -- bookkeeping ---------------------------------------------------
    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"MISMATCH {self.workload.name}: {message}", file=sys.stderr)

    def _next_request(self) -> None:
        if self.tracer is not None:
            self.tracer.request += 1

    def _span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def _untraced(self):
        """The benchmark's own checks run outside every layer span."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.pause()

    def calibrate(self) -> None:
        """One yardstick slice, taken right before a timed operation."""
        self.samples["calibration_s"].append(calibrate())

    def submit(self, service, request, expect: str):
        """Timed submit; the outcome's kind (``miss``/``warm``/``hit``/
        ``inflight``) must equal ``expect``."""
        self.calibrate()
        self._next_request()
        self.attempted += 1
        self.submits += 1
        with self._span("bench.submit"):
            started = perf_counter()
            outcome = service.submit(request)
            elapsed = perf_counter() - started
        kind = outcome.status
        if kind == "queued":
            kind = "warm" if outcome.record.warm_start else "miss"
        if kind == "hit":
            self.hits += 1
        if kind == "warm":
            self.warm_starts += 1
        if kind != expect:
            self.fail(f"submit expected {expect!r}, got {kind!r}")
        else:
            self.samples[f"submit_{kind}_s"].append(elapsed)
        return outcome

    def read_result(self, service, key: str) -> str:
        self.calibrate()
        self._next_request()
        self.attempted += 1
        with self._span("bench.result"):
            started = perf_counter()
            text = service.result(key).to_json()
            self.samples["result_s"].append(perf_counter() - started)
        return text

    def check_stats(self, service, executions: int, hits: int, warm: int) -> None:
        with self._untraced():
            stats = service.stats()
        expected = {"executions": executions, "hits": hits,
                    "warm_start_hits": warm}
        for name, value in expected.items():
            if stats[name] != value:
                self.fail(f"stats()[{name!r}] = {stats[name]} != expected {value}")

    def check_envelope(self, text: str, document: Dict[str, Any], label: str) -> None:
        with self._untraced():
            problem = reevaluate(text, document)
        if problem is not None:
            self.fail(f"{label}: {problem}")

    # -- rounds --------------------------------------------------------
    def run_round(self, index: int) -> None:
        try:
            if self.workload.scenario is None:
                self.serve_round(index)
            else:
                self.explore_round(index)
        except Exception:
            self.failed += 1
            self.attempted += 1
            traceback.print_exc(file=sys.stderr)
        if self.tracer is not None:
            self.tracer.harvest_engines()

    def _store(self) -> str:
        return tempfile.mkdtemp(prefix="store-", dir=self.scratch)

    def explore_round(self, index: int) -> None:
        from repro.api import facade
        from repro.service.service import ExplorationService

        inputs = self.inputs
        name = self.workload.scenario
        document = inputs.documents[name]
        seed = request_seed(self.workload.name, self.seed, index)
        request = inputs.request(document, seed)
        drifted = inputs.request(
            drift_document(document, random.Random(seed)), seed
        )
        root = self._store()
        try:
            self.calibrate()
            self._next_request()
            self.attempted += 1
            with self._span("bench.request"):
                started = perf_counter()
                response = facade.explore(request)
                text = response.to_json()
                elapsed = perf_counter() - started
            self.samples["request_s"].append(elapsed)
            result = response.results[0]
            self.units.append((result["evaluations"], 1, elapsed))
            self.observed.append(
                [name, seed, result["best_cost"], result["evaluations"]]
            )

            # publish: cold submit, persist, hit, result read, warm drift
            service = ExplorationService(root)
            outcome = self.submit(service, request, "miss")
            claimed = service.queue.claim("bench")
            service.queue.complete(outcome.key, response)
            hit = self.submit(service, request, "hit")
            served = self.read_result(service, outcome.key)
            self.drifted += 1
            self.submit(service, drifted, "warm")
            self.samples["replay_s"].append(perf_counter() - started)

            if claimed != outcome.key:
                self.fail(f"claimed {claimed!r}, submitted {outcome.key!r}")
            if hit.response_text != served or served != text:
                self.fail(f"request {index}: hit bytes differ from result()")
            self.check_stats(service, executions=1, hits=1, warm=1)
            self.check_envelope(text, document, f"request {index}")
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def serve_round(self, index: int) -> None:
        """One phased closed replay against a fresh store.

        1. cold submits, each followed by an immediate duplicate
           (in-flight dedupe);
        2. drain with ``run_workers(workers=2)``;
        3. re-submit every request (hits, the read path) interleaved with
           a param-drifted variant of each (warm-start misses: the write
           path plus the ``near/`` bucket scan);
        4. drain again;
        5. read every result.
        """
        from repro.service.service import ExplorationService

        inputs = self.inputs
        rng = random.Random(request_seed(self.workload.name, self.seed, index))
        cold = []
        for position in range(REPLAY_PER_INSTANCE):
            for name in REPLAY_INSTANCES:
                seed = rng.randrange(2 ** 31)
                document = inputs.documents[name]
                cold.append((name, seed, document, inputs.request(document, seed)))
        root = self._store()
        try:
            service = ExplorationService(root)
            started = perf_counter()
            keys = []
            for name, seed, document, request in cold:
                outcome = self.submit(service, request, "miss")
                self.submit(service, request, "inflight")
                keys.append((outcome.key, name, seed, document))
            drains = [self._drain(root, service, [key for key, *_ in keys])]

            hits = []
            for name, seed, document, request in cold:
                hit = self.submit(service, request, "hit")
                hits.append(hit)
                drifted_document = drift_document(document, rng)
                drifted = inputs.request(drifted_document, seed)
                self.drifted += 1
                outcome = self.submit(service, drifted, "warm")
                keys.append((outcome.key, name, seed, drifted_document))
            drains.append(
                self._drain(root, service, [key for key, *_ in keys[len(cold):]])
            )

            texts = [self.read_result(service, key) for key, *_ in keys]
            self.samples["replay_s"].append(perf_counter() - started)

            for hit, text in zip(hits, texts):
                if hit.response_text != text:
                    self.fail(f"replay {index}: hit bytes differ from result()")
            evaluations = {}
            for (key, name, seed, document), text in zip(keys, texts):
                self.check_envelope(text, document, f"replay {index} {name}")
                result = json.loads(text)["results"][0]
                evaluations[key] = result["evaluations"]
                self.observed.append([name, seed, result["best_cost"], result["evaluations"]])
            for elapsed, drained in drains:
                self.units.append((
                    sum(evaluations[key] for key in drained),
                    len(drained),
                    elapsed,
                ))
            self.check_stats(
                service,
                executions=len(keys),
                hits=len(cold),
                warm=len(cold),
            )
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def _drain(self, root: str, service, keys: List[str]) -> Tuple[float, List[str]]:
        """Run the worker pool until the queue is empty; ``(wall
        seconds, keys)``.  Worker-side figures come from the records."""
        from repro.service.jobs import run_workers

        self.calibrate()
        wall_started = time.time()
        started = perf_counter()
        executed = run_workers(root, workers=REPLAY_WORKERS)
        elapsed = perf_counter() - started
        self.attempted += len(keys)
        if executed != len(keys):
            self.fail(f"drain executed {executed} jobs, expected {len(keys)}")
        first_claim = None
        for key in keys:
            with self._untraced():
                record = service.status(key)
            if record.status != "done":
                self.job_failed += 1
                self.fail(f"job {key[:12]} ended {record.status!r}: {record.error}")
                continue
            counters = (record.telemetry or {}).get("counters", {})
            for name, value in counters.items():
                if name.startswith("engine."):
                    name = name[len("engine."):]
                    self.engine_counters[name] = (
                        self.engine_counters.get(name, 0) + value
                    )
            self.job_requeued += sum(
                1 for entry in record.history
                if str(entry.get("error") or "").startswith("requeued")
            )
            self.samples["execute_s"].append(record.completed_ts - record.claimed_ts)
            self.samples["queue_wait_s"].append(record.claimed_ts - record.created_ts)
            if first_claim is None or record.claimed_ts < first_claim:
                first_claim = record.claimed_ts
        if first_claim is not None:
            self.samples["worker_start_s"].append(first_claim - wall_started)
        return elapsed, keys

    # -- results -------------------------------------------------------
    @property
    def evaluations(self) -> int:
        """Search evaluations of every timed unit (a count that repeats
        exactly at one seed and ``--seconds``)."""
        return sum(e for e, _, _ in self.units)

    def speed_factor(self) -> float:
        """Reference speed over the run's speed: the yardstick's
        reference time over the mean of the run's slices."""
        slices = self.samples["calibration_s"]
        return CALIBRATION_REF_S / _mean(slices)

    def end_to_end(self) -> Dict[str, Tuple[float, str, int]]:
        """``name -> (value, unit, samples)`` for every gated metric.

        Times are the run's median at the reference CPU speed: the
        measured median times :meth:`speed_factor`; rates are the run's
        totals over its timed seconds at that speed.  On the shared
        2-CPU host the benchmark was sized on, raw medians and minima of
        the same work moved by up to 0.27 (quartile distance over
        median) across ten seeded runs.  Calibrated means did better
        but one slow outlier among a dozen samples could still move
        them by 0.26; the calibrated medians do not have that
        weakness."""
        s = self.samples
        factor = self.speed_factor()
        request, rounds = self._request_and_rounds()
        seconds = sum(t for _, _, t in self.units) * factor
        out = {
            "request_s.p50.calibrated": (
                median(request) * factor, "s", len(request)),
            "evaluations_per_s.calibrated": (
                sum(e for e, _, _ in self.units) / seconds if seconds
                else float("nan"), "1/s", len(self.units)),
            "jobs_per_s.calibrated": (
                sum(j for _, j, _ in self.units) / seconds if seconds
                else float("nan"), "1/s", len(self.units)),
        }
        for kind in ("miss", "warm", "hit"):
            values = s[f"submit_{kind}_s"]
            out[f"submit_{kind}_s.p50.calibrated"] = (
                median(values) * factor, "s", len(values))
        out["replay_s.p50.calibrated"] = (
            median(rounds) * factor, "s", len(rounds))
        return out

    def distribution(self) -> Dict[str, Tuple[float, str, int]]:
        """The speed factor and the samples as measured (printed for
        reading, not gated)."""
        s = self.samples
        request, rounds = self._request_and_rounds()
        out = {"speed_factor": (
            self.speed_factor(), "1", len(s["calibration_s"]))}
        for name, values in (
            ("request_s", request),
            ("submit_miss_s", s["submit_miss_s"]),
            ("submit_warm_s", s["submit_warm_s"]),
            ("submit_hit_s", s["submit_hit_s"]),
            ("replay_s", rounds),
        ):
            out[f"{name}.p50"] = (median(values), "s", len(values))
            out[f"{name}.min"] = (_min(values), "s", len(values))
        return out

    def _request_and_rounds(self) -> Tuple[List[float], List[float]]:
        """Request-to-envelope times and round times: client-side
        ``explore()`` + ``to_json()`` and one request with its publish
        step on ``explore-*``; worker-side claim-to-done per job and one
        whole replay on ``serve-replay``."""
        s = self.samples
        if self.workload.scenario is None:
            return s["execute_s"], s["replay_s"]
        return s["request_s"], s["replay_s"]


def _min(values: List[float]) -> float:
    return min(values) if values else float("nan")


def _mean(values: List[float]) -> float:
    return statistics.mean(values) if values else float("nan")
