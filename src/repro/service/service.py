"""The service front door: cache-first submit, status, result, stats, gc.

:class:`ExplorationService` is what clients (and the ``repro serve``
CLI) talk to.  ``submit`` is **cache-first**: the request is content-
addressed (request hash × resolved instance hash), and

* a ``done`` record is a **cache hit** — the persisted envelope is
  served back byte-identical to what the computing worker wrote, no
  CPU spent, and the row is only read (the hit is counted in the
  store's append-only hit log);
* a ``pending``/``running`` record is an **in-flight dedupe** — the
  submit attaches to the existing computation instead of starting a
  second one (the exclusive ``os.link`` record creation in the store
  makes this hold even when two submits race);
* a ``failed`` record, or a ``done`` one whose envelope is missing or
  unreadable, is **resubmitted** — back to ``pending`` and re-ticketed,
  keeping its attempt history;
* no record means a **cache miss** — the instance document, the
  ``near/`` marker, the row (born complete, warm-start seed included)
  and the queue ticket are written, in that order, for the worker pool.

A cache miss additionally probes the warm-start ``near/`` index (see
:meth:`ExplorationService.submit`), and ``submit_anytime`` serves
deadline-capped best-so-far envelopes while the full job stays queued.

Telemetry: the service recorder counts ``cache_hit`` / ``cache_miss``
/ ``dedupe_inflight`` / ``job_resubmitted`` — plus ``warm_start_hit``
/ ``warm_start_repair`` on warm-started submits and
``anytime_partial`` on deadline-capped ones — and times every key
computation + record lookup under the ``store_lookup`` phase; the
queue adds ``job_requeued`` and the ``job_execute`` phase (see
:mod:`repro.service.jobs`).  All of it surfaces through
``repro telemetry summarize`` when the CLI is given ``--telemetry``.

Each file a request names is read once, at submit, and the row stores
the request with those documents embedded, so a job runs the bytes its
key hashed wherever it is drained.  This module keeps the cache-first
and gc policies; :class:`~repro.service.store.ResultStore` does every
file operation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.api.specs import (
    ExplorationRequest,
    ExplorationResponse,
    environment_stamp,
)
from repro.errors import ConfigurationError, MappingError, ServiceError
from repro.obs.telemetry import NULL
from repro.service.jobs import DEFAULT_STALE_AFTER_S, JobQueue
from repro.service.store import (
    RECORD_STATES,
    WARM_KINDS,
    InstanceInfo,
    JobRecord,
    ResultStore,
)

__all__ = [
    "STATS_FORMAT",
    "STATS_SCHEMA_VERSION",
    "ExplorationService",
    "SubmitOutcome",
]

STATS_FORMAT = "exploration-service-stats"
STATS_SCHEMA_VERSION = 2

#: ``SubmitOutcome.status`` values.  ``partial`` is the anytime path:
#: a deadline-capped in-process run served a best-so-far envelope while
#: the full job stays queued.
SUBMIT_STATUSES = ("hit", "queued", "inflight", "resubmitted", "partial")


@dataclass
class SubmitOutcome:
    """What one ``submit`` did.

    ``response``/``response_text`` are populated on a cache hit only —
    ``response_text`` is the exact persisted bytes, so hit-served
    envelopes are verifiably identical to the computed ones.
    """

    key: str
    status: str
    record: JobRecord
    response: Optional[ExplorationResponse] = None
    response_text: Optional[str] = None

    @property
    def cached(self) -> bool:
        return self.status == "hit"


class ExplorationService:
    """Cache-first serving layer over the store and the job queue."""

    def __init__(self, root: str, telemetry=NULL, create: bool = True) -> None:
        self.store = ResultStore(root, create=create)
        self.queue = JobQueue(self.store, telemetry=telemetry)
        self.telemetry = telemetry

    # -- submit --------------------------------------------------------
    def submit(self, request: ExplorationRequest) -> SubmitOutcome:
        """Cache-first submit; never computes, only looks up or enqueues
        (workers — or :meth:`run_local` — do the computing).

        A cache miss writes its row once.  It first files the instance
        document and the ``near/`` marker (both idempotent), then
        consults the warm-start index: when a completed record exists
        for a structurally identical instance (same topology and
        resource kinds, numeric fields free to differ), its persisted
        best solution is re-mapped onto the new instance — repaired
        deterministically where the drift invalidated assignments — and
        the job's request is rewritten to anneal from that seed with
        warmup skipped.  Only then is the row published, already
        carrying ``structure_hash`` and ``warm_start``, followed by the
        queue ticket and the marker again.  A submit that loses the
        creation race attaches to the winner's row.  The cache key is
        always the *original* request's, so warm-started results, and
        those of a request whose files the row embeds, are served back
        under the identity the client submitted.

        The key is looked up before the request is validated: a row
        exists only for a request that validated when the row was
        created (the key is its content hash), so a hit, an in-flight
        attach or a resubmit loads no strategy table.  A miss validates
        before it writes anything.
        """
        with self.telemetry.phase("store_lookup"):
            key, request_hash, info, runnable = self.store.cache_key_info(
                request
            )
            found = (
                self.store.load_record(key)
                if self.store.has_record(key) else None
            )
        if found is not None:
            return self._attach(key, found)
        request.validate()
        self.store.put_instance(info.instance_hash, info.document)
        self.store.index_near(info.structure_hash, key)
        rewritten, warm_start = self._warm_start(key, runnable, info)
        record, created = self.store.create_record(
            key, request_hash, info.instance_hash, runnable,
            structure_hash=info.structure_hash,
            warm_start=warm_start,
            request_document=rewritten,
        )
        if not created:
            return self._attach(key, record)
        self.queue.enqueue(key)
        # A gc that ran between the marker and the row saw a marker
        # without a row and pruned it; file it again now the row exists
        # (after the ticket, so a failure here leaves a runnable job).
        self.store.index_near(info.structure_hash, key)
        self.telemetry.count("cache_miss")
        if warm_start is not None:
            self._count_warm_start(key, warm_start)
        if self.telemetry.enabled:
            self.telemetry.event("submit", key=key, status="queued")
        return SubmitOutcome(key=key, status="queued", record=record)

    def _warm_start(
        self,
        key: str,
        request: ExplorationRequest,
        info: InstanceInfo,
    ) -> Tuple[Optional[Dict[str, Any]], Optional[Dict[str, Any]]]:
        """``(rewritten request document, warm_start block)`` seeding
        the new job from the best near-instance donor; ``(None, None)``
        when no donor qualifies (never fails the submit)."""
        from repro.search.runner import STRATEGY_KINDS

        if request.kind not in WARM_KINDS:
            return None, None
        if not STRATEGY_KINDS[request.strategy.kind].warm:
            return None, None
        if request.strategy.initial_solution is not None:
            return None, None  # the client seeded the run explicitly
        try:
            best = self._best_donor(key, info)
            if best is None:
                return None, None
            donor, delta = best
            rewritten, repairs = self._warm_rewrite(request, info, donor)
        except (ServiceError, ConfigurationError, MappingError):
            return None, None
        return rewritten, {
            "donor": donor,
            "delta": delta.to_dict(),
            "repairs": repairs,
        }

    def _count_warm_start(self, key: str, warm_start: Dict[str, Any]) -> None:
        """Telemetry of a published warm-started row."""
        repairs = warm_start["repairs"]
        self.telemetry.count("warm_start_hit")
        if repairs:
            self.telemetry.count("warm_start_repair", repairs)
        if self.telemetry.enabled:
            self.telemetry.event(
                "warm_start",
                key=key,
                donor=warm_start["donor"],
                delta_kind=warm_start["delta"]["kind"],
                delta_size=warm_start["delta"]["size"],
                repairs=repairs,
            )

    def _best_donor(
        self, key: str, info: InstanceInfo
    ) -> Optional[Tuple[str, Any]]:
        """``(donor key, instance delta)`` of the completed near-index
        record with the smallest delta, ties broken by key; ``None``
        when no candidate qualifies.

        The candidates are :meth:`ResultStore.near_donors`: completed
        ``single``/``batch`` records whose envelope exists.  Pending
        candidates and filled markers cost no row read.  Each distinct
        donor instance is loaded and diffed once per scan, so the scan
        stays linear in the distinct completed donor instances.
        """
        from repro.io import diff_instances

        best: Optional[Tuple[str, Any]] = None
        deltas: Dict[str, Any] = {}
        for candidate, instance_hash in self.store.near_donors(
            info.structure_hash
        ):
            if candidate == key:
                continue
            if instance_hash not in deltas:
                donor_doc = self.store.instance_document(instance_hash)
                deltas[instance_hash] = (
                    None if donor_doc is None
                    else diff_instances(donor_doc, info.document)
                )
            delta = deltas[instance_hash]
            if delta is None or delta.kind == "structural":
                continue  # no document, or a stale index entry
            if best is None or (delta.size, candidate) < (
                best[1].size, best[0]
            ):
                best = (candidate, delta)
        return best

    def _warm_rewrite(
        self,
        request: ExplorationRequest,
        info: InstanceInfo,
        donor: str,
    ) -> Tuple[Dict[str, Any], int]:
        """The queued job's rewritten request document: donor's best
        solution re-mapped onto the new instance as ``initial_solution``
        plus ``warmup_iterations=0`` (the annealer's infinite-temperature
        warmup would randomize the seed away).

        Repair happens here, at submit time, against the new resolved
        instance — so the embedded document always decodes strictly at
        execution time and the repair count is observable in the
        record's ``warm_start`` block.
        """
        from repro.io import instance_from_dict, solution_to_dict
        from repro.mapping.seed import seed_solution
        from repro.search.runner import STRATEGY_KINDS

        envelope = self.store.get_response(donor)
        if envelope.best is None or "solution" not in envelope.best:
            raise ServiceError(f"donor {donor!r} has no best solution")
        instance = instance_from_dict(info.document)
        seed, repairs = seed_solution(
            envelope.best["solution"],
            instance.application,
            instance.architecture,
        )
        rewritten = request.to_dict()
        rewritten["strategy"]["initial_solution"] = solution_to_dict(seed)
        if STRATEGY_KINDS[request.strategy.kind].anneals:
            rewritten["budget"]["warmup_iterations"] = 0
        # The rewrite must execute: validate it the way the worker will.
        ExplorationRequest.from_dict(rewritten).validate()
        return rewritten, repairs

    def _attach(self, key: str, record: JobRecord) -> SubmitOutcome:
        """Submit outcome for a key whose record already existed."""
        if record.status == "done":
            try:
                with self.telemetry.phase("store_lookup"):
                    text = self.store.response_text(key)
                response = ExplorationResponse.from_json(text)
            except (ServiceError, ConfigurationError):
                # The envelope is gone or unreadable: run the job again.
                return self._resubmit(
                    key, record,
                    "requeued: result envelope missing or unreadable",
                )
            # A hit only reads: it counts itself in the append-only hit
            # log and never rewrites the row, so racing hits lose no
            # count and a hit racing gc cannot republish a deleted row.
            record.hits += self.store.log_hit(key)
            self.telemetry.count("cache_hit")
            if self.telemetry.enabled:
                self.telemetry.event("submit", key=key, status="hit")
            return SubmitOutcome(
                key=key,
                status="hit",
                record=record,
                response=response,
                response_text=text,
            )
        if record.status == "failed":
            return self._resubmit(key, record)
        # pending or running: one computation is already on its way
        self.telemetry.count("dedupe_inflight")
        if self.telemetry.enabled:
            self.telemetry.event("submit", key=key, status="inflight")
        return SubmitOutcome(key=key, status="inflight", record=record)

    def _resubmit(
        self, key: str, record: JobRecord, error: Optional[str] = None
    ) -> SubmitOutcome:
        """Send a finished row back to ``pending`` (its history and
        attempt count kept) and re-ticket it."""
        record.transition("pending", error=error)
        self.store.write_record(record)
        self.queue.enqueue(key)
        self.telemetry.count("job_resubmitted")
        if self.telemetry.enabled:
            self.telemetry.event("submit", key=key, status="resubmitted")
        return SubmitOutcome(key=key, status="resubmitted", record=record)

    def submit_anytime(
        self, request: ExplorationRequest, deadline_s: float
    ) -> SubmitOutcome:
        """Deadline-aware submit: a cache hit is served instantly; any
        other outcome additionally runs the (possibly warm-started) job
        in-process and returns the best-so-far envelope as a
        ``partial`` outcome.  The request's runs (seeds, sweep cells or
        racers) run one after another, so each gets an equal share of
        ``deadline_s`` as its wall-clock budget.

        The partial envelope is marked ``summary["partial"] = True`` and
        is **not** cached — the record stays queued, so a later worker
        (or :meth:`run_local`) still computes and persists the full
        result under the same key.
        """
        from repro.api.facade import explore
        from repro.api.resolve import resolve_request

        if deadline_s <= 0:
            raise ServiceError("deadline_s must be > 0")
        outcome = self.submit(request)
        if outcome.status == "hit":
            return outcome
        record = outcome.record
        executed = ExplorationRequest.from_dict(record.request)
        capped = executed.to_dict()
        capped["budget"]["time_limit_s"] = deadline_s / len(
            resolve_request(executed).jobs
        )
        partial_request = ExplorationRequest.from_dict(capped)

        with self.telemetry.phase("anytime_partial"):
            response = explore(partial_request)
        response.summary = dict(response.summary, partial=True)
        self.telemetry.count("anytime_partial")
        if self.telemetry.enabled:
            self.telemetry.event(
                "submit_anytime",
                key=outcome.key,
                status="partial",
                deadline_s=deadline_s,
            )
        return SubmitOutcome(
            key=outcome.key,
            status="partial",
            record=record,
            response=response,
        )

    def run_local(self, jobs: int = 1, max_jobs: Optional[int] = None) -> int:
        """Drain the queue in-process (no pool); jobs executed.  The
        single-machine convenience the tests use."""
        return self.queue.drain(worker="local", jobs=jobs, max_jobs=max_jobs)

    # -- lookups -------------------------------------------------------
    def key_of(self, request: ExplorationRequest) -> str:
        return self.store.cache_key(request)[0]

    def status(self, key: str) -> JobRecord:
        """The record row with its hit log folded into ``hits`` (a view
        to report: write back a :meth:`ResultStore.load_record` row,
        never this one, or the logged hits would count twice)."""
        record = self.store.load_record(key)
        record.hits += self.store.logged_hits(key)
        return record

    def result(self, key: str) -> ExplorationResponse:
        """The persisted envelope; raises while the job is unfinished."""
        record = self.store.load_record(key)
        if record.status != "done":
            raise ServiceError(
                f"no result for {key!r} yet: record is {record.status!r}"
                + (f" ({record.error})" if record.error else "")
            )
        return self.store.get_response(key)

    def wait(
        self, key: str, timeout_s: float = 60.0, poll_s: float = 0.05
    ) -> JobRecord:
        """Poll until the record settles (done/failed) or timeout."""
        deadline = time.monotonic() + timeout_s
        while True:
            record = self.store.load_record(key)
            if record.status in ("done", "failed"):
                return record
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"timed out after {timeout_s:g}s waiting for {key!r} "
                    f"(still {record.status!r})"
                )
            time.sleep(poll_s)

    # -- bookkeeping ---------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """One JSON document summarizing the store (the ``repro serve
        stats --json`` schema; pinned by the service tests)."""
        by_status = dict.fromkeys(RECORD_STATES, 0)
        executions = 0
        hits = 0
        failed_attempts = 0
        warm_start_hits = 0
        warm_start_repairs = 0
        for record in self.store.iter_records():
            by_status[record.status] += 1
            executions += record.attempts
            hits += record.hits + self.store.logged_hits(record.key)
            if record.status == "failed":
                failed_attempts += record.attempts
            if record.warm_start is not None:
                warm_start_hits += 1
                warm_start_repairs += record.warm_start.get("repairs", 0)
        return {
            "format": STATS_FORMAT,
            "schema_version": STATS_SCHEMA_VERSION,
            "root": self.store.root,
            "records": dict(
                by_status, total=sum(by_status.values())
            ),
            "queue": {
                "queued": len(self.queue.pending_keys()),
                "claimed": by_status["running"],
            },
            "executions": executions,
            "hits": hits,
            "failed_attempts": failed_attempts,
            "warm_start_hits": warm_start_hits,
            "warm_start_repairs": warm_start_repairs,
            "results": self.store.result_count(),
            "environment": environment_stamp(),
        }

    def gc(
        self,
        failed: bool = True,
        done_older_than_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> Dict[str, int]:
        """Prune the store; returns removal counts per category.

        * ``failed`` — drop failed records (their error is in the
          history; resubmitting later simply recreates the row);
        * ``done_older_than_s`` — age out completed records + their
          envelopes (the cache eviction knob);
        * always, the orphans (:meth:`ResultStore.prune_orphans`), temp
          files once older than :data:`DEFAULT_STALE_AFTER_S`.
        """
        now = time.time() if now is None else now
        removed = {"failed": 0, "done": 0}
        for record in self.store.iter_records():
            if failed and record.status == "failed":
                self.store.delete_record(record.key)
                removed["failed"] += 1
            elif (
                done_older_than_s is not None
                and record.status == "done"
                and record.completed_ts is not None
                and now - record.completed_ts > done_older_than_s
            ):
                self.store.delete_record(record.key)
                removed["done"] += 1
        removed.update(self.store.prune_orphans(now, DEFAULT_STALE_AFTER_S))
        return removed
