"""Job queue and worker pool over the result store.

Lifecycle (all state lives in :class:`~repro.service.store.ResultStore`
files; no broker, no database):

* **submit** (done by the service front door) creates the ``pending``
  record row and drops the empty ``queue/<key>.ticket``;
* **claim** unlinks the ticket — among racing workers exactly one
  unlink succeeds — then stamps the record ``running`` (attempt count
  + worker + claimed timestamp).  The ``running`` row is the claim:
  the only record of who owns the job;
* **complete** persists the envelope, stamps the record ``done`` with
  the job's telemetry snapshot absorbed and fills the record's
  ``near/`` marker with its instance hash (the donor index the
  warm-start scan reads instead of the row);
  **fail** stamps ``failed`` with the error message;
* **requeue_stale** is the crash-safety pass: a worker that died
  mid-job leaves a ``running`` record; once ``stale_after_s`` has
  elapsed the record returns to ``pending`` with a fresh ticket for
  the next worker, unless the job's envelope is already in place (the
  worker died before its ``done`` row): then the record is stamped
  ``done`` as ``complete`` would have, and the job does not run again.
  A crash between a claim's unlink and its ``running`` row leaves a
  pending record without a ticket, which the same pass re-tickets.

Workers execute claimed requests through the one public façade
(:func:`repro.api.facade.explore`), which runs them on the search
runner — the service adds persistence and record-keeping, never a
second execution path.  :func:`run_workers` runs N drain-loop workers:
worker 0 in the calling process, which claims its first job at once,
and workers 1 … N−1 in a warm spawn pool that the process builds at
its first multi-worker drain and reuses for every later one.  It
absorbs each worker's telemetry into the caller's recorder in worker
order.  This module keeps the lifecycle policy; every file operation
goes through the store.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import threading
import time
import traceback
from concurrent.futures import Executor, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Optional, Tuple

from repro.api.facade import ExplorationResponse, explore
from repro.api.specs import ExplorationRequest
from repro.errors import ConfigurationError, ReproError, ServiceError
from repro.obs.telemetry import NULL, Telemetry
from repro.service.store import JobRecord, ResultStore

__all__ = [
    "DEFAULT_STALE_AFTER_S",
    "JobQueue",
    "run_workers",
]

#: Default age after which a ``running`` record counts as abandoned.
#: Wide enough that live siblings in a worker pool are never robbed of
#: jobs they are still computing; crash-safety tests pass 0 to requeue
#: immediately.
DEFAULT_STALE_AFTER_S = 600.0


class JobQueue:
    """Submit/claim/complete lifecycle over one store.

    ``telemetry`` receives the service-level counters
    (``job_claimed`` / ``job_completed`` / ``job_failed`` /
    ``job_requeued``) and the ``job_execute`` phase timer; per-job
    search telemetry is recorded by a job-scoped recorder whose
    counters/timers snapshot is absorbed into the record row.
    """

    def __init__(self, store: ResultStore, telemetry=NULL) -> None:
        self.store = store
        self.telemetry = telemetry

    # -- submit side ---------------------------------------------------
    def enqueue(self, key: str) -> bool:
        """Drop the work ticket for ``key``; False if already queued."""
        if not self.store.has_record(key):
            raise ServiceError(f"cannot enqueue {key!r}: no record row")
        return self.store.put_ticket(key)

    def pending_keys(self) -> List[str]:
        """Queued keys, oldest ticket first (FIFO-ish claim order)."""
        return self.store.ticket_keys()

    # -- worker side ---------------------------------------------------
    def claim(self, worker: str) -> Optional[str]:
        """Claim one pending job; ``None`` when the queue is empty.

        Taking the ticket is the atomic hand-off: among N racing workers
        exactly one unlink succeeds per ticket, and everyone else moves
        to the next ticket.  The ``running`` row written next is the
        claim.
        """
        for key in self.pending_keys():
            if not self.store.take_ticket(key):
                continue  # lost the race for this ticket
            record = self.store.load_record(key)
            record.transition("running", worker=worker)
            self.store.write_record(record)
            self.telemetry.count("job_claimed")
            if self.telemetry.enabled:
                self.telemetry.event("job_claimed", key=key, worker=worker)
            return key
        return None

    def complete(
        self,
        key: str,
        response: ExplorationResponse,
        job_telemetry: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Persist the envelope, stamp ``done`` and fill the record's
        near marker (a donor index hint); returns the envelope text
        written (the bytes later cache hits serve back)."""
        text = self.store.put_response(key, response)
        record = self.store.load_record(key)
        record.telemetry = job_telemetry
        self._stamp_done(record)
        self.telemetry.count("job_completed")
        if self.telemetry.enabled:
            self.telemetry.event("job_completed", key=key)
        return text

    def _stamp_done(
        self, record: JobRecord, now: Optional[float] = None
    ) -> None:
        """The ``done`` row (same worker), then the near marker's fill:
        the steps after the envelope."""
        record.transition("done", worker=record.worker, now=now)
        self.store.write_record(record)
        try:
            self.store.fill_near(record)
        except OSError:
            pass  # the donor scan falls back to reading the row

    def fail(self, key: str, error: str) -> None:
        record = self.store.load_record(key)
        record.transition("failed", worker=record.worker, error=error)
        self.store.write_record(record)
        self.telemetry.count("job_failed")
        if self.telemetry.enabled:
            self.telemetry.event("job_failed", key=key, error=error)

    # -- crash safety --------------------------------------------------
    def requeue_stale(
        self,
        stale_after_s: float = DEFAULT_STALE_AFTER_S,
        now: Optional[float] = None,
    ) -> List[str]:
        """Return abandoned jobs to the queue; lists the keys requeued.

        A ``running`` record whose claim is older than ``stale_after_s``
        is assumed dead (its worker crashed mid-job): it returns to
        ``pending``, keeping its attempt count and probe history, with a
        fresh ticket.  If its envelope is already persisted (a crash
        between the envelope and the ``done`` row) it is finished
        instead: stamped ``done`` and its near marker filled, so the job
        counts one execution.  A ``pending`` record older than
        ``stale_after_s`` without a ticket (a crash between a claim's
        unlink and its ``running`` row, or a row and its ticket) is
        re-ticketed.
        """
        now = time.time() if now is None else now
        requeued: List[str] = []
        for record in self.store.iter_records():
            if record.status == "running":
                anchor = record.claimed_ts or record.created_ts
                if now - anchor < stale_after_s:
                    continue
                if self.store.has_response(record.key):
                    self._stamp_done(record, now=now)
                    continue
                record.transition(
                    "pending",
                    error=f"requeued: stale claim by {record.worker!r}",
                    now=now,
                )
                self.store.write_record(record)
                self.store.put_ticket(record.key)
                requeued.append(record.key)
                self.telemetry.count("job_requeued")
                if self.telemetry.enabled:
                    self.telemetry.event("job_requeued", key=record.key)
            elif record.status == "pending":
                if now - record.created_ts >= stale_after_s:
                    self.store.put_ticket(record.key)
        return requeued

    # -- execution -----------------------------------------------------
    def execute(self, key: str, jobs: int = 1) -> ExplorationResponse:
        """Run the claimed request through the façade and complete it.

        The job gets its own :class:`Telemetry` recorder; the
        response's telemetry block (its counters/gauges/timers snapshot)
        is absorbed into the record row so ``repro serve status`` shows
        the run's internals without a separate stream file.  A
        :class:`~repro.errors.ReproError` marks the record ``failed``
        and re-raises.
        """
        record = self.store.load_record(key)
        if record.status != "running":
            raise ServiceError(
                f"cannot execute {key!r}: record is {record.status!r}, "
                f"not 'running' (claim it first)"
            )
        job_telemetry = Telemetry(label=f"job:{key[:12]}")
        try:
            request = ExplorationRequest.from_dict(record.request)
            with self.telemetry.phase("job_execute"):
                response = explore(
                    request, jobs=jobs, telemetry=job_telemetry
                )
        except ReproError as exc:
            self.fail(key, f"{type(exc).__name__}: {exc}")
            raise
        except Exception as exc:  # unexpected: capture the traceback
            self.fail(key, traceback.format_exc())
            raise ServiceError(
                f"job {key!r} crashed: {type(exc).__name__}: {exc}"
            ) from exc
        self.complete(key, response, job_telemetry=response.telemetry)
        return response

    def drain(
        self,
        worker: str = "local",
        jobs: int = 1,
        max_jobs: Optional[int] = None,
    ) -> int:
        """Claim-and-execute until the queue is empty; jobs executed.

        A failed job is recorded (``failed`` row, ``job_failed``
        counter) and the drain moves on — one poisoned request must not
        wedge the worker.
        """
        executed = 0
        while max_jobs is None or executed < max_jobs:
            key = self.claim(worker)
            if key is None:
                return executed
            try:
                self.execute(key, jobs=jobs)
            except ReproError:
                continue  # recorded as failed; keep draining
            executed += 1
        return executed


# ----------------------------------------------------------------------
# the worker pool
# ----------------------------------------------------------------------
_pool_lock = threading.Lock()
#: The warm drain pool, ``(size, executor)``: see :func:`run_workers`.
_pool: Optional[Tuple[int, ProcessPoolExecutor]] = None


def _worker_main(
    root: str,
    worker: str,
    jobs: int,
    max_jobs: Optional[int],
) -> Tuple[int, Dict[str, Any]]:
    """Worker entry point (top-level, hence spawn-picklable)."""
    telemetry = Telemetry(label=worker)
    queue = JobQueue(ResultStore(root, create=False), telemetry=telemetry)
    executed = queue.drain(worker=worker, jobs=jobs, max_jobs=max_jobs)
    return executed, telemetry.export()


def _exit_with_owner() -> None:
    """Pool initializer: a daemon thread ends this worker as soon as the
    process that spawned it dies.  A warm worker idles between drains,
    so without it a SIGKILLed owner would leave the worker running."""
    sentinel = multiprocessing.parent_process().sentinel

    def watch() -> None:
        multiprocessing.connection.wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, name="owner-watch", daemon=True).start()


def _submit_drains(
    root: str, workers: int, jobs: int, max_jobs: Optional[int]
) -> Tuple[ProcessPoolExecutor, List[Future]]:
    """Submit drains ``worker-1`` … ``worker-(workers-1)`` to the warm
    pool, built (or rebuilt at another size) on demand; a pool that a
    dead worker broke in an earlier call is replaced once."""
    global _pool
    size = workers - 1

    def submit(pool: ProcessPoolExecutor) -> List[Future]:
        return [
            pool.submit(_worker_main, root, f"worker-{index}", jobs, max_jobs)
            for index in range(1, workers)
        ]

    with _pool_lock:
        if _pool is not None and _pool[0] != size:
            _pool[1].shutdown()
            _pool = None
        if _pool is None:
            _pool = (size, _spawn_pool(size))
        try:
            return _pool[1], submit(_pool[1])
        except BrokenProcessPool:
            _pool[1].shutdown()
            _pool = (size, _spawn_pool(size))
            return _pool[1], submit(_pool[1])


def _spawn_pool(size: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(
        max_workers=size,
        mp_context=multiprocessing.get_context("spawn"),
        initializer=_exit_with_owner,
    )


def _drop_pool(pool: Optional[Executor] = None) -> None:
    """Shut ``pool`` down (default: the warm pool), letting its submitted
    drains finish, and forget it if it is the warm pool."""
    global _pool
    with _pool_lock:
        if _pool is not None and (pool is None or pool is _pool[1]):
            pool = _pool[1]
            _pool = None
    if pool is not None:
        pool.shutdown()


def run_workers(
    root: str,
    workers: int = 2,
    stale_after_s: float = DEFAULT_STALE_AFTER_S,
    jobs: int = 1,
    max_jobs: Optional[int] = None,
    telemetry=NULL,
) -> int:
    """Drain the store's queue with ``workers`` drain loops; jobs executed.

    Stale ``running`` records are requeued once, here, before any
    worker starts (crash recovery) — doing it per worker would let a
    late-starting worker rob a live sibling's fresh claim under small
    ``stale_after_s`` values.  Then ``workers - 1`` pool processes
    (``worker-1`` …) and the calling process itself (``worker-0``,
    which starts claiming at once) drain until the queue is empty;
    ``workers=1`` uses no pool.  Worker telemetry (service counters,
    ``job_execute`` timers, job events) is absorbed into ``telemetry``
    in worker-index order, the runner's deterministic merge idiom.

    The pool is warm: one spawn pool per process, built by the first
    multi-worker drain and reused by every later drain of the same
    size (another size replaces it), so only the first drain waits
    for workers to start.  Concurrent callers in one process share it.
    Its drains get the absolute ``root`` (a warm worker keeps the
    directory it was spawned in).  The workers are joined at
    interpreter exit and end themselves if this process dies.  If
    worker 0's drain raises, the pool's drains finish, the pool is
    shut down and the next drain builds a new one.  A pool worker that
    dies raises :class:`ServiceError`; the job it had claimed is
    requeued by a later call once its claim is older than
    ``stale_after_s``.
    """
    if workers < 1:
        raise ConfigurationError("workers must be >= 1")
    root = os.path.abspath(root)
    JobQueue(
        ResultStore(root, create=False), telemetry=telemetry
    ).requeue_stale(stale_after_s)
    pool, futures = (
        _submit_drains(root, workers, jobs, max_jobs)
        if workers > 1 else (None, [])
    )
    try:
        results = [_worker_main(root, "worker-0", jobs, max_jobs)]
    except BaseException:
        if pool is not None:
            _drop_pool(pool)
        raise
    wait(futures)
    for index, future in enumerate(futures, start=1):
        try:
            results.append(future.result())
        except BrokenProcessPool as exc:
            _drop_pool(pool)
            raise ServiceError(
                f"drain worker-{index} died ({exc}); the job it had "
                f"claimed is requeued by the next run-workers once its "
                f"claim is stale (--stale-after)"
            ) from exc
    executed = 0
    for index, (count, payload) in enumerate(results):
        executed += count
        if telemetry.enabled:
            telemetry.absorb(index, f"worker-{index}", payload)
    return executed
