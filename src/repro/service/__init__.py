"""Exploration service: job store, worker pool, content-addressed cache.

Three layers (see the README architecture section):

* :mod:`repro.service.store` — persistence: content-addressed cache
  keys, :class:`JobRecord` rows with probe history, atomically written
  result envelopes;
* :mod:`repro.service.jobs` — lifecycle: queue tickets, claim/complete,
  crash-safe requeue, :func:`run_workers` drain loops (the caller plus
  a warm spawn pool) executing through :func:`repro.api.explore`;
* :mod:`repro.service.service` — the front door clients use:
  :class:`ExplorationService` with cache-first ``submit`` and the
  ``repro serve`` CLI behind it.
"""

from repro.service.jobs import DEFAULT_STALE_AFTER_S, JobQueue, run_workers
from repro.service.service import (
    STATS_FORMAT,
    STATS_SCHEMA_VERSION,
    SUBMIT_STATUSES,
    ExplorationService,
    SubmitOutcome,
)
from repro.service.store import (
    RECORD_FORMAT,
    RECORD_SCHEMA_VERSION,
    RECORD_STATES,
    JobRecord,
    ResultStore,
    compose_cache_key,
    instance_hash_for,
)

__all__ = [
    "DEFAULT_STALE_AFTER_S",
    "ExplorationService",
    "JobQueue",
    "JobRecord",
    "RECORD_FORMAT",
    "RECORD_SCHEMA_VERSION",
    "RECORD_STATES",
    "ResultStore",
    "STATS_FORMAT",
    "STATS_SCHEMA_VERSION",
    "SUBMIT_STATUSES",
    "SubmitOutcome",
    "compose_cache_key",
    "instance_hash_for",
    "run_workers",
]
