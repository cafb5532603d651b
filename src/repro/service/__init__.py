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
