"""Scenario corpus and the legacy benchmark harness.

The package imports none of its modules, so ``repro.bench.corpus``
loads without the harness.  Import each module by name:

* :mod:`repro.bench.corpus` — named, seed-deterministic scenario
  families; every scenario materializes to a hashed
  :class:`~repro.io.ProblemInstance`.
* :mod:`repro.bench.harness` — the :class:`BenchCase` protocol, case
  registry, and warmup/repeat timing with median/IQR and evals/sec.
* :mod:`repro.bench.report` — versioned ``BENCH_<suite>.json`` results
  documents and the ``compare()`` regression gate.
* :mod:`repro.bench.suites` — the registered cases (corpus throughput
  grid, multi-seed search, service and micro cases), grouped into
  ``quick``/``full`` suites; importing it registers them.

CLI: ``repro bench run|list|compare``.
"""
