"""Unified search subsystem: one strategy vocabulary, one runner.

Every optimizer in this library — the paper's adaptive simulated
annealing and the four baselines it is compared against — implements the
same :class:`~repro.search.strategy.SearchStrategy` protocol: give it an
(optional) initial solution, it returns a
:class:`~repro.search.strategy.SearchResult` with the best solution and
cost, a monotone best-so-far history, the iteration count, the runtime
and per-strategy extras.  Budgets (iterations / wall-clock / stall) are
expressed once through :class:`~repro.search.strategy.SearchBudget`, and
a step callback exposes every iteration to tracing tools.

On top of that sits :mod:`repro.search.runner`: a batch of
``(strategy-spec, instance, seed)`` jobs executed across worker
processes with spawn-safe job specs, per-job seeds derived by a
pure-Python port of NumPy's ``SeedSequence`` and an optional JSONL
checkpoint so long sweeps can resume.
Parallel results are bit-identical to sequential ones for fixed seeds.
:mod:`repro.search.portfolio` races several strategies on one instance
and reports the winner.
"""
