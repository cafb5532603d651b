"""Engine benchmark — evaluations/sec, full rebuild vs incremental.

Instances come from the scenario corpus (:mod:`repro.bench.corpus`) and
the annealer-shaped move/evaluate/undo loop is
:func:`repro.bench.harness.move_eval_loop` — the same loop the
``throughput/*`` suite cases record to ``BENCH_<suite>.json``.  Bitwise
engine parity on these instances is a tier-1 test
(``tests/mapping/test_engine_parity.py``).

Run with ``pytest benchmarks/bench_engine.py -s`` to see the table.

Environment knobs: ``REPRO_BENCH_ENGINE_EVALS`` (evaluations per
measurement, default 3000), ``REPRO_BENCH_ENGINE_REPS`` (repetitions,
median reported, default 3).
"""

import os
import statistics

from repro.bench.corpus import get_scenario
from repro.bench.harness import move_eval_loop

N_EVALS = int(os.environ.get("REPRO_BENCH_ENGINE_EVALS", 3000))
REPS = int(os.environ.get("REPRO_BENCH_ENGINE_REPS", 3))

#: Corpus scenarios spanning the size axis of the original table.
SCENARIOS = ("tgff/12", "tgff/36", "tgff/120", "motion/2000")


def _evals_per_sec(instance, engine, n_evals, seed=7):
    out = move_eval_loop(
        instance, engine, n_evals, seed=seed, time_evals_only=True
    )
    return out["evaluations"] / out["eval_elapsed_s"]


def test_engine_throughput():
    """The headline table: evaluations/sec per engine and instance."""
    print()
    print("engine throughput (evaluations/sec, move-evaluate-undo loop, "
          f"median of {REPS})")
    header = (f"{'instance':<20} {'full':>9} {'incremental':>12} "
              f"{'inc/full':>9}")
    print(header)
    print("-" * len(header))
    inc_speedups = {}
    for name in SCENARIOS:
        instance = get_scenario(name).build()
        full = statistics.median(
            _evals_per_sec(instance, "full", N_EVALS) for _ in range(REPS)
        )
        inc = statistics.median(
            _evals_per_sec(instance, "incremental", N_EVALS)
            for _ in range(REPS)
        )
        inc_speedups[name] = inc / full
        print(f"{name:<20} {full:>9.0f} {inc:>12.0f} {inc / full:>8.2f}x")
    # The delta engine must win decisively over the rebuild reference
    # everywhere.
    for name, factor in inc_speedups.items():
        assert factor > 1.5, f"{name}: only {factor:.2f}x over full"

