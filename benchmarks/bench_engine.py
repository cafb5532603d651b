"""Engine benchmark — evaluations/sec, full rebuild vs incremental.

Thin shim over the bench subsystem: instances come from the scenario
corpus (:mod:`repro.bench.corpus`) and the annealer-shaped
move/evaluate/undo loop is :func:`repro.bench.move_eval_loop` — the
same loop the ``throughput/*`` suite cases record to
``BENCH_<suite>.json``.  Parity is asserted on every single evaluation:
the incremental engine must produce bit-identical makespans while being
several times faster.

Run with ``pytest benchmarks/bench_engine.py -s`` to see the table.

Environment knobs: ``REPRO_BENCH_ENGINE_EVALS`` (evaluations per
measurement, default 3000), ``REPRO_BENCH_ENGINE_REPS`` (repetitions,
median reported, default 3), ``REPRO_BENCH_ENGINE_ASSERT=0`` (report
the table without asserting wall-clock speedup factors — for CI
runners, where scheduler noise makes timing assertions flaky; the
bitwise-parity test is never relaxed).
"""

import os
import random
import statistics

from repro.bench import get_scenario, move_eval_loop
from repro.errors import InfeasibleMoveError
from repro.mapping.evaluator import Evaluator
from repro.mapping.solution import random_initial_solution
from repro.sa.moves import MoveGenerator

N_EVALS = int(os.environ.get("REPRO_BENCH_ENGINE_EVALS", 3000))
REPS = int(os.environ.get("REPRO_BENCH_ENGINE_REPS", 3))
ASSERT_SPEEDUP = os.environ.get("REPRO_BENCH_ENGINE_ASSERT", "1") != "0"

#: Corpus scenarios spanning the size axis of the original table.
SCENARIOS = ("tgff/12", "tgff/36", "tgff/120", "motion/2000")


def _evals_per_sec(instance, engine, n_evals, seed=7):
    out = move_eval_loop(
        instance, engine, n_evals, seed=seed, time_evals_only=True
    )
    return out["evaluations"] / out["eval_elapsed_s"]


def _parity_makespans(instance, steps, seed=7):
    """Replay one move stream through both engines; returns the number
    of bit-identical makespan comparisons performed."""
    app, arch = instance.application, instance.architecture
    full = Evaluator(app, arch, engine="full")
    inc = Evaluator(app, arch, engine="incremental")
    rng = random.Random(seed)
    solution = random_initial_solution(app, arch, rng, hw_fraction=0.5)
    generator = MoveGenerator(app)
    n = 0
    while n < steps:
        try:
            move = generator.propose(solution, rng)
            move.apply(solution)
        except InfeasibleMoveError:
            continue
        reference = full.evaluate(solution)
        assert reference == inc.evaluate(solution)
        n += 1
        if rng.random() < 0.5:
            move.undo(solution)
    return n


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
    # everywhere.  Timing assertions are skipped on noisy runners via
    # REPRO_BENCH_ENGINE_ASSERT=0.
    if ASSERT_SPEEDUP:
        for name, factor in inc_speedups.items():
            assert factor > 1.5, f"{name}: only {factor:.2f}x over full"


def test_engine_parity_is_bit_identical():
    """Every benchmarked instance: makespans agree bitwise throughout."""
    for name in SCENARIOS:
        instance = get_scenario(name).build()
        compared = _parity_makespans(instance, steps=300)
        assert compared == 300, name
