"""Runner benchmark — parallel sweep scaling and bit-identity.

The same Fig. 3-style device sweep with ``jobs=1`` and ``jobs=N``
(N = CPU count, capped at 4).  The rows must be identical — parallelism
is a wall-clock knob, never a results knob.

Run with ``pytest benchmarks/bench_runner.py -s`` to see the timings.

Environment knobs: ``REPRO_BENCH_RUNNER_RUNS`` (runs per size, default
4), ``REPRO_BENCH_RUNNER_ITERS`` (annealer iterations per run, default
4000), ``REPRO_BENCH_RUNNER_ASSERT=0`` (report without asserting the
speedup floor; row identity is never relaxed).
"""

import os
import time

from repro.analysis.sweep import run_device_sweep
from repro.model.motion import motion_detection_application

RUNS = int(os.environ.get("REPRO_BENCH_RUNNER_RUNS", "4"))
ITERATIONS = int(os.environ.get("REPRO_BENCH_RUNNER_ITERS", "4000"))
ASSERT = os.environ.get("REPRO_BENCH_RUNNER_ASSERT", "1") != "0"
#: With >= 4 physical cores, a 4-worker sweep of this shape should be
#: at least this much faster than sequential (spawn + pickling margin).
SPEEDUP_FLOOR = 2.5


def test_parallel_sweep_scaling():
    application = motion_detection_application()
    workers = min(os.cpu_count() or 1, 4)
    kwargs = dict(
        sizes=(400, 800, 2000),
        runs=RUNS,
        iterations=ITERATIONS,
        warmup_iterations=min(1200, max(1, ITERATIONS // 4)),
        seed0=1,
        engine="incremental",
    )
    started = time.perf_counter()
    sequential = run_device_sweep(application, jobs=1, **kwargs)
    t_seq = time.perf_counter() - started
    started = time.perf_counter()
    parallel = run_device_sweep(application, jobs=workers, **kwargs)
    t_par = time.perf_counter() - started
    speedup = t_seq / max(t_par, 1e-9)
    print()
    print(f"device sweep: 3 sizes x {RUNS} runs x {ITERATIONS} iterations")
    print(f"{'jobs':>6} {'wall (s)':>10}")
    print(f"{1:>6} {t_seq:>10.2f}")
    print(f"{workers:>6} {t_par:>10.2f}")
    print(f"speedup: {speedup:.2f}x on {os.cpu_count()} visible cores")

    assert sequential == parallel, "parallel rows must be bit-identical"
    if ASSERT and (os.cpu_count() or 1) >= 4 and workers >= 4:
        assert speedup >= SPEEDUP_FLOOR, (
            f"expected >= {SPEEDUP_FLOOR}x with {workers} "
            f"workers, got {speedup:.2f}x"
        )
