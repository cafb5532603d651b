"""Benchmark-suite configuration.

The measurement bodies live in :mod:`repro.bench.suites`; these scripts
are thin shims that execute the registered cases and assert the paper's
narrative on the returned metrics.  ``bench_context`` translates the
historical environment knobs into a :class:`repro.bench.BenchContext`:

* ``REPRO_BENCH_RUNS``   — repetitions per configuration (default 3;
  the paper's Fig. 3 uses 100 — set it that high for a faithful rerun).
* ``REPRO_BENCH_ITERS``  — annealing iterations per run (default 8000).
* ``REPRO_BENCH_JOBS``   — worker processes for multi-seed cases
  (default 1).

Every bench prints the paper-style table it regenerates, so
``pytest benchmarks/ --benchmark-only -s`` doubles as the experiment
report generator.
"""

import os

import pytest

from repro.bench import BenchContext, get_case


def bench_runs(default: int = 3) -> int:
    return int(os.environ.get("REPRO_BENCH_RUNS", default))


def bench_iters(default: int = 8000) -> int:
    return int(os.environ.get("REPRO_BENCH_ITERS", default))


def bench_jobs(default: int = 1) -> int:
    return int(os.environ.get("REPRO_BENCH_JOBS", default))


def bench_context(**overrides) -> BenchContext:
    """The full-scale context the shims hand to their registered case."""
    knobs = dict(
        suite="full",
        iterations=bench_iters(),
        runs=bench_runs(),
        jobs=bench_jobs(),
    )
    knobs.update(overrides)
    return BenchContext(**knobs)


def run_case_via(benchmark, case_name: str, **overrides) -> dict:
    """Execute one registered case once under pytest-benchmark's timer,
    print its report, and return its metrics."""
    context = bench_context(**overrides)
    case = get_case(case_name)
    state = case.prepare(context)
    metrics = dict(
        benchmark.pedantic(
            lambda: case.run(context, state), rounds=1, iterations=1
        )
    )
    report = metrics.pop("report", None)
    if report:
        print()
        print(report)
    return metrics


@pytest.fixture(scope="session")
def runs() -> int:
    return bench_runs()


@pytest.fixture(scope="session")
def iters() -> int:
    return bench_iters()
