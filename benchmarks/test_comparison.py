"""E3 — adaptive SA vs the GA baseline of Ben Chehida & Auguin [6].

Paper numbers on the motion-detection benchmark (2000-CLB device): GA
28 ms in ~4 minutes vs adaptive SA 18.1 ms in <10 s.  The shape to
reproduce: SA at least matches GA quality and is markedly faster.  Both
tests share one run; the wall-clock one depends on the machine.
"""

import pytest

from repro.experiments.comparison import run_comparison


@pytest.fixture(scope="module")
def result():
    return run_comparison(
        n_clbs=2000, sa_iterations=8000, sa_warmup=1200, ga_population=300,
        ga_generations=60, seed=11,
    )


def test_sa_vs_ga(result):
    print()
    print(result.format_table())
    print(f"evaluations: SA {result.sa_evaluations}, "
          f"GA {result.ga_evaluations}")

    assert result.sa_makespan_ms <= result.ga_makespan_ms + 1e-9, (
        "SA must match or beat the GA flow"
    )
    assert result.sa_makespan_ms < result.deadline_ms
    assert result.sa_evaluations < result.ga_evaluations, (
        "SA must need less work than the GA"
    )


def test_sa_vs_ga_wall_clock(result):
    # Paper: 4 min vs <10 s (~24x).  Our reimplemented GA memoizes
    # duplicate chromosomes and runs on 2026 hardware, so the ratio is
    # smaller, but SA must still be clearly faster at equal-or-better
    # quality.
    assert result.speedup > 2.0, "SA must be markedly faster than the GA"
    assert result.sa_runtime_s < 10.0, "the paper's run takes < 10 s"
