"""E3 — adaptive SA vs the GA baseline of Ben Chehida & Auguin [6].

Thin shim over the registered case ``experiment/comparison``
(:mod:`repro.bench.suites`).  Paper numbers on the motion-detection
benchmark (2000-CLB device): GA 28 ms in ~4 minutes vs adaptive SA
18.1 ms in <10 s.  The shape to reproduce: SA at least matches GA
quality and is markedly faster.
"""

from benchmarks.conftest import run_case_via


def test_sa_vs_ga(benchmark):
    metrics = run_case_via(benchmark, "experiment/comparison")

    assert metrics["sa_makespan_ms"] <= metrics["ga_makespan_ms"] + 1e-9, (
        "SA must match or beat the GA flow"
    )
    # Paper: 4 min vs <10 s (~24x).  Our reimplemented GA memoizes
    # duplicate chromosomes and runs on 2026 hardware, so the ratio is
    # smaller, but SA must still be clearly faster at equal-or-better
    # quality.
    assert metrics["speedup"] > 2.0, "SA must be markedly faster than the GA"
    assert metrics["sa_makespan_ms"] < metrics["deadline_ms"]
    assert metrics["sa_runtime_s"] < 10.0, "the paper's run takes < 10 s"
