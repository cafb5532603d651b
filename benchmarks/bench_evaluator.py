"""Solution-evaluation throughput on the motion benchmark.

Thin shim over the ``kernel/solution_evaluation`` case
(:mod:`repro.bench.suites`): the throughput of the full
solution-evaluation pipeline (paper section 4.4) on the motion
benchmark.
"""

from benchmarks.conftest import run_case_via


def test_solution_evaluation_throughput(benchmark):
    metrics = run_case_via(benchmark, "kernel/solution_evaluation")
    assert metrics["makespan_ms"] > 0
