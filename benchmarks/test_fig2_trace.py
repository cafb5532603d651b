"""E1 / Fig. 2 — evolution of execution time and number of contexts.

One annealing run on the motion-detection application with a 2000-CLB
device, at the paper's budget: infinite-temperature wandering for the
warmup phase, then a fast drop below the 40 ms constraint, freezing
well under it with a handful of contexts.
"""

from repro.experiments.fig2 import run_fig2


def test_fig2_trace():
    result = run_fig2(
        n_clbs=2000, iterations=8000, warmup_iterations=1200, seed=7
    )
    print()
    print(result.format_report())
    final = result.final_evaluation
    lo, hi = result.warmup_spread()

    assert hi - lo > 5.0, "warmup phase must explore broadly"
    assert final.makespan_ms < result.deadline_ms, (
        "frozen solution must meet 40 ms"
    )
    assert final.num_contexts >= 1
    assert result.iterations_to_deadline() is not None
    assert result.initial_evaluation.makespan_ms > final.makespan_ms, (
        "optimization must improve on the random initial solution"
    )
