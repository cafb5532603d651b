"""The designer's quality/time knob (paper abstract, section 4.1).

Slower cooling (a smaller Lam ``lambda_rate``) runs longer and never
ends up worse on average.
"""

from repro.experiments.quality import format_quality_table, run_quality_knob


def test_quality_knob():
    rows = run_quality_knob(lambda_rates=(0.4, 0.1, 0.025), runs=3)
    print()
    print(format_quality_table(rows))
    by_rate = {row.lambda_rate: row for row in rows}

    # Slower cooling spends more iterations...
    assert by_rate[0.025].mean_iterations > by_rate[0.4].mean_iterations
    # ...and buys at least as good a solution (with slack for noise).
    assert (
        by_rate[0.025].makespan.mean <= by_rate[0.4].makespan.mean + 1.5
    )
    # Every setting still meets the paper's constraint on average.
    for row in rows:
        assert row.makespan.mean < 40.0
