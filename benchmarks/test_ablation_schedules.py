"""A1 — cooling-schedule ablation at an equal move budget.

The adaptive (Lam) schedule needs no per-problem tuning yet must stay
competitive with modified-Lam, untuned geometric, zero-temperature hill
climbing and random restart.
"""

from repro.experiments.ablations import (
    format_schedule_ablation,
    run_schedule_ablation,
)


def test_schedule_ablation():
    rows = run_schedule_ablation(
        n_clbs=2000, iterations=8000, warmup=1200, runs=3
    )
    print()
    print(format_schedule_ablation(rows))
    mean = {row.method: row.makespan.mean for row in rows}

    # Both annealers must decisively beat blind random restarts.
    assert mean["lam"] < mean["random_search"] - 5.0
    # The adaptive schedule is at least competitive with hill climbing
    # (temperature must not hurt).
    assert mean["lam"] <= mean["hill_climb"] + 3.0
    # And it meets the paper's real-time constraint on average.
    assert mean["lam"] < 40.0
