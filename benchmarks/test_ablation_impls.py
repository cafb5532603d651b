"""A3 — multi-implementation (area/time Pareto) exploration ablation.

What the 5-6 dominant implementations per function buy against
freezing every hardware task to its smallest or fastest variant.
"""

from repro.experiments.ablations import format_ablation, run_impl_ablation


def test_implementation_choice_ablation():
    results = run_impl_ablation(
        n_clbs=2000, iterations=8000, warmup=1200, runs=3
    )
    print()
    print(format_ablation(
        "Implementation-selection ablation (motion, 2000 CLBs)", results
    ))

    # Free choice must not lose to either frozen policy by a margin.
    frozen_best = min(results["smallest"].mean, results["fastest"].mean)
    assert results["free"].mean <= frozen_best + 2.0
    assert results["free"].mean < 40.0
