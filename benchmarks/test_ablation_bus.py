"""Bus-policy ablation — serialized transactions vs plain edge delays.

Section 3.3 requires a total order on shared-medium transactions; this
asserts that ignoring contention can only look faster.
"""

from repro.experiments.ablations import format_ablation, run_bus_ablation


def test_bus_policy_ablation():
    results = run_bus_ablation(
        n_clbs=2000, iterations=8000, warmup=1200, runs=3
    )
    print()
    print(format_ablation(
        "Bus-policy ablation (motion detection, 2000 CLBs)", results
    ))

    # Both policies solve the problem; the contention-free relaxation
    # may be at most marginally "faster" (it under-models the bus).
    assert results["ordered"].mean < 40.0
    assert results["edge"].mean < 40.0
    assert results["edge"].mean <= results["ordered"].mean + 3.0
