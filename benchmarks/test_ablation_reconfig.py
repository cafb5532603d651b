"""Partial vs full reconfiguration ablation.

The paper's model is *partially* reconfigurable (section 3.2), in
contrast to full-device approaches in its related work (Chatha &
Vemuri [5]); this quantifies the gap.
"""

from repro.experiments.ablations import (
    format_reconfig_ablation,
    run_reconfig_ablation,
)


def test_partial_vs_full_reconfiguration():
    rows = run_reconfig_ablation(
        iterations=8000, warmup=1200, runs=3, seed0=31
    )
    print()
    print(format_reconfig_ablation(rows))

    # Whole-fabric reconfiguration (45 ms per context switch!) must hurt
    # badly: the optimizer either collapses to very few contexts or eats
    # the makespan penalty.  Partial reconfiguration must win clearly.
    assert rows["partial"]["exec_mean"] < rows["full"]["exec_mean"] - 3.0
    # Full-reconfig solutions avoid context switching.
    assert (
        rows["full"]["contexts_mean"]
        <= rows["partial"]["contexts_mean"] + 0.5
    )
