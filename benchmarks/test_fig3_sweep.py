"""E2 / Fig. 3 — execution/reconfiguration time and contexts vs FPGA size.

The paper averages 100 runs per size; this test runs 3.  For the
faithful (slow) version run ``repro sweep --runs 100`` with Fig. 3's
sizes as ``--sizes``.

Shape assertions (paper narrative):
* small devices are much slower than the best mid-size device;
* the execution-time curve has an interior minimum then a plateau;
* small devices use the most contexts, large devices the fewest.
"""

from repro.analysis.plot import plot_sweep
from repro.experiments.fig3 import FIG3_SIZES, format_fig3_table, run_fig3


def test_fig3_sweep():
    rows = run_fig3(
        sizes=FIG3_SIZES, runs=3, iterations=8000, warmup_iterations=1200,
        seed0=1,
    )
    print()
    print(format_fig3_table(rows))
    print()
    print(plot_sweep(rows))
    by_size = {row.n_clbs: row for row in rows}
    best = min(rows, key=lambda row: row.execution_ms)

    # Tiny devices cannot hold useful contexts: far slower than the best.
    assert by_size[100].execution_ms > best.execution_ms + 8.0
    # The minimum is interior (neither the smallest nor the largest size).
    assert best.n_clbs not in (FIG3_SIZES[0], FIG3_SIZES[-1])
    # Context counts fall steeply as devices grow.  (Deviation from the
    # paper: our model rewards pipelining reconfiguration under
    # processor work, so large devices keep a few contexts instead of
    # exactly one.)
    assert by_size[100].num_contexts > 2 * by_size[10000].num_contexts
    small_ctx = max(by_size[s].num_contexts for s in (400, 600, 800, 1000))
    assert small_ctx > by_size[10000].num_contexts
    # Total reconfiguration time stays roughly constant (within ~2x)
    # across the multi-context regime, as the paper observes.
    reconfigs = [
        by_size[s].reconfig_ms for s in (200, 400, 600, 800, 1000, 1500)
    ]
    assert max(reconfigs) < 2.5 * min(reconfigs)
    # The 2000-CLB platform of Fig. 2 meets the constraint on average.
    assert by_size[2000].execution_ms < 40.0
