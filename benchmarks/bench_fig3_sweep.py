"""E2 / Fig. 3 — execution/reconfiguration time and contexts vs FPGA size.

Thin shim over the registered case ``experiment/fig3_sweep``
(:mod:`repro.bench.suites`).  The paper averages 100 runs per size; set
``REPRO_BENCH_RUNS=100`` for the faithful (slow) version.

Shape assertions (paper narrative):
* small devices are much slower than the best mid-size device;
* the execution-time curve has an interior minimum then a plateau;
* small devices use the most contexts, large devices a single one.
"""

from benchmarks.conftest import run_case_via


def test_fig3_sweep(benchmark):
    metrics = run_case_via(benchmark, "experiment/fig3_sweep")
    rows = metrics["rows"]
    sizes = metrics["sizes"]
    best = min(rows.values(), key=lambda row: row["execution_ms"])

    # Tiny devices cannot hold useful contexts: far slower than the best.
    assert rows["100"]["execution_ms"] > best["execution_ms"] + 8.0
    # The minimum is interior (neither the smallest nor the largest size).
    assert metrics["best_n_clbs"] not in (sizes[0], sizes[-1])
    # Context counts fall steeply as devices grow.  (Deviation from the
    # paper: our model rewards pipelining reconfiguration under
    # processor work, so large devices keep a few contexts instead of
    # exactly one.)
    assert rows["100"]["num_contexts"] > 2 * rows["10000"]["num_contexts"]
    small_ctx = max(
        rows[str(s)]["num_contexts"] for s in (400, 600, 800, 1000)
    )
    assert small_ctx > rows["10000"]["num_contexts"]
    # Total reconfiguration time stays roughly constant (within ~2x)
    # across the multi-context regime, as the paper observes.
    reconfigs = [
        rows[str(s)]["reconfig_ms"] for s in (200, 400, 600, 800, 1000, 1500)
    ]
    assert max(reconfigs) < 2.5 * min(reconfigs)
    # The 2000-CLB platform of Fig. 2 meets the constraint on average.
    assert rows["2000"]["execution_ms"] < 40.0
