"""Device-sweep parallelism: jobs=N must not change a single row."""

from repro.analysis.sweep import run_device_sweep


SWEEP_KWARGS = dict(
    sizes=(300, 600), runs=2, iterations=120, warmup_iterations=30, seed0=3
)


class TestParallelSweep:
    def test_rows_bit_identical_across_job_counts(self, small_app):
        sequential = run_device_sweep(small_app, jobs=1, **SWEEP_KWARGS)
        parallel = run_device_sweep(small_app, jobs=2, **SWEEP_KWARGS)
        assert sequential == parallel  # frozen dataclass field equality

    def test_checkpoint_resume_gives_same_rows(self, small_app, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        fresh = run_device_sweep(
            small_app, jobs=1, checkpoint_path=path, **SWEEP_KWARGS
        )
        resumed = run_device_sweep(
            small_app, jobs=1, checkpoint_path=path, **SWEEP_KWARGS
        )
        assert fresh == resumed
