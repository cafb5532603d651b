"""Runner tests: parallel/sequential equivalence and checkpoint resume.

These are the load-bearing guarantees of the parallel runner: for fixed
seeds, adding worker processes changes wall-clock only — never a single
bit of any result — and an interrupted batch picks up where it left off.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.errors import ConfigurationError
from repro.io import dump_solution
from repro.search.runner import (
    InstanceSpec,
    SearchJob,
    StrategySpec,
    best_evaluation_of,
    derive_seeds,
    run_search_jobs,
)


#: ``(base, n) -> seeds`` vectors recorded from NumPy's ``SeedSequence``.
SEED_VECTORS = json.loads(
    (Path(__file__).parent / "fixtures" / "seed_vectors.json").read_text()
)["vectors"]


def small_jobs(app, arch):
    """A mixed batch over the small fixture instance."""
    instance = InstanceSpec(app, architecture=arch)
    sa = StrategySpec("sa", {"iterations": 80, "warmup_iterations": 20})
    hill = StrategySpec("hill_climber", {"iterations": 60})
    random_spec = StrategySpec("random", {"samples": 25})
    return [
        SearchJob(sa, instance, seed=1, tag=["sa", 0]),
        SearchJob(sa, instance, seed=2, tag=["sa", 1]),
        SearchJob(hill, instance, seed=3, tag=["hill", 0]),
        SearchJob(random_spec, instance, seed=4, tag=["random", 0]),
    ]


def fingerprint(outcomes):
    return [
        (
            o.index,
            o.tag,
            o.seed,
            o.result.best_cost,
            o.result.history,
            dump_solution(o.result.best_solution),
        )
        for o in outcomes
    ]


class TestParallelEquivalence:
    def test_parallel_results_bit_identical(self, small_app, small_arch):
        jobs = small_jobs(small_app, small_arch)
        sequential = run_search_jobs(jobs, jobs=1)
        parallel = run_search_jobs(jobs, jobs=2)
        assert fingerprint(sequential) == fingerprint(parallel)

    def test_outcomes_in_submission_order(self, small_app, small_arch):
        outcomes = run_search_jobs(small_jobs(small_app, small_arch), jobs=2)
        assert [o.index for o in outcomes] == [0, 1, 2, 3]
        assert [o.tag for o in outcomes] == [
            ["sa", 0], ["sa", 1], ["hill", 0], ["random", 0],
        ]

    def test_inline_jobs_isolated_from_caller(self, small_app, small_arch):
        """The caller's objects are never mutated, even inline."""
        before = dump_solution(
            run_search_jobs(
                small_jobs(small_app, small_arch), jobs=1
            )[0].result.best_solution
        )
        again = dump_solution(
            run_search_jobs(
                small_jobs(small_app, small_arch), jobs=1
            )[0].result.best_solution
        )
        assert before == again

    def test_rejects_bad_job_count(self, small_app, small_arch):
        with pytest.raises(ConfigurationError):
            run_search_jobs(small_jobs(small_app, small_arch), jobs=0)

    def test_unknown_kind_rejected(self, small_app, small_arch):
        bad = SearchJob(
            StrategySpec("gradient_descent"),
            InstanceSpec(small_app, architecture=small_arch),
        )
        with pytest.raises(ConfigurationError):
            run_search_jobs([bad])

    def test_misspelled_option_rejected(self, small_app, small_arch):
        """A typo must fail loudly, not run a different experiment."""
        bad = SearchJob(
            StrategySpec("sa", {"warmup": 100, "iterations": 50}),
            InstanceSpec(small_app, architecture=small_arch),
        )
        with pytest.raises(ConfigurationError, match="warmup"):
            run_search_jobs([bad])


class TestSeeds:
    def test_derive_seeds_deterministic(self):
        assert derive_seeds(42, 5) == derive_seeds(42, 5)
        assert derive_seeds(42, 5) != derive_seeds(43, 5)
        assert len(set(derive_seeds(0, 100))) == 100

    def test_derive_seeds_are_pinned(self):
        """The derived seeds key every unseeded job's trajectory, so the
        stream itself is pinned: any other derivation would silently
        change every derived-seed result."""
        assert derive_seeds(0, 3) == [3757552657, 673228719, 3241444873]

    @pytest.mark.parametrize(
        "vector",
        SEED_VECTORS,
        ids=[f"{v['base'].bit_length()}bit-n{v['n']}" for v in SEED_VECTORS],
    )
    def test_derive_seeds_match_numpy(self, vector):
        """Bit-for-bit NumPy: the vectors were recorded from
        ``numpy.random.SeedSequence`` (multi-word bases included)."""
        assert derive_seeds(vector["base"], vector["n"]) == vector["seeds"]

    @pytest.mark.parametrize("base", [None, -1, 1.5, "3"])
    def test_derive_seeds_rejects_non_int_base(self, base):
        """A missing seed must not fall back to fresh OS entropy."""
        with pytest.raises(ConfigurationError, match="base seed"):
            derive_seeds(base, 3)

    def test_runs_without_numpy(self):
        """No runtime dependency: with every ``numpy`` import refused,
        ``repro`` imports, derives the pinned seeds and runs a two-seed
        batch, and nothing has loaded NumPy."""
        script = textwrap.dedent(
            """
            import sys

            class RefuseNumpy:
                def find_spec(self, name, path=None, target=None):
                    if name.partition(".")[0] == "numpy":
                        raise ModuleNotFoundError(f"No module named {name!r}")

            sys.meta_path.insert(0, RefuseNumpy())
            import repro

            assert repro.derive_seeds(0, 3) == [
                3757552657, 673228719, 3241444873,
            ]
            response = repro.explore(repro.ExplorationRequest(
                kind="batch",
                seeds=(1, 2),
                budget=repro.BudgetSpec(iterations=200, warmup_iterations=50),
            ))
            assert response.summary["runs"] == 2, response.summary
            assert "numpy" not in sys.modules
            """
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(
            os.environ,
            PYTHONPATH=src + (os.pathsep + path if path else ""),
        )
        child = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True,
        )
        assert child.returncode == 0, child.stderr

    def test_unseeded_jobs_get_position_stable_seeds(
        self, small_app, small_arch
    ):
        instance = InstanceSpec(small_app, architecture=small_arch)
        spec = StrategySpec("random", {"samples": 10})
        jobs = [SearchJob(spec, instance) for _ in range(3)]
        a = run_search_jobs(jobs, jobs=1)
        b = run_search_jobs(jobs, jobs=2)
        assert all(o.seed is not None for o in a)
        assert [o.seed for o in a] == [o.seed for o in b]
        assert fingerprint(a) == fingerprint(b)


class TestCheckpoint:
    def test_round_trip_restores_everything(
        self, small_app, small_arch, tmp_path
    ):
        path = str(tmp_path / "ck.jsonl")
        jobs = small_jobs(small_app, small_arch)
        fresh = run_search_jobs(jobs, jobs=1, checkpoint_path=path)
        assert not any(o.from_checkpoint for o in fresh)
        resumed = run_search_jobs(jobs, jobs=1, checkpoint_path=path)
        assert all(o.from_checkpoint for o in resumed)
        assert fingerprint(fresh) == fingerprint(resumed)

    def test_partial_checkpoint_completes_rest(
        self, small_app, small_arch, tmp_path
    ):
        path = str(tmp_path / "ck.jsonl")
        jobs = small_jobs(small_app, small_arch)
        fresh = run_search_jobs(jobs, jobs=1, checkpoint_path=path)
        lines = open(path).read().splitlines()
        with open(path, "w") as handle:
            handle.write("\n".join(lines[:2]) + "\n")
        resumed = run_search_jobs(jobs, jobs=1, checkpoint_path=path)
        assert [o.from_checkpoint for o in resumed] == [
            True, True, False, False,
        ]
        assert fingerprint(fresh) == fingerprint(resumed)
        # the re-run jobs were appended, so a third pass is all-cached
        third = run_search_jobs(jobs, jobs=1, checkpoint_path=path)
        assert all(o.from_checkpoint for o in third)

    def test_changed_options_invalidate_checkpoint(
        self, small_app, small_arch, tmp_path
    ):
        """Same kind+seed but different knobs must recompute — a resumed
        sweep with more iterations must not reuse short-run results."""
        path = str(tmp_path / "ck.jsonl")
        instance = InstanceSpec(small_app, architecture=small_arch)
        short = [SearchJob(
            StrategySpec("sa", {"iterations": 40, "warmup_iterations": 10}),
            instance, seed=1,
        )]
        long_run = [SearchJob(
            StrategySpec("sa", {"iterations": 80, "warmup_iterations": 10}),
            instance, seed=1,
        )]
        run_search_jobs(short, jobs=1, checkpoint_path=path)
        resumed = run_search_jobs(long_run, jobs=1, checkpoint_path=path)
        assert resumed[0].from_checkpoint is False
        assert resumed[0].result.iterations_run == 80

    def test_stale_rows_are_recomputed(self, small_app, small_arch, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        jobs = small_jobs(small_app, small_arch)
        run_search_jobs(jobs, jobs=1, checkpoint_path=path)
        rows = [json.loads(line) for line in open(path)]
        rows[0]["seed"] = 999  # pretend the batch definition changed
        with open(path, "w") as handle:
            for row in rows:
                handle.write(json.dumps(row) + "\n")
        resumed = run_search_jobs(jobs, jobs=1, checkpoint_path=path)
        assert resumed[0].from_checkpoint is False
        assert all(o.from_checkpoint for o in resumed[1:])


class TestBestEvaluationOf:
    def test_matches_best_cost(self, small_app, small_arch):
        outcome = run_search_jobs(
            small_jobs(small_app, small_arch), jobs=1
        )[0]
        evaluation = best_evaluation_of(outcome.result)
        assert evaluation.makespan_ms == pytest.approx(
            outcome.result.best_cost
        )
