"""Tiny-scale smoke tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest -q perfbench/tests

Every workload runs one round at a small search budget (the paper
budget is a module constant the tests shrink), so the whole file takes
well under a minute.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import workloads  # noqa: E402

WORKLOAD_NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture
def tiny(monkeypatch):
    """One round per workload at a budget of a few dozen iterations."""
    small = {
        name: dataclasses.replace(
            workload, iterations=40, nominal_s=1.0, min_rounds=1
        )
        for name, workload in workloads.WORKLOADS.items()
    }
    monkeypatch.setattr(workloads, "WORKLOADS", small)
    monkeypatch.setattr(workloads, "REPLAY_PER_INSTANCE", 1)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


def _run(capsys, *argv):
    code = run.main([*argv, "--seconds", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_end_to_end_metric_is_printed(tiny, capsys, name):
    code, lines, result = _run(
        capsys, "--workload", name, "--seed", "5", "--trace", "0"
    )
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == dict(
        run.END_TO_END
    )
    for metric, unit in run.END_TO_END:
        value = result["metrics"][metric]["value"]
        assert value > 0, metric
        assert any(
            line.split()[:1] == [metric] and f" {unit}  (n=" in line
            for line in lines
        ), metric


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_run_prints_every_per_layer_metric(tiny, capsys, name):
    code, lines, result = _run(
        capsys, "--workload", name, "--seed", "5", "--trace", "1"
    )
    assert code == 0 and result["correct"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == dict(
        run.PER_LAYER
    )
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    assert metrics["search.evaluations"] > 0
    assert any(line.startswith("tracing overhead") for line in lines)
    assert not any(line.startswith("not traced") for line in lines)
    if name.startswith("explore"):
        # the wrapped layers account for the request's wall time
        assert 0.9 <= metrics["trace.self_sum_ratio"] <= 1.0
        assert metrics["mapping.engine.evaluate.calls"] > 0 or (
            metrics["mapping.engine.propose_moves.busy_s"] > 0
        )
    else:
        assert metrics["service.service.warm_start_ratio"] == 1.0
        assert metrics["service.jobs.execute_s.p50"] > 0
    assert os.path.exists(
        os.path.join(ROOT, ".bench_out", f"spans-{name}.jsonl.gz")
    )


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER
    )


@pytest.fixture
def references(monkeypatch, tmp_path):
    """A scratch copy of the committed references, used by the run."""
    path = tmp_path / "references.json"
    shutil.copy(run.DEFAULT_REFERENCES, path)
    monkeypatch.setattr(run, "DEFAULT_REFERENCES", str(path))
    return path


def test_corrupted_scenario_hash_fails_the_run(tiny, capsys, references):
    data = json.loads(references.read_text())
    data["scenario_hashes"]["motion/2000"] = "0" * 64
    references.write_text(json.dumps(data))
    code, _, result = _run(
        capsys, "--workload", "explore-motion", "--seed", "5",
    )
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1


def test_results_repeat_and_a_corrupted_reference_fails(tiny, capsys, references):
    seed = str(json.loads(references.read_text())["seed"])
    common = ("--workload", "explore-tempering", "--seed", seed)
    code, _, _ = _run(capsys, *common, "--record-references")
    assert code == 0
    code, _, result = _run(capsys, *common)
    assert code == 0 and result["correct"]  # same seed, same results

    data = json.loads(references.read_text())
    data["results"]["explore-tempering"][0][2] += 1e-9
    references.write_text(json.dumps(data))
    code, _, result = _run(capsys, *common)
    assert code != 0
    assert result["failed"] == 1


def test_missing_references_fail_at_the_reference_seed(tiny, capsys, references):
    data = json.loads(references.read_text())
    del data["results"]["explore-tempering"]
    references.write_text(json.dumps(data))
    code, _, result = _run(
        capsys, "--workload", "explore-tempering", "--seed", str(data["seed"]),
    )
    assert code != 0
    assert result["failed"] == 1


def test_recording_at_another_seed_is_refused(tiny, capsys, references):
    before = references.read_text()
    seed = json.loads(before)["seed"] + 1
    code = run.main(["--workload", "explore-tempering", "--seed", str(seed),
                     "--seconds", "0", "--record-references"])
    assert code != 0
    assert references.read_text() == before


def test_tracer_lists_a_deleted_layer_as_not_traced(monkeypatch):
    import repro.mapping.engine as engine
    from spans import Tracer

    monkeypatch.delattr(engine, "CrossChainEvaluator")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert "repro.mapping.engine.CrossChainEvaluator" in tracer.missing


_DRAIN_AND_EXIT = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import run
from multiprocessing import resource_tracker
from repro.service.jobs import run_workers
from repro.service.service import ExplorationService
ExplorationService({store!r})
run_workers({store!r}, workers=2)
print(resource_tracker._resource_tracker._pid)
"""


def test_no_process_outlives_a_spawned_drain(tmp_path):
    script = _DRAIN_AND_EXIT.format(
        src=os.path.join(ROOT, "src"), bench=BENCH, store=str(tmp_path / "s"),
    )
    child = subprocess.run([sys.executable, "-c", script],
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stderr == ""
    tracker = int(child.stdout.split()[-1])
    with pytest.raises(ProcessLookupError):
        os.kill(tracker, 0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "explore-motion",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert "correct" not in child.stdout
