"""CLI tests (small budgets, output captured via capsys)."""

import json

import pytest

from repro.cli import main
from repro.io import dump_application, load_solution
from repro.model.generator import GeneratorConfig, random_application
from repro.model.motion import motion_detection_application
from repro.arch.architecture import epicure_architecture


class TestInfo:
    def test_default_benchmark(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "motion_detection" in out
        assert "76.40 ms" in out
        assert "348,840" in out  # solution-space report

    def test_custom_application_file(self, tmp_path, capsys):
        app = random_application(GeneratorConfig(num_tasks=8), seed=1)
        path = tmp_path / "app.json"
        path.write_text(dump_application(app))
        assert main(["info", "--application", str(path)]) == 0
        assert app.name in capsys.readouterr().out


class TestExplore:
    def test_basic_run(self, capsys):
        assert main([
            "explore", "--iterations", "400", "--warmup", "80",
            "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "best mapping" in out
        assert "reconfiguration" in out

    def test_plot_gantt_and_save(self, tmp_path, capsys):
        save = tmp_path / "solution.json"
        assert main([
            "explore", "--iterations", "400", "--warmup", "80",
            "--seed", "1", "--plot", "--gantt", "--save", str(save),
        ]) == 0
        out = capsys.readouterr().out
        assert "iteration" in out          # trace plot
        assert "makespan" in out           # gantt header
        data = json.loads(save.read_text())
        assert data["format"] == "solution"
        # the saved solution reloads and validates
        solution = load_solution(
            save.read_text(),
            motion_detection_application(),
            epicure_architecture(2000),
        )
        solution.validate()

    def test_schedule_choice(self, capsys):
        assert main([
            "explore", "--iterations", "300", "--warmup", "60",
            "--schedule", "geometric",
        ]) == 0

    def test_trace_csv_written(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        assert main([
            "explore", "--iterations", "200", "--warmup", "40",
            "--seed", "1", "--trace-csv", str(path),
        ]) == 0
        assert "trace saved" in capsys.readouterr().out
        lines = path.read_text().splitlines()
        assert lines[0].startswith("iteration,temperature,")
        assert len(lines) == 201  # header + one row per iteration

    def test_trace_csv_with_tempering(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        assert main([
            "explore", "--strategy", "tempering", "--chains", "3",
            "--iterations", "60", "--warmup", "12",
            "--seed", "1", "--trace-csv", str(path),
        ]) == 0
        assert "trace saved" in capsys.readouterr().out
        lines = path.read_text().splitlines()
        assert lines[0].startswith("iteration,temperature,")
        assert len(lines) == 61  # header + one row per round


class TestTelemetry:
    def test_explore_writes_schema_valid_stream(self, tmp_path, capsys):
        from repro.obs.telemetry import load_events, validate_events

        path = tmp_path / "tele.jsonl"
        assert main([
            "explore", "--iterations", "200", "--warmup", "40",
            "--seed", "1", "--telemetry", str(path),
        ]) == 0
        assert "telemetry written" in capsys.readouterr().out
        events = load_events(str(path))
        validate_events(events)
        kinds = {e["kind"] for e in events}
        assert {"run_header", "search_begin", "search_end",
                "run_summary"} <= kinds

    def test_summarize_renders_scoreboard(self, tmp_path, capsys):
        path = tmp_path / "tele.jsonl"
        main([
            "portfolio", "--iterations", "60", "--warmup", "12",
            "--telemetry", str(path),
        ])
        capsys.readouterr()
        assert main(["telemetry", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "telemetry summary" in out
        assert "search_end" in out
        assert "sa" in out

    def test_summarize_json_and_bad_file(self, tmp_path, capsys):
        path = tmp_path / "tele.jsonl"
        main([
            "explore", "--iterations", "120", "--warmup", "24",
            "--telemetry", str(path),
        ])
        capsys.readouterr()
        assert main(["telemetry", "summarize", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counters"]["iterations"] == 120
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"no": "header"}\n')
        assert main(["telemetry", "summarize", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


class TestSweep:
    def test_two_sizes(self, capsys):
        assert main([
            "sweep", "--sizes", "400,2000", "--runs", "1",
            "--iterations", "500", "--warmup", "100", "--plot",
        ]) == 0
        out = capsys.readouterr().out
        assert "NCLB" in out
        assert "device size (CLBs)" in out  # plot label


class TestCompare:
    def test_tiny_budgets(self, capsys):
        assert main([
            "compare", "--iterations", "500", "--warmup", "100",
            "--population", "12", "--generations", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "adaptive SA" in out


class TestSweepParallel:
    def test_jobs_flag_and_checkpoint(self, tmp_path, capsys):
        checkpoint = tmp_path / "sweep.jsonl"
        argv = [
            "sweep", "--sizes", "400", "--runs", "2",
            "--iterations", "200", "--warmup", "40",
            "--jobs", "1", "--checkpoint", str(checkpoint),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert checkpoint.exists()
        # resumes from the checkpoint: identical table, no recompute
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestPortfolio:
    def test_race_reports_winner(self, capsys):
        assert main([
            "portfolio", "--iterations", "200", "--warmup", "40",
            "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "winner:" in out
        for kind in ("sa", "tabu", "hill_climber", "ga", "random"):
            assert kind in out


class TestJsonOutput:
    def test_explore_json_envelope(self, capsys):
        assert main([
            "explore", "--iterations", "300", "--warmup", "60",
            "--seed", "1", "--json",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["format"] == "exploration-response"
        assert document["kind"] == "single"
        assert document["best"]["evaluation"]["makespan_ms"] > 0
        assert document["request"]["schema_version"] == 1

    def test_sweep_json_envelope(self, capsys):
        assert main([
            "sweep", "--sizes", "400", "--runs", "1",
            "--iterations", "200", "--warmup", "40", "--json",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "sweep"
        assert document["summary"]["rows"][0]["n_clbs"] == 400

    def test_compare_json(self, capsys):
        assert main([
            "compare", "--iterations", "300", "--warmup", "60",
            "--population", "8", "--generations", "2", "--json",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["sa_makespan_ms"] > 0
        assert document["sa_evaluations"] > 0
        assert "speedup" in document

    def test_info_json(self, capsys):
        assert main(["info", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["name"] == "motion_detection"
        assert document["tasks"] == 28
        assert document["deadline_ms"] == 40.0


class TestSpecWorkflow:
    def test_dump_spec_then_run_round_trips(self, tmp_path, capsys):
        spec_path = tmp_path / "run.json"
        assert main([
            "explore", "--iterations", "250", "--warmup", "50",
            "--seed", "4", "--dump-spec", str(spec_path),
        ]) == 0
        capsys.readouterr()
        assert main([
            "explore", "--iterations", "250", "--warmup", "50",
            "--seed", "4", "--json",
        ]) == 0
        from_flags = json.loads(capsys.readouterr().out)
        assert main([
            "explore", "--spec", str(spec_path), "--json",
        ]) == 0
        from_spec = json.loads(capsys.readouterr().out)
        # the spec file reproduces the flag-built run bit-for-bit
        assert from_spec["best"] == from_flags["best"]
        assert from_spec["request"] == from_flags["request"]

    def test_dump_spec_to_stdout(self, capsys):
        assert main([
            "sweep", "--sizes", "300,600", "--runs", "2", "--dump-spec",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "sweep"
        assert document["sizes"] == [300, 600]

    def test_explore_runs_any_spec_kind(self, tmp_path, capsys):
        spec_path = tmp_path / "portfolio.json"
        assert main([
            "portfolio", "--iterations", "200", "--warmup", "40",
            "--seed", "3", "--dump-spec", str(spec_path),
        ]) == 0
        capsys.readouterr()
        assert main(["explore", "--spec", str(spec_path)]) == 0
        assert "winner:" in capsys.readouterr().out

    def test_architecture_file_is_embedded(self, tmp_path, capsys):
        from repro.arch.architecture import epicure_architecture
        from repro.io import architecture_to_dict, dump_architecture

        architecture = epicure_architecture(n_clbs=800)
        path = tmp_path / "architecture.json"
        path.write_text(dump_architecture(architecture))
        for command in (
            ["explore"], ["portfolio"],
            ["serve", "submit", "--store", str(tmp_path / "store")],
        ):
            assert main(command + [
                "--architecture", str(path), "--dump-spec", "-",
            ]) == 0
            spec = json.loads(capsys.readouterr().out)["architecture"]
            assert spec["path"] is None
            assert spec["document"] == architecture_to_dict(architecture)

    def test_bundled_examples_specs_load(self, capsys):
        import os

        spec = os.path.join(
            os.path.dirname(__file__), "..", "examples", "specs",
            "motion_quick.json",
        )
        assert main(["explore", "--spec", spec, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["best"]["evaluation"]["feasible"]


class TestServe:
    SUBMIT = [
        "serve", "submit", "--iterations", "60", "--warmup", "10",
        "--seed", "1",
    ]

    def _store(self, tmp_path):
        return str(tmp_path / "store")

    def test_submit_drain_hit_round_trip(self, tmp_path, capsys):
        store = self._store(tmp_path)
        assert main(self.SUBMIT + ["--store", store]) == 0
        out = capsys.readouterr().out
        assert out.startswith("queued: ")
        assert "run 'repro serve run-workers'" in out
        key = out.splitlines()[0].split(": ", 1)[1]

        assert main([
            "serve", "run-workers", "--store", store, "--workers", "1",
        ]) == 0
        assert "executed 1 job(s)" in capsys.readouterr().out

        assert main(self.SUBMIT + ["--store", store]) == 0
        out = capsys.readouterr().out
        assert out.startswith("hit: ")
        assert "cached best:" in out

        assert main(["serve", "status", "--store", store, key]) == 0
        out = capsys.readouterr().out
        assert "status:   done" in out
        assert "hits: 1" in out

        assert main(["serve", "result", "--store", store, key]) == 0
        assert "best:" in capsys.readouterr().out

    def test_submit_json_and_exact_result_bytes(self, tmp_path, capsys):
        store = self._store(tmp_path)
        assert main(self.SUBMIT + ["--store", store, "--json"]) == 0
        submitted = json.loads(capsys.readouterr().out)
        assert submitted["status"] == "queued"
        assert submitted["attempts"] == 0
        key = submitted["key"]

        assert main([
            "serve", "run-workers", "--store", store, "--workers", "1",
            "--json",
        ]) == 0
        assert json.loads(capsys.readouterr().out)["executed"] == 1

        # a cache hit carries the full envelope in the JSON document
        assert main(self.SUBMIT + ["--store", store, "--json"]) == 0
        hit = json.loads(capsys.readouterr().out)
        assert hit["status"] == "hit"
        assert hit["response"]["format"] == "exploration-response"

        # `serve result --json` prints the exact persisted bytes
        from repro.service.store import ResultStore

        assert main([
            "serve", "result", "--store", store, key, "--json",
        ]) == 0
        printed = capsys.readouterr().out
        persisted = ResultStore(store, create=False).response_text(key)
        assert printed == persisted + "\n"

    def test_stats_and_gc(self, tmp_path, capsys):
        store = self._store(tmp_path)
        assert main(self.SUBMIT + ["--store", store]) == 0
        assert main(self.SUBMIT + ["--store", store]) == 0  # inflight
        assert main([
            "serve", "run-workers", "--store", store, "--workers", "1",
        ]) == 0
        assert main(self.SUBMIT + ["--store", store]) == 0  # hit
        capsys.readouterr()

        assert main(["serve", "stats", "--store", store, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["format"] == "exploration-service-stats"
        assert stats["executions"] == 1
        assert stats["hits"] == 1
        assert stats["records"]["done"] == 1

        assert main(["serve", "stats", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "executions: 1" in out and "cache hits: 1" in out

        assert main([
            "serve", "gc", "--store", store, "--done-older-than", "0",
        ]) == 0
        assert "done" in capsys.readouterr().out

    def test_result_before_completion_exits_2(self, tmp_path, capsys):
        store = self._store(tmp_path)
        assert main(self.SUBMIT + ["--store", store, "--json"]) == 0
        key = json.loads(capsys.readouterr().out)["key"]
        assert main(["serve", "result", "--store", store, key]) == 2
        assert "no result" in capsys.readouterr().err

    def test_missing_store_exits_2(self, tmp_path, capsys):
        absent = str(tmp_path / "absent")
        assert main([
            "serve", "stats", "--store", absent, "--json",
        ]) == 2
        assert "no exploration store" in capsys.readouterr().err

    def test_submit_telemetry_stream(self, tmp_path, capsys):
        from repro.obs.telemetry import load_events, summarize_events

        store = self._store(tmp_path)
        stream = str(tmp_path / "serve.jsonl")
        assert main(self.SUBMIT + [
            "--store", store, "--telemetry", stream,
        ]) == 0
        assert "telemetry written" in capsys.readouterr().out
        summary = summarize_events(load_events(stream))
        assert summary["counters"]["cache_miss"] == 1
        assert "store_lookup_s" in summary["timers"]
        capsys.readouterr()
        assert main(["telemetry", "summarize", stream]) == 0
        assert "cache_miss" in capsys.readouterr().out


class TestValidationExitCodes:
    def test_missing_spec_file_exits_2(self, capsys):
        assert main(["explore", "--spec", "/nonexistent.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_key_in_spec_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 1, "iters": 5}))
        assert main(["explore", "--spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert "iters" in err and "accepted keys" in err

    def test_invalid_application_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "app.json"
        path.write_text("{not json")
        assert main(["explore", "--application", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_stale_schema_version_exits_2(self, tmp_path, capsys):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"schema_version": 99}))
        assert main(["explore", "--spec", str(path)]) == 2
        assert "newer" in capsys.readouterr().err


class TestParser:
    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestBudgetFlagsAndDeadline:
    """The PR's serving flags: --time-limit-s / --stall-limit /
    --deadline-s, including --dump-spec round trips."""

    def test_dump_spec_round_trips_budget_limits(self, tmp_path, capsys):
        spec = str(tmp_path / "spec.json")
        assert main([
            "explore", "--iterations", "80", "--warmup", "10",
            "--time-limit-s", "30", "--stall-limit", "500",
            "--dump-spec", spec,
        ]) == 0
        capsys.readouterr()
        document = json.loads(open(spec).read())
        assert document["budget"]["time_limit_s"] == 30.0
        assert document["budget"]["stall_limit"] == 500
        # the dumped spec loads and runs unchanged
        assert main(["explore", "--spec", spec, "--json"]) == 0
        response = json.loads(capsys.readouterr().out)
        assert response["results"][0]["iterations_run"] <= 80

    def test_serve_submit_dump_spec_has_budget_limits(
        self, tmp_path, capsys
    ):
        assert main([
            "serve", "submit", "--store", str(tmp_path / "store"),
            "--iterations", "60", "--warmup", "10",
            "--time-limit-s", "5", "--dump-spec",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["budget"]["time_limit_s"] == 5.0
        assert document["budget"]["stall_limit"] is None

    def test_time_limit_caps_a_long_run(self, capsys):
        assert main([
            "explore", "--iterations", "10000000", "--warmup", "0",
            "--time-limit-s", "0.2", "--json",
        ]) == 0
        response = json.loads(capsys.readouterr().out)
        assert response["results"][0]["iterations_run"] < 10000000

    def test_deadline_returns_partial_envelope(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main([
            "serve", "submit", "--store", store,
            "--iterations", "200000", "--warmup", "0",
            "--time-limit-s", "1", "--deadline-s", "0.3", "--json",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["status"] == "partial"
        assert document["record_status"] == "pending"
        assert document["response"]["summary"]["partial"] is True
        assert document["response"]["best"]["cost"] > 0

        # the full job is still queued; workers complete it as usual
        assert main([
            "serve", "run-workers", "--store", store, "--workers", "1",
        ]) == 0
        assert "executed 1 job(s)" in capsys.readouterr().out

    def test_deadline_hit_is_served_instantly(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        submit = [
            "serve", "submit", "--store", store,
            "--iterations", "60", "--warmup", "10", "--seed", "1",
        ]
        assert main(submit) == 0
        assert main([
            "serve", "run-workers", "--store", store, "--workers", "1",
        ]) == 0
        capsys.readouterr()
        assert main(submit + ["--deadline-s", "0.5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("hit: ")

    def test_deadline_partial_human_output(self, tmp_path, capsys):
        assert main([
            "serve", "submit", "--store", str(tmp_path / "store"),
            "--iterations", "200000", "--warmup", "0",
            "--deadline-s", "0.3",
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith("partial: ")
        assert "partial best:" in out
