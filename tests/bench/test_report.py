"""Reading a benchmark comparison: the speed gate's verdict on pairs.

``.github/perf_gate.py`` runs perfbench on a parent and a change in
pairs, and :func:`judge` turns the per-pair results into its report and
verdict.  These cases pin the verdicts a reader of that report relies
on: noise and improvements pass, and a drifted instance fails whatever
its timings.  The 2x bound itself is tested in ``tests/test_perf_gate.py``.
"""

import importlib.util
import json
import os

from repro.bench.corpus import get_scenario, scenario_hash

_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
_SPEC = importlib.util.spec_from_file_location(
    "perf_gate", os.path.join(_ROOT, ".github", "perf_gate.py"))
perf_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_gate)

REQUEST, RATE = perf_gate.GATED
BETTER = perf_gate.load_benchmark(_ROOT)[1]


def result(slowdown=1.0, correct=True):
    """A run's last output line, ``slowdown`` times slower than 0.5 s
    per request and 1000 evaluations per second."""
    return {"correct": correct,
            "metrics": {REQUEST: {"value": 0.5 * slowdown, "unit": "s"},
                        RATE: {"value": 1000.0 / slowdown, "unit": "1/s"}}}


def judge(changes, status=0):
    """The gate's report lines and failures: one explore-motion pair per
    change-side result, each against an unchanged parent run."""
    pairs = [("explore-motion", seed,
              {"parent": (0, result()), "change": (status, change)})
             for seed, change in enumerate(changes, start=2)]
    return perf_gate.judge(pairs, BETTER)


def verdicts(lines):
    """``metric -> median line`` of the report."""
    return {metric: line for line in lines for metric in perf_gate.GATED
            if line.startswith(f"explore-motion {metric}: median")}


class TestCompare:
    def test_noise_within_threshold_is_not_flagged(self):
        # 1.44x is the widest pair ratio an unchanged tree read
        lines, failures = judge([result(1.44), result(1.2), result(0.9)])
        assert not failures
        for line in verdicts(lines).values():
            assert "slowdown 1.20x" in line and line.endswith(" ok")

    def test_improvement_reported_not_failing(self):
        lines, failures = judge([result(0.5)] * 3)
        assert not failures
        medians = verdicts(lines)
        assert "median change/parent 0.500, slowdown 0.50x" in medians[REQUEST]
        assert "median change/parent 2.000, slowdown 0.50x" in medians[RATE]
        assert all(line.endswith(" ok") for line in medians.values())

    def test_scenario_drift_fails_even_with_good_timings(self):
        # perfbench fails its run when an instance's hash leaves the pin,
        # and the pins are the corpus's hashes as built today
        path = os.path.join(_ROOT, "perfbench", "references.json")
        with open(path, encoding="utf-8") as handle:
            pinned = json.load(handle)["scenario_hashes"]
        assert pinned
        for name, digest in pinned.items():
            assert scenario_hash(get_scenario(name)) == digest, name
        # a run failed that way fails the gate, twice as fast or not
        drifted = result(0.5, correct=False)
        lines, failures = judge([drifted] * 3, status=1)
        assert failures == [
            f"change run of explore-motion seed {seed} failed "
            "(exit 1, correct: False)" for seed in (2, 3, 4)]
        assert not verdicts(lines)
