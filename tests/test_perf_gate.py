"""CI's speed gate (``.github/perf_gate.py``): its pass/fail decision.

The script lives outside the package, so it is loaded by path.  Only
:func:`judge` is exercised: it decides from per-pair results, so no
benchmark runs here.
"""

import importlib.util
import os

import pytest

_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
_SPEC = importlib.util.spec_from_file_location(
    "perf_gate", os.path.join(_ROOT, ".github", "perf_gate.py"))
perf_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_gate)

REQUEST = "request_s.p50.calibrated"
RATE = "evaluations_per_s.calibrated"
BETTER = perf_gate.load_benchmark(_ROOT)[1]


def result(request_s=0.5, rate=1000.0, correct=True):
    """A run's last output line, as ``perfbench/run.py`` prints it."""
    return {"correct": correct,
            "metrics": {REQUEST: {"value": request_s, "unit": "s"},
                        RATE: {"value": rate, "unit": "1/s"}}}


def pairs(changes, parent=None, status=0):
    """One explore-motion pair per change-side result, against one parent."""
    parent = parent or result()
    return [("explore-motion", seed,
             {"parent": (0, parent), "change": (status, change)})
            for seed, change in enumerate(changes, start=2)]


def failures(pair_list):
    return perf_gate.judge(pair_list, BETTER)[1]


def test_gated_metrics_have_a_direction_in_the_benchmark():
    assert BETTER[REQUEST] == "lower" and BETTER[RATE] == "higher"


@pytest.mark.parametrize("factor, fails", [(2.1, True), (1.9, False)])
def test_bound_holds_in_each_metric_direction(factor, fails):
    slower = failures(pairs([result(request_s=0.5 * factor)] * 3))
    assert bool(slower) is fails
    if fails:
        assert "explore-motion" in slower[0] and REQUEST in slower[0]
    fewer = failures(pairs([result(rate=1000.0 / factor)] * 3))
    assert bool(fewer) is fails
    if fails:
        assert "explore-motion" in fewer[0] and RATE in fewer[0]
    # getting faster by the same factor never fails
    assert not failures(pairs([result(request_s=0.5 / factor,
                                      rate=1000.0 * factor)] * 3))


def test_one_outlier_pair_does_not_fail_the_median():
    runs = [result(), result(request_s=5.0, rate=100.0), result()]
    lines, found = perf_gate.judge(pairs(runs), BETTER)
    assert not found
    # every pair's ratio is reported, the outlier's too
    assert sum(f"seed {seed} {REQUEST}" in line
               for line in lines for seed in (2, 3, 4)) == 3
    assert any("10.000" in line for line in lines)


def test_a_failed_run_fails_the_gate_and_names_it():
    crashed = failures(pairs([result()], status=1))
    assert crashed == ["change run of explore-motion seed 2 failed "
                       "(exit 1, correct: True)"]
    wrong = failures(pairs([result()], parent=result(correct=False)))
    assert wrong and wrong[0].startswith("parent run of explore-motion seed 2")
    assert failures(pairs([None]))
