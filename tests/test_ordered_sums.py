"""Float totals use one summation order on every interpreter.

Since Python 3.12 the built-in ``sum()`` adds floats with compensated
summation, so the pinned digests, envelopes and paper tables would move
with the interpreter.  Every float total in the program goes through
:func:`repro.numeric.left_sum` instead; here ``builtins.sum`` is wrapped
to fail whenever a ``repro`` frame gets a float back, and small requests
of every kind, the paper-table aggregations and a generated instance's
deadline run under it.  The guard works on any interpreter, 3.11
included.
"""

from __future__ import annotations

import builtins
import dataclasses
import json
import os
import sys

import pytest

from repro.api.facade import explore
from repro.api.specs import EngineSpec, ExplorationRequest
from repro.numeric import left_sum

FIXTURES = os.path.join(os.path.dirname(__file__), "api", "fixtures")


@pytest.fixture
def float_sums(monkeypatch):
    """Wrap ``builtins.sum``; returns the list of ``file:line`` sites
    where a ``repro`` frame got a float total (each also raises)."""
    real_sum = builtins.sum
    sites = []

    def guarded(*args, **kwargs):
        total = real_sum(*args, **kwargs)
        if isinstance(total, float):
            frame = sys._getframe(1)
            if frame.f_globals.get("__name__", "").startswith("repro"):
                site = f"{frame.f_code.co_filename}:{frame.f_lineno}"
                sites.append(site)
                raise AssertionError(f"float sum() at {site}")
        return total

    monkeypatch.setattr(builtins, "sum", guarded)
    yield sites
    monkeypatch.setattr(builtins, "sum", real_sum)


def _request(name: str, iterations: int, warmup: int, **changes):
    with open(os.path.join(FIXTURES, name)) as handle:
        request = ExplorationRequest.from_dict(json.load(handle))
    budget = dataclasses.replace(
        request.budget, iterations=iterations, warmup_iterations=warmup
    )
    return dataclasses.replace(request, budget=budget, **changes)


def _requests():
    return {
        "sa-full": _request("single_builtin.json", 300, 100),
        "sa-incremental": _request(
            "single_builtin.json", 300, 100,
            engine=EngineSpec(kind="incremental"),
        ),
        "tempering": _request("tempering_array.json", 120, 40),
        "architecture-exploration": _request("archexp_catalog.json", 300, 100),
        "batch": _request("batch_generated.json", 100, None),
        "sweep": _request("sweep_inline.json", 150, 50),
    }


@pytest.mark.parametrize("name", sorted(_requests()))
def test_requests_sum_floats_left_to_right(name, float_sums):
    response = explore(_requests()[name])
    assert response.results
    assert float_sums == []


def test_tables_and_corpus_deadlines_sum_floats_left_to_right(float_sums):
    from repro.analysis.stats import summarize
    from repro.bench.corpus import get_scenario
    from repro.experiments.ablations import (
        run_reconfig_ablation,
        run_schedule_ablation,
    )
    from repro.experiments.comparison import run_comparison
    from repro.experiments.quality import run_quality_knob

    assert summarize([1.0, 2.0, 4.0]).mean == 7.0 / 3
    # A generated instance's deadline is a fraction of its software time.
    assert get_scenario("tgff/36").build().deadline_ms > 0
    run_schedule_ablation(iterations=120, warmup=40, runs=1)
    run_reconfig_ablation(iterations=120, warmup=40, runs=1)
    run_quality_knob(lambda_rates=(0.4,), budget_constant=40.0, warmup=20,
                     runs=2)
    run_comparison(sa_iterations=120, sa_warmup=40, ga_population=6,
                   ga_generations=1, engine="incremental")
    assert float_sums == []


def test_left_sum_is_the_311_sum():
    values = [0.1] * 10 + [1e16, 1.0, -1e16]
    # Adding left to right loses the 1.0 and the tenths' rounding shows;
    # compensated summation (3.12's sum) would not.
    expected = 0
    for value in values:
        expected += value
    assert left_sum(values) == expected
    assert left_sum([]) == 0 and type(left_sum([])) is int
    assert str(left_sum([-0.0])) == "0.0"
