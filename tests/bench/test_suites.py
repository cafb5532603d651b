"""Spot execution on corpus scenarios, one tiny run per path.

Each case runs one path end to end at a tiny budget and checks what it
must report: the annealer-shaped move/evaluate/undo loop on both
engines, the paper's solution-space numbers and the service's cache.
"""

import random

from repro.analysis.combinatorics import solution_space_report
from repro.api.specs import (
    ApplicationSpec,
    BudgetSpec,
    ExplorationRequest,
    StrategySpec,
)
from repro.bench.corpus import get_scenario
from repro.errors import InfeasibleMoveError
from repro.mapping.evaluator import Evaluator
from repro.mapping.solution import random_initial_solution
from repro.model.motion import motion_detection_application
from repro.sa.moves import MoveGenerator
from repro.service.service import ExplorationService

EVALS = 10


def move_eval_loop(scenario_name, engine, evals=EVALS, seed=7):
    """The annealer's hot loop: propose, apply, evaluate, undo half.

    Returns ``(evaluations, final makespan in ms)``."""
    instance = get_scenario(scenario_name).build()
    application, architecture = instance.application, instance.architecture
    evaluator = Evaluator(application, architecture, engine=engine)
    rng = random.Random(seed)
    solution = random_initial_solution(
        application, architecture, rng, hw_fraction=0.5)
    generator = MoveGenerator(application)
    done = 0
    makespan = evaluator.evaluate(solution).makespan_ms
    while done < evals:
        try:
            move = generator.propose(solution, rng)
            move.apply(solution)
        except InfeasibleMoveError:
            continue
        makespan = evaluator.evaluate(solution).makespan_ms
        done += 1
        if rng.random() < 0.5:
            move.undo(solution)
    return done, makespan


class TestExecution:
    def test_throughput_case(self):
        evaluations, makespan = move_eval_loop(
            "series_parallel/24", "incremental")
        assert evaluations == EVALS
        assert makespan > 0

    def test_engines_agree_on_final_makespan(self):
        full = move_eval_loop("fork_join/24", "full")
        incremental = move_eval_loop("fork_join/24", "incremental")
        assert full == incremental, "engine parity must hold inside the loop"

    def test_combinatorics_case_exact_numbers(self):
        report = solution_space_report(motion_detection_application())
        assert report.total_orders == 348_840
        assert "348,840" in report.format_table()

    def test_service_cache_hit_case_counts_one_hit(self, tmp_path):
        request = ExplorationRequest(
            kind="single",
            application=ApplicationSpec(kind="builtin", name="motion"),
            strategy=StrategySpec("sa", {"keep_trace": False}),
            budget=BudgetSpec(iterations=60, warmup_iterations=15),
            seed=7,
        )
        service = ExplorationService(str(tmp_path / "store"))
        cold = service.submit(request)
        assert service.run_local() == 1
        warm = service.submit(request)
        assert (cold.status, warm.status) == ("queued", "hit")
        record = service.status(cold.key)
        assert record.attempts == 1
        assert record.hits == 1
