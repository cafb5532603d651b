"""Cost-performance Pareto front and A4 architecture exploration.

Architecture exploration (moves m3/m4, the paper's general mode) runs
once per deadline: starting from a minimal platform, the annealer may
instantiate catalog resources.  Tighter budgets must buy more hardware
(monotone non-increasing cost as deadlines loosen), and the paper's
40 ms point must be a deadline-meeting design of reasonable cost.
"""

from repro.experiments.pareto import format_pareto_table, run_pareto_front
from repro.model.motion import MOTION_DEADLINE_MS


def test_pareto_front():
    points = run_pareto_front(
        deadlines_ms=(80.0, 60.0, 40.0, 30.0), iterations=8000, warmup=1200,
        seed=19,
    )
    print()
    print(format_pareto_table(points))
    by_deadline = {point.deadline_ms: point for point in points}

    # Loose deadlines are satisfiable.
    for deadline in (80.0, 60.0, 40.0):
        assert by_deadline[deadline].meets_deadline
    # Cost is monotone: loosening the deadline never costs more.
    ordered = sorted(points, key=lambda point: point.deadline_ms)
    for tight, loose in zip(ordered, ordered[1:]):
        assert loose.monetary_cost <= tight.monetary_cost + 1e-9
    # A4 at the paper's deadline: a processor survives, and the design
    # does not hoard resources (m3 prunes drained ones).
    paper = by_deadline[MOTION_DEADLINE_MS]
    assert any(name.startswith("P:") for name in paper.resources), (
        "a processor must survive"
    )
    assert paper.monetary_cost <= 10.0
    assert len(paper.resources) <= 5
