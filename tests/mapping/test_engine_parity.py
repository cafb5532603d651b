"""Property test: every engine is bit-identical to the full rebuild
reference.

Replays hundreds of random accepted/rejected move sequences on random
applications (plus the motion-detection benchmark) and asserts that
engines built under every accepted name (``"array"`` is an alias of
``"incremental"``) agree pairwise with ``FullRebuildEngine`` and with
each other on makespan, feasibility and communication totals at every
step — including right after rejected moves are undone, which is
exactly the state-reversal pattern the delta-patching engine must
survive.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.arch.architecture import Architecture, epicure_architecture
from repro.arch.asic import Asic
from repro.arch.bus import Bus
from repro.arch.processor import Processor
from repro.arch.reconfigurable import ReconfigurableCircuit
from repro.api.facade import explore
from repro.api.specs import (
    ApplicationSpec,
    BudgetSpec,
    EngineSpec,
    ExplorationRequest,
    StrategySpec,
)
from repro.bench.corpus import get_scenario
from repro.errors import ConfigurationError, InfeasibleMoveError
from repro.mapping.engine import (
    ENGINES,
    FullRebuildEngine,
    IncrementalEngine,
    make_engine,
)
from repro.mapping import solution as solution_module
from repro.mapping.evaluator import Evaluator
from repro.mapping.solution import Solution, random_initial_solution
from repro.model.application import Application
from repro.model.generator import GeneratorConfig, random_application
from repro.model.motion import motion_detection_application
from repro.model.task import Task
from repro.sa.moves import MoveGenerator

#: Every unordered pair of engine names (the replay asserts pairwise
#: identity, so covering the pairs covers the whole equivalence class;
#: the "array" pairs pin the alias to the reference and to a separately
#: built "incremental" engine).
ENGINE_PAIRS = [
    ("full", "incremental"),
    ("full", "array"),
    ("incremental", "array"),
]


def _assert_same(full_ev, inc_ev, context):
    assert full_ev.feasible == inc_ev.feasible, context
    if math.isfinite(full_ev.makespan_ms):
        assert full_ev.makespan_ms == inc_ev.makespan_ms, context
    else:
        assert not math.isfinite(inc_ev.makespan_ms), context
    assert full_ev.comm_ms == inc_ev.comm_ms, context
    assert full_ev == inc_ev, context


def _replay(
    app,
    arch_factory,
    seed,
    steps,
    p_zero=0.0,
    bus_policy="ordered",
    engines=("full", "incremental"),
    fork_copies=False,
    counters=None,
    hw_fraction=None,
):
    """Replay one random move sequence through an engine pair; returns
    the number of evaluated states.

    With ``fork_copies`` the engines regularly leave the walked solution
    for a mutated ``copy()`` of it and come back, so both switches go
    through the full re-check.  ``counters`` (a dict) accumulates the
    second engine's telemetry counters."""
    arch = arch_factory()
    catalog = None
    if p_zero > 0.0:
        catalog = [
            lambda name: Processor(name, speed_factor=1.5, monetary_cost=1.0),
            lambda name: ReconfigurableCircuit(name, n_clbs=400, monetary_cost=2.0),
        ]
        arch.catalog = list(catalog)
    left = Evaluator(app, arch, bus_policy, engine=engines[0])
    right = Evaluator(app, arch, bus_policy, engine=engines[1])
    rng = random.Random(seed)
    solution = random_initial_solution(app, arch, rng, hw_fraction)
    gen = MoveGenerator(app, p_zero=p_zero, catalog=catalog)

    _assert_same(left.evaluate(solution), right.evaluate(solution), "initial")
    evaluated = 1
    attempts = 0
    while evaluated < steps and attempts < steps * 20:
        attempts += 1
        try:
            move = gen.propose(solution, rng)
            move.apply(solution)
        except InfeasibleMoveError:
            continue
        context = f"seed={seed} step={evaluated} move={move.name} {engines}"
        _assert_same(left.evaluate(solution), right.evaluate(solution), context)
        evaluated += 1
        if fork_copies and rng.random() < 0.3:
            clone = solution.copy()
            try:
                gen.propose(clone, rng).apply(clone)
            except InfeasibleMoveError:
                pass
            _assert_same(
                left.evaluate(clone), right.evaluate(clone), context + " (copy)"
            )
            evaluated += 1
        # Metropolis-style coin: reject half the moves and make sure the
        # engines agree again after the rollback.
        if rng.random() < 0.5:
            move.undo(solution)
            if rng.random() < 0.3:
                _assert_same(
                    left.evaluate(solution),
                    right.evaluate(solution),
                    context + " (after undo)",
                )
                evaluated += 1
    if counters is not None:
        for name, value in right.engine.telemetry_counters().items():
            counters[name] = counters.get(name, 0) + value
    return evaluated


def _replay_random_instances(engines, **options):
    """Replay one move sequence per varied random instance; returns the
    number of evaluated states."""
    total = 0
    cases = [
        # (tasks, topology, seed, arch factory, p_zero, bus policy)
        (10, "tgff", 1, lambda: epicure_architecture(400), 0.0, "ordered"),
        (18, "tgff", 2, lambda: epicure_architecture(1200), 0.0, "ordered"),
        (18, "layered", 3, lambda: epicure_architecture(800), 0.0, "edge"),
        (26, "tgff", 4, lambda: _dual_resource_arch(), 0.0, "ordered"),
        (14, "layered", 5, lambda: epicure_architecture(600), 0.12, "ordered"),
        (22, "tgff", 6, lambda: _asic_arch(), 0.0, "ordered"),
        (20, "tgff", 7, lambda: _subclassed_arch(), 0.0, "ordered"),
    ]
    for num_tasks, topology, seed, arch_factory, p_zero, bus in cases:
        app = random_application(
            GeneratorConfig(num_tasks=num_tasks, topology=topology), seed=seed
        )
        total += _replay(
            app, arch_factory, seed * 101, 80, p_zero, bus, engines, **options
        )
    return total


def _replay_motion(engines, **options):
    return _replay(
        motion_detection_application(), lambda: epicure_architecture(2000),
        seed=99, steps=120, engines=engines, **options,
    )

#: Replays per ``_replay_random_instances`` + ``_replay_motion`` round;
#: each starts with one full re-check (the initial solution).
_REPLAYS = 8


@pytest.mark.parametrize("engines", ENGINE_PAIRS, ids=lambda p: "-vs-".join(p))
def test_engine_parity_on_random_move_sequences(engines):
    """>= 500 random accepted/rejected moves across varied instances,
    per engine pair."""
    # random-instance share of the >=500 target
    assert _replay_random_instances(engines) >= 480


@pytest.mark.parametrize("engines", ENGINE_PAIRS, ids=lambda p: "-vs-".join(p))
def test_engine_parity_on_motion_benchmark(engines):
    assert _replay_motion(engines) >= 100


@pytest.mark.parametrize("scenario", ["tgff/36", "tgff/120"])
@pytest.mark.parametrize("engines", ENGINE_PAIRS, ids=lambda p: "-vs-".join(p))
def test_engine_parity_on_large_corpus_instances(engines, scenario):
    """The corpus instances past the random graphs' 26 tasks, from a
    solution with about half the hardware-capable tasks in hardware."""
    instance = get_scenario(scenario).build()
    assert _replay(
        instance.application, lambda: instance.architecture, seed=7,
        steps=300, engines=engines, hw_fraction=0.5,
    ) >= 300


def test_engine_parity_with_forced_serialized_fallback(monkeypatch):
    """The serialized fallback — one Kahn over the base layers plus the
    bus chain, adopted as the persistent order — runs only when a chain
    repair fails or too many chain edges contradict the order, which no
    other replay triggers.  Make every chain repair report failure and
    replay the random and motion sequences against the reference."""
    fallbacks = 0

    def fail(self, order, pos, bad):
        nonlocal fallbacks
        fallbacks += 1
        return False

    monkeypatch.setattr(IncrementalEngine, "_repair_chain", fail)
    engines = ("full", "incremental")
    assert _replay_random_instances(engines) >= 480
    assert _replay_motion(engines) >= 100
    assert fallbacks > 100


def test_engine_parity_across_solution_copies():
    """Any solution but the one the engine follows is re-checked in
    full against the same mirror, keeping the persistent order and DP:
    alternate the engines between the walk and mutated copies of it."""
    counters = {}
    engines = ("full", "incremental")
    assert _replay_random_instances(engines, fork_copies=True, counters=counters) >= 480
    assert _replay_motion(engines, fork_copies=True, counters=counters) >= 100
    assert counters["sync_full"] > _REPLAYS + 100


def test_engine_parity_across_journal_trims(monkeypatch):
    """A journal trimmed past the engine's cursor forces a full
    re-check: with a limit of a few records, most undone moves are
    trimmed away before the engine reads them."""
    monkeypatch.setattr(solution_module, "JOURNAL_LIMIT", 4)
    counters = {}
    engines = ("full", "incremental")
    assert _replay_random_instances(engines, counters=counters) >= 480
    assert _replay_motion(engines, counters=counters) >= 100
    assert counters["sync_full"] > _REPLAYS + 50
    assert counters["sync_full"] < counters["sync_calls"]


def _processors(count: int) -> Architecture:
    arch = Architecture("procs", bus=Bus(rate_kbytes_per_ms=2.0))
    for k in range(count):
        arch.add_resource(Processor(f"cpu{k}"))
    arch.validate()
    return arch


def _chain_walk(sw_times, deps, cpus, layout, edits):
    """Evaluate a hand-placed software-only solution, then each edit in
    turn, with the reference and the incremental engine.  Every
    dependency carries 4 KB (a 2 ms transfer).  After every step the
    engines must agree and no base + bus chain Kahn may have run: chain
    repairs alone keep the persistent order serialized.  Returns the
    reference graph's comm-node ``(start, finish)`` per step label and
    the incremental engine's counters."""
    app = Application("chain")
    for i, ms in enumerate(sw_times):
        app.add_task(Task(i, f"t{i}", "F", sw_time_ms=ms))
    for src, dst in deps:
        app.add_dependency(src, dst, data_kbytes=4.0)
    app.validate()
    arch = _processors(cpus)
    solution = Solution(app, arch)
    for cpu, tasks in layout.items():
        for t in tasks:
            solution.assign_to_processor(t, cpu)
    full = Evaluator(app, arch, engine="full")
    incremental = Evaluator(app, arch, engine="incremental")
    spans = {}
    for label, edit in [("initial", None)] + list(edits):
        if edit is not None:
            edit(solution)
        _assert_same(
            full.evaluate(solution), incremental.evaluate(solution), label
        )
        assert incremental.engine.telemetry_counters()["chain_rebuilds"] == 0
        graph = full.engine.realize(solution)
        starts = graph.start_times()
        spans[label] = {
            c[1:]: (starts[c], starts[c] + graph.duration(c))
            for c in graph.comm_nodes
        }
    return spans, incremental.engine.telemetry_counters()


def test_bus_chain_tie_break_against_the_persistent_order():
    """Two transfers leave task 0 at the same time; the (src, dst)
    tie-break puts 0->1 first, but dependency 0->2 was added first, so
    the initial Kahn order places its comm node earlier.  A chain repair
    resolves the contradiction."""
    spans, counters = _chain_walk(
        [2.0, 1.0, 1.0], [(0, 2), (0, 1)], 2,
        {"cpu0": [0], "cpu1": [1, 2]},
        [
            ("swap", lambda s: s.assign_to_processor(2, "cpu1", 0)),
            ("deactivate", lambda s: s.assign_to_processor(1, "cpu0")),
            ("reactivate", lambda s: s.assign_to_processor(1, "cpu1", 0)),
        ],
    )
    assert spans["initial"] == {(0, 1): (2.0, 4.0), (0, 2): (4.0, 6.0)}
    assert counters["chain_repairs"] >= 1


def test_bus_chain_behind_zero_duration_tasks():
    """Zero-duration tasks 1 -> 0 (a zero-weight pass-through on one
    processor) feed two transfers that tie at time 0.  The tie-break
    chains 0->3 before 1->2 although task 1 precedes task 0."""
    spans, counters = _chain_walk(
        [0.0, 0.0, 1.0, 1.0], [(1, 0), (1, 2), (0, 3)], 2,
        {"cpu0": [1, 0], "cpu1": [2, 3]},
        [
            ("swap", lambda s: s.assign_to_processor(3, "cpu1", 0)),
            ("activate 1->0", lambda s: s.assign_to_processor(0, "cpu1", 0)),
            ("restore", lambda s: s.assign_to_processor(0, "cpu0")),
        ],
    )
    assert spans["initial"] == {(0, 3): (0.0, 2.0), (1, 2): (2.0, 4.0)}
    assert spans["activate 1->0"] == {(1, 0): (0.0, 2.0), (1, 2): (2.0, 4.0)}
    assert counters["chain_repairs"] >= 1


def test_bus_chain_tight_edge_beside_a_binding_one():
    """0->3 finishes exactly when 1->4 becomes ready (a tight chain
    edge: the serialized values equal the unserialized ones).  Moving
    task 5 off task 2's processor adds 2->5, ready 2**-40 ms before
    1->4 finishes, so the chain edge into it binds by a hair; moving it
    back restores the tight-only chain."""
    spans, _counters = _chain_walk(
        [1.0, 3.0, 5.0 - 2.0**-40, 1.0, 1.0, 1.0],
        [(0, 3), (1, 4), (2, 5)], 4,
        {"cpu0": [0], "cpu1": [1], "cpu2": [2, 5], "cpu3": [3, 4]},
        [
            ("bind", lambda s: s.assign_to_processor(5, "cpu3")),
            ("unbind", lambda s: s.assign_to_processor(5, "cpu2")),
        ],
    )
    tight = {(0, 3): (1.0, 3.0), (1, 4): (3.0, 5.0)}
    assert spans["initial"] == spans["unbind"] == tight
    assert spans["bind"] == {**tight, (2, 5): (5.0, 7.0)}


def test_failed_order_repair_leaves_no_stale_order():
    """A multi-edge order repair that fails after reordering the
    persistent order in place must drop that order.  On this SA request
    (motion/2000 at the paper's 8000-iteration budget) a kept half-repaired
    order later placed a task before its static predecessor, mis-scored
    33 candidates and changed the trajectory."""
    document = get_scenario("motion/2000").document()
    outcomes = []
    for engine in ("full", "array"):
        request = ExplorationRequest(
            kind="single",
            application=ApplicationSpec(kind="bundled", document=document),
            strategy=StrategySpec(kind="sa"),
            budget=BudgetSpec(iterations=8000),
            engine=EngineSpec(kind=engine),
            seed=1847851875,
        )
        result = explore(request).results[0]
        outcomes.append((result["best_cost"], result["evaluations"]))
    assert outcomes[0] == outcomes[1]


def _dual_resource_arch() -> Architecture:
    arch = Architecture("dual", bus=Bus(rate_kbytes_per_ms=25.0, latency_ms=0.05))
    arch.add_resource(Processor("cpu0", speed_factor=1.0))
    arch.add_resource(Processor("cpu1", speed_factor=1.7))
    arch.add_resource(ReconfigurableCircuit("fpga_a", n_clbs=700))
    arch.add_resource(
        ReconfigurableCircuit(
            "fpga_b", n_clbs=300, partial_reconfiguration=False
        )
    )
    arch.validate()
    return arch


class _SubProcessor(Processor):
    """Not the exact built-in type: the incremental engine takes its
    generic path through the resource's own polymorphic methods."""


class _SubCircuit(ReconfigurableCircuit):
    """See :class:`_SubProcessor`."""


def _subclassed_arch() -> Architecture:
    arch = Architecture("subclassed", bus=Bus(rate_kbytes_per_ms=30.0))
    arch.add_resource(_SubProcessor("cpu0"))
    arch.add_resource(Processor("cpu1", speed_factor=1.4))
    arch.add_resource(_SubCircuit("fpga", n_clbs=800))
    arch.validate()
    return arch


def _move_adjacent_pair(solution):
    """Move the first two tasks of ``cpu0``'s order to the front of
    ``cpu1``'s, keeping their order, so the chain edge between them
    migrates between the processors; returns the undo."""
    a, b = solution.software_order("cpu0")[:2]
    solution.assign_to_processor(a, "cpu1", 0)
    solution.assign_to_processor(b, "cpu1", 1)

    def undo():
        solution.assign_to_processor(a, "cpu0", 0)
        solution.assign_to_processor(b, "cpu0", 1)

    return undo


def _move_fitting_context(solution):
    """Move the first ``fpga_a`` context that fits ``fpga_b`` into a new
    context at the end of ``fpga_b``; returns the undo."""
    fpga_b = solution.architecture.resource("fpga_b")
    k, members = next(
        (k, list(ctx))
        for k, ctx in enumerate(solution.contexts("fpga_a"))
        if fpga_b.fits(0, sum(solution.task_clbs(t) for t in ctx))
    )
    position = solution.spawn_context(members[0], "fpga_b")
    for t in members[1:]:
        solution.assign_to_context(t, "fpga_b", position)

    def undo():
        solution.spawn_context(members[0], "fpga_a", k)
        for t in members[1:]:
            solution.assign_to_context(t, "fpga_a", k)

    return undo


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_engine_parity_on_multi_resource_diffs(seed):
    """Edits that refresh several resources in one delta-sync: a chain
    edge migrating between two processors, a context moving between two
    DRLCs, and both at once — each checked applied and again after the
    previous state is restored (which migrates the edges back)."""
    app = random_application(
        GeneratorConfig(num_tasks=26, topology="tgff"), seed=4
    )
    arch = _dual_resource_arch()
    solution = random_initial_solution(
        app, arch, random.Random(seed), hw_fraction=0.5
    )
    full = Evaluator(app, arch, engine="full")
    incremental = Evaluator(app, arch, engine="incremental")

    def layout():
        return (
            [list(solution.software_order(p)) for p in ("cpu0", "cpu1")],
            [[list(c) for c in solution.contexts(r)]
             for r in ("fpga_a", "fpga_b")],
        )

    _assert_same(
        full.evaluate(solution), incremental.evaluate(solution), "initial"
    )
    for edits in (
        (_move_adjacent_pair,),
        (_move_fitting_context,),
        (_move_adjacent_pair, _move_fitting_context),
    ):
        names = [edit.__name__ for edit in edits]
        before = layout()
        undos = [edit(solution) for edit in edits]
        assert layout() != before
        _assert_same(
            full.evaluate(solution), incremental.evaluate(solution), names
        )
        for undo in reversed(undos):
            undo()
        assert layout() == before
        _assert_same(
            full.evaluate(solution),
            incremental.evaluate(solution),
            f"{names} restored",
        )


def _asic_arch() -> Architecture:
    arch = Architecture("with_asic", bus=Bus(rate_kbytes_per_ms=40.0))
    arch.add_resource(Processor("cpu"))
    arch.add_resource(ReconfigurableCircuit("fpga", n_clbs=900))
    arch.add_resource(Asic("asic", monetary_cost=8.0))
    arch.validate()
    return arch


def test_engine_parity_strict_raises_on_cycles(small_app, small_arch):
    """Cyclic realizations: both engines report infeasible, and strict
    mode re-raises from both."""
    from repro.errors import CycleError
    from repro.mapping.solution import Solution

    solution = Solution(small_app, small_arch)
    # Reverse-precedence software order 5..0 creates a cyclic realization
    # only when combined with a hardware context in between; simplest
    # guaranteed cycle: put 3 (middle) in hardware, everything else on
    # the cpu in reverse order, so sequentialization opposes precedence.
    order = [5, 4, 3, 2, 1, 0]
    for t in order:
        if t == 3:
            continue
        solution.assign_to_processor(t, "cpu")
    solution.spawn_context(3, "fpga")
    evaluators = [
        Evaluator(small_app, small_arch, engine=name) for name in ENGINES
    ]
    for evaluator in evaluators:
        ev = evaluator.evaluate(solution)
        assert not ev.feasible
        assert math.isinf(ev.makespan_ms)
        assert math.isinf(evaluator.makespan_ms(solution))
        with pytest.raises(CycleError):
            evaluator.evaluate(solution, strict=True)


def test_make_engine_validates_names(small_app, small_arch):
    assert ENGINES == ("full", "incremental", "array")
    assert isinstance(
        make_engine("full", small_app, small_arch), FullRebuildEngine
    )
    assert isinstance(
        make_engine("incremental", small_app, small_arch), IncrementalEngine
    )
    # "array" is kept for persisted specs: it builds the same engine.
    assert type(make_engine("array", small_app, small_arch)) is type(
        make_engine("incremental", small_app, small_arch)
    )
    with pytest.raises(ConfigurationError):
        make_engine("warp", small_app, small_arch)


def test_evaluator_engine_knob(small_app, small_arch, small_solution):
    full = Evaluator(small_app, small_arch, engine="full")
    inc = Evaluator(small_app, small_arch, engine="incremental")
    assert full.engine_name == "full"
    assert inc.engine_name == "incremental"
    assert full.evaluate(small_solution) == inc.evaluate(small_solution)
    assert full.evaluations == inc.evaluations == 1
    # Passing a prebuilt engine instance is accepted too.
    engine = IncrementalEngine(small_app, small_arch)
    wrapped = Evaluator(small_app, small_arch, engine=engine)
    assert wrapped.engine is engine