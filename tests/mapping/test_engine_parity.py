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
from repro.errors import ConfigurationError, CycleError, InfeasibleMoveError
from repro.io import application_from_dict, application_to_dict
from repro.mapping.compiled import compile_instance
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
from repro.sa.moves import (
    CreateResourceMove,
    MoveGenerator,
    RemoveResourceMove,
    ReorderMove,
    _contexts_ok,
)

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
        (20, "tgff", 7, lambda: _two_speed_arch(), 0.0, "ordered"),
        (24, "fork_join", 8, lambda: epicure_architecture(600), 0.0, "ordered"),
        (24, "series_parallel", 9, lambda: epicure_architecture(600), 0.0, "edge"),
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
_REPLAYS = 10


@pytest.mark.parametrize("engines", ENGINE_PAIRS, ids=lambda p: "-vs-".join(p))
def test_engine_parity_on_random_move_sequences(engines):
    """>= 500 random accepted/rejected moves across varied instances,
    per engine pair."""
    # random-instance share of the >=500 target
    assert _replay_random_instances(engines) >= 480


@pytest.mark.parametrize("engines", ENGINE_PAIRS, ids=lambda p: "-vs-".join(p))
def test_engine_parity_on_motion_benchmark(engines):
    assert _replay_motion(engines) >= 100


@pytest.mark.parametrize("engines", ENGINE_PAIRS, ids=lambda p: "-vs-".join(p))
def test_engine_parity_when_the_tie_order_is_not_the_index_order(engines):
    """The 18-task tgff seed-2 graph with its dependency list reversed:
    each task's transfers are listed destination-descending, so the bus
    chain's tie order (source, destination) differs from the transfer
    index order, which the other replay inputs all keep."""
    document = application_to_dict(random_application(
        GeneratorConfig(num_tasks=18, topology="tgff"), seed=2
    ))
    document["dependencies"].reverse()
    app = application_from_dict(document)
    compiled = compile_instance(app, epicure_architecture(1200).bus)
    ntasks, ndeps = compiled.ntasks, compiled.ndeps
    assert compiled.tie_order != list(range(ntasks, ntasks + ndeps))
    assert _replay(
        app, lambda: epicure_architecture(1200), seed=202, steps=80,
        engines=engines,
    ) >= 80


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


def _replay_instance():
    """A 30-task solution with a 16-task processor order and a
    five-context DRLC: ``(app, arch, solution, cpu, rc)``."""
    app = random_application(
        GeneratorConfig(num_tasks=30, topology="tgff"), seed=5
    )
    arch = epicure_architecture(300)
    solution = random_initial_solution(
        app, arch, random.Random(1), hw_fraction=0.5
    )
    cpu = arch.processors()[0].name
    rc = arch.reconfigurable_circuits()[0].name
    assert len(solution.software_order(cpu)) >= 10
    assert len(solution.contexts(rc)) == 5
    return app, arch, solution, cpu, rc


def _follow(app, arch, solution, steps):
    """Walk ``steps``, ``(label, apply, undo)`` triples where ``undo``
    takes what ``apply`` returned, with the reference and the
    incremental engine; they must agree after every apply and undo, and
    the incremental engine must replay every step from the journal
    (its one full re-check is the first evaluation).  Returns the
    incremental engine's counter increments per applied step label."""
    full = Evaluator(app, arch, engine="full")
    incremental = Evaluator(app, arch, engine="incremental")
    engine = incremental.engine
    _assert_same(
        full.evaluate(solution), incremental.evaluate(solution), "initial"
    )
    deltas = {}
    for label, apply, undo in steps:
        before = engine.telemetry_counters()
        token = apply(solution)
        _assert_same(
            full.evaluate(solution), incremental.evaluate(solution), label
        )
        after = engine.telemetry_counters()
        deltas[label] = {name: after[name] - before[name] for name in after}
        undo(solution, token)
        _assert_same(
            full.evaluate(solution),
            incremental.evaluate(solution),
            f"{label} undone",
        )
    assert engine.telemetry_counters()["sync_full"] == 1
    return deltas


def _edit(edit):
    """A ``(apply, undo)`` pair around a raw solution edit: ``apply``
    marks the journal and edits, ``undo`` rolls back to the mark."""
    def apply(solution):
        mark = solution.journal_mark()
        edit(solution)
        return mark

    def undo(solution, mark):
        solution.rollback(mark)

    return apply, undo


def _spawnable(solution, rc, position):
    """A software task that can spawn a context at ``position`` of
    ``rc`` without violating precedence."""
    device = solution.architecture.resource(rc)
    for t in solution.software_tasks():
        if not solution.application.task(t).hardware_capable:
            continue
        layout = solution.copy()
        layout.unassign(t)
        if device.fits(0, layout.task_clbs(t)) and _contexts_ok(
            layout, rc, t, position, position
        ):
            return t
    raise AssertionError(f"no task can spawn a context at {position}")


def test_replayed_context_spawns_at_head_middle_and_tail():
    """Spawning a one-task context shifts every later context: the
    replay re-derives it, relinks the boundaries next to it (the
    configuration edges too, at the head), and the undo deletes it."""
    app, arch, solution, _cpu, rc = _replay_instance()
    steps = []
    for label, position in (("head", 0), ("middle", 2), ("tail", 5)):
        task = _spawnable(solution, rc, position)
        steps.append((label, *_edit(
            lambda s, t=task, p=position: s.spawn_context(t, rc, p)
        )))
    deltas = _follow(app, arch, solution, steps)
    for label in ("head", "middle", "tail"):
        assert 1 <= deltas[label]["contexts_refreshed"] <= 2, label
        assert deltas[label]["rc_rebuilds"] == 0, label


def _reimplement(solution, task):
    """Switch ``task`` to another implementation variant."""
    current = solution.implementation_choice(task)
    count = solution.application.task(task).num_implementations
    solution.set_implementation_choice(task, (current + 1) % count)


def test_replayed_implementation_picks():
    """An implementation pick re-derives only its task's context: in
    context 0 it changes the configuration node's duration, in a later
    context the weights of the boundary edges into it."""
    app, arch, solution, _cpu, rc = _replay_instance()
    full = Evaluator(app, arch, engine="full")

    def member(k):
        return next(
            t for t in solution.contexts(rc)[k]
            if app.task(t).num_implementations > 1
        )

    first, later = member(0), member(3)
    reference = full.evaluate(solution)
    for task, field in ((first, "initial_reconfig_ms"),
                        (later, "dynamic_reconfig_ms")):
        mark = solution.journal_mark()
        _reimplement(solution, task)
        assert getattr(full.evaluate(solution), field) != getattr(
            reference, field
        )
        solution.rollback(mark)
    deltas = _follow(app, arch, solution, [
        ("context 0", *_edit(lambda s: _reimplement(s, first))),
        ("context 3", *_edit(lambda s: _reimplement(s, later))),
    ])
    for label in ("context 0", "context 3"):
        assert deltas[label]["contexts_refreshed"] == 1, label


def _long_reorder(solution, cpu):
    """An m1 move that shifts its task at least 4 positions."""
    order = list(solution.software_order(cpu))
    for task in order:
        for dest in order:
            if dest == task:
                continue
            move = ReorderMove(task=task, dest_task=dest)
            try:
                move.apply(solution)
            except InfeasibleMoveError:
                continue
            shift = abs(solution.software_order(cpu).index(task)
                        - order.index(task))
            move.undo(solution)
            if shift >= 4:
                return ReorderMove(task=task, dest_task=dest)
    raise AssertionError("no m1 move shifts a task 4 positions")


def test_replayed_long_reorder_relinks_at_most_six_edges():
    """An m1 move deletes its task from a processor chain and inserts
    it elsewhere: each edit relinks at most three chain edges, however
    far the task travels, and no context is touched."""
    app, arch, solution, cpu, _rc = _replay_instance()
    move = _long_reorder(solution, cpu)

    def apply(s):
        move.apply(s)
        return move

    deltas = _follow(app, arch, solution, [
        ("m1", apply, lambda s, m: m.undo(s)),
    ])
    assert 1 <= deltas["m1"]["edges_relinked"] <= 6
    assert deltas["m1"]["contexts_refreshed"] == 0


@pytest.mark.parametrize("kind", ["processor", "drlc"])
def test_replayed_m3_empties_and_detaches_a_resource(kind):
    """An m3 move that rehomes the only task of a resource and detaches
    the resource is one sync; so is its undo, which attaches it again
    and restores the task."""
    app, arch, solution, cpu, rc = _replay_instance()
    task = next(
        t for t in solution.software_order(cpu)
        if app.task(t).hardware_capable
    )
    if kind == "processor":
        extra = Processor("cpu1")
    else:
        extra = ReconfigurableCircuit("fpga1", n_clbs=300)
    solution.attach_resource(extra)
    if kind == "processor":
        solution.assign_to_processor(task, extra.name)
    else:
        solution.spawn_context(task, extra.name)
    dest = solution.contexts(rc)[0][0]

    def apply(s):
        move = RemoveResourceMove(dest_task=dest, rng=random.Random(0))
        move._picked = (extra.name, task)
        move.apply(s)
        assert extra.name not in s.architecture.resource_names()
        return move

    deltas = _follow(app, arch, solution, [
        ("m3", apply, lambda s, m: m.undo(s)),
    ])
    assert deltas["m3"]["sync_calls"] == 1


def test_rollback_reattaches_an_empty_drlc():
    """An m3 detaches a DRLC that hosts nothing, and its undo attaches
    it again, still empty: no context was refreshed for it, and it must
    read as zero contexts, like the reference."""
    app, arch, solution, _cpu, rc = _replay_instance()
    extra = ReconfigurableCircuit("fpga1", n_clbs=300)
    solution.attach_resource(extra)
    dest = solution.contexts(rc)[0][0]

    def apply(s):
        move = RemoveResourceMove(dest_task=dest, rng=random.Random(0))
        move._picked = (extra.name, None)
        move.apply(s)
        assert extra.name not in s.architecture.resource_names()
        return move

    def undo(s, move):
        move.undo(s)
        assert extra.name in s.architecture.resource_names()
        assert s.contexts(extra.name) == []

    deltas = _follow(app, arch, solution, [("m3", apply, undo)])
    assert deltas["m3"]["contexts_refreshed"] == 0


def test_emptied_drlc_drops_its_configuration_time():
    """A DRLC whose one context takes longer to configure than the
    rest of the schedule runs: emptying it (it stays attached) and an
    m3 that detaches it must both drop its configuration time from the
    makespan, like the reference."""
    app, arch, solution, cpu, rc = _replay_instance()
    task = next(
        t for t in solution.software_order(cpu)
        if app.task(t).hardware_capable
    )
    index = solution.software_order(cpu).index(task)
    slow = ReconfigurableCircuit("fpga1", n_clbs=300, reconfig_ms_per_clb=50.0)
    solution.attach_resource(slow)
    solution.spawn_context(task, slow.name)
    full = Evaluator(app, arch, engine="full")
    configured = full.evaluate(solution).makespan_ms
    assert configured >= slow.reconfiguration_time_ms(solution.task_clbs(task))
    dest = solution.contexts(rc)[0][0]

    def detach(s):
        move = RemoveResourceMove(dest_task=dest, rng=random.Random(0))
        move._picked = (slow.name, task)
        move.apply(s)
        assert full.evaluate(s).makespan_ms < configured
        return move

    _follow(app, arch, solution, [
        ("empty", *_edit(lambda s: s.assign_to_processor(task, cpu, index))),
        ("m3", detach, lambda s, m: m.undo(s)),
    ])


def test_replay_across_the_journal_limit():
    """A move walk long enough for the journal to start over at
    ``JOURNAL_LIMIT``: every evaluation agrees with the reference, and
    only the sync whose records were trimmed away re-checks in full."""
    app, arch, solution, _cpu, _rc = _replay_instance()
    full = Evaluator(app, arch, engine="full")
    incremental = Evaluator(app, arch, engine="incremental")
    generator = MoveGenerator(app)
    rng = random.Random(3)
    _assert_same(
        full.evaluate(solution), incremental.evaluate(solution), "initial"
    )
    steps = 0
    while solution._journal_base == 0 or steps % 50:
        try:
            move = generator.propose(solution, rng)
            move.apply(solution)
        except InfeasibleMoveError:
            continue
        steps += 1
        _assert_same(
            full.evaluate(solution),
            incremental.evaluate(solution),
            f"step {steps}",
        )
        if rng.random() < 0.5:
            move.undo(solution)
    counters = incremental.engine.telemetry_counters()
    assert solution._journal_base > solution_module.JOURNAL_LIMIT
    assert 2 <= counters["sync_full"] <= 1 + solution._journal_base // (
        solution_module.JOURNAL_LIMIT
    )


def _processors(count: int) -> Architecture:
    arch = Architecture("procs", bus=Bus(rate_kbytes_per_ms=2.0))
    for k in range(count):
        arch.add_resource(Processor(f"cpu{k}"))
    arch.validate()
    return arch


def _hand_placed(sw_times, deps, cpus, layout, kbytes=None):
    """A hand-placed software-only solution, where every dependency
    carries 4 KB (a 2 ms transfer) unless ``kbytes`` maps it to another
    volume, with a reference and an incremental evaluator:
    ``(solution, full, incremental)``."""
    app = Application("hand-placed")
    for i, ms in enumerate(sw_times):
        app.add_task(Task(i, f"t{i}", "F", sw_time_ms=ms))
    for src, dst in deps:
        volume = (kbytes or {}).get((src, dst), 4.0)
        app.add_dependency(src, dst, data_kbytes=volume)
    app.validate()
    arch = _processors(cpus)
    solution = Solution(app, arch)
    for cpu, tasks in layout.items():
        for t in tasks:
            solution.assign_to_processor(t, cpu)
    return (
        solution,
        Evaluator(app, arch, engine="full"),
        Evaluator(app, arch, engine="incremental"),
    )


def _chain_walk(sw_times, deps, cpus, layout, edits):
    """Evaluate a :func:`_hand_placed` solution, then each edit in turn,
    with the reference and the incremental engine, which must agree
    after every step.  Returns the reference graph's comm-node
    ``(start, finish)`` per step label and the incremental engine's
    counters."""
    solution, full, incremental = _hand_placed(sw_times, deps, cpus, layout)
    spans = {}
    for label, edit in [("initial", None)] + list(edits):
        if edit is not None:
            edit(solution)
        _assert_same(
            full.evaluate(solution), incremental.evaluate(solution), label
        )
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


def test_bus_chain_cycle_on_real_input():
    """Dependency 1 -> 0 carries 1e-18 KB, a 5e-19 ms transfer that
    finishes when task 1 does in floating point, so it ties with 0 -> 2,
    which leaves the zero-duration task 0 at the same time.  The (src,
    dst) tie-break chains 0 -> 2 before 1 -> 0, although 1 -> 0 reaches
    0 -> 2 through task 0: the serialized graph is cyclic.  Both engines
    report infeasible and raise in strict mode; moving task 2 next to
    task 0 drops 0 -> 2 from the bus, and moving it back restores the
    cycle."""
    solution, full, incremental = _hand_placed(
        [0.0, 1.0, 1.0], [(1, 0), (0, 2)], 3,
        {"cpu0": [0], "cpu1": [1], "cpu2": [2]},
        kbytes={(1, 0): 1e-18},
    )
    for label, edit, feasible in [
        ("cycle", None, False),
        ("off the bus", lambda s: s.assign_to_processor(2, "cpu0"), True),
        ("cycle again", lambda s: s.assign_to_processor(2, "cpu2"), False),
    ]:
        if edit is not None:
            edit(solution)
        full_ev = full.evaluate(solution)
        _assert_same(full_ev, incremental.evaluate(solution), label)
        assert full_ev.feasible is feasible, label
        if not feasible:
            for evaluator in (full, incremental):
                with pytest.raises(CycleError):
                    evaluator.evaluate(solution, strict=True)


def _order_walk(deps, layout, edits):
    """Evaluate a :func:`_hand_placed` six-task solution on two
    processors, then each edit in turn, with the reference and the
    incremental engine.  Returns ``(label, feasible, order_repairs,
    order_rebuilds)`` after each step, the counters read from the
    incremental engine."""
    solution, full, incremental = _hand_placed(
        [1.0 + i / 4 for i in range(6)], deps, 2, layout
    )
    counts = []
    for label, edit in [("initial", None)] + list(edits):
        if edit is not None:
            edit(solution)
        full_ev = full.evaluate(solution)
        _assert_same(full_ev, incremental.evaluate(solution), label)
        counters = incremental.engine.telemetry_counters()
        counts.append(
            (label, full_ev.feasible,
             counters["order_repairs"], counters["order_rebuilds"])
        )
    return counts


def _swap_pairs(solution):
    """cpu0 ``[0, 1, 2, 3]`` -> ``[1, 0, 3, 2]`` in one delta: chain
    edges 1->0 and 3->2 both contradict the stored order."""
    solution.assign_to_processor(1, "cpu0", 0)
    solution.assign_to_processor(3, "cpu0", 2)


def test_two_contradicting_base_edges_rebuild_the_order():
    """Two contradicting base edges in one delta go to one Kahn over the
    base layers, not to an in-place repair, and still score like the
    reference."""
    counts = _order_walk(
        [(0, 4), (2, 5)], {"cpu0": [0, 1, 2, 3], "cpu1": [4, 5]},
        [("swap pairs", _swap_pairs)],
    )
    assert counts == [
        ("initial", True, 0, 1),
        ("swap pairs", True, 0, 2),
    ]


def test_one_edge_cycle_keeps_the_stored_order():
    """Moving task 2 ahead of its predecessor 0 on the same processor
    adds one contradicting chain edge that closes a cycle: the failed
    insert is the infeasible verdict.  After the move is undone the
    stored order is valid again, so neither a repair nor a rebuild
    runs."""
    counts = _order_walk(
        [(0, 2), (3, 4)], {"cpu0": [0, 1, 2, 3], "cpu1": [4, 5]},
        [
            ("cycle", lambda s: s.assign_to_processor(2, "cpu0", 0)),
            ("undo", lambda s: s.assign_to_processor(2, "cpu0", 2)),
            ("cycle again", lambda s: s.assign_to_processor(2, "cpu0", 0)),
        ],
    )
    assert counts == [
        ("initial", True, 0, 1),
        ("cycle", False, 0, 1),
        ("undo", True, 0, 1),
        ("cycle again", False, 0, 1),
    ]


def test_failed_order_repair_leaves_no_stale_order():
    """Several base edges that contradict the stored order in one delta
    are sorted by one Kahn, never repaired in place edge by edge.  On
    this SA request (motion/2000 at the paper's 8000-iteration budget) a
    half-repaired order placed a task before its static predecessor,
    mis-scored 33 candidates and changed the trajectory."""
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


def _two_speed_arch() -> Architecture:
    arch = Architecture("two_speed", bus=Bus(rate_kbytes_per_ms=30.0))
    arch.add_resource(Processor("cpu0"))
    arch.add_resource(Processor("cpu1", speed_factor=1.4))
    arch.add_resource(ReconfigurableCircuit("fpga", n_clbs=800))
    arch.validate()
    return arch


class _SubProcessor(Processor):
    """Not the exact built-in type, which the incremental engine
    refuses: a subclass may override what it derives natively."""


def test_incremental_engine_refuses_resource_subclasses():
    """A resource subclass in the architecture: the incremental engine
    raises, naming the reference engine, which scores the solution."""
    arch = Architecture("subclassed", bus=Bus(rate_kbytes_per_ms=30.0))
    arch.add_resource(_SubProcessor("cpu0"))
    arch.add_resource(ReconfigurableCircuit("fpga", n_clbs=800))
    arch.validate()
    app = random_application(
        GeneratorConfig(num_tasks=12, topology="tgff"), seed=7
    )
    solution = random_initial_solution(app, arch, random.Random(7))
    with pytest.raises(ConfigurationError, match="engine='full'"):
        Evaluator(app, arch, engine="incremental").evaluate(solution)
    evaluation = Evaluator(app, arch, engine="full").evaluate(solution)
    assert evaluation.feasible and math.isfinite(evaluation.makespan_ms)


def test_subclass_attached_by_m4_is_refused_until_undone():
    """An m4 whose factory builds a resource subclass: the next
    evaluation raises, and after the undo the same engine scores like
    the reference again."""
    app, arch, solution, cpu, _rc = _replay_instance()
    full = Evaluator(app, arch, engine="full")
    incremental = Evaluator(app, arch, engine="incremental")
    _assert_same(
        full.evaluate(solution), incremental.evaluate(solution), "initial"
    )
    move = CreateResourceMove(
        solution.software_order(cpu)[0], _SubProcessor, prefix="sub",
        rng=random.Random(0),
    )
    move.apply(solution)
    assert isinstance(solution.architecture.resource(move._name), _SubProcessor)
    with pytest.raises(ConfigurationError, match="engine='full'"):
        incremental.evaluate(solution)
    assert full.evaluate(solution).feasible
    move.undo(solution)
    _assert_same(
        full.evaluate(solution), incremental.evaluate(solution), "undone"
    )


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