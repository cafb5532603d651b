"""Tests for the Solution mapping state and its change journal."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.architecture import Architecture
from repro.arch.asic import Asic
from repro.arch.bus import Bus
from repro.arch.processor import Processor
from repro.arch.reconfigurable import ReconfigurableCircuit
from repro.errors import CapacityError, MappingError
from repro.mapping import solution as solution_module
from repro.mapping.solution import Solution
from repro.model.application import Application
from repro.model.task import Task
from tests.conftest import make_impls, mapping_state


class TestAssignment:
    def test_assign_to_processor_positions(self, small_app, small_arch):
        s = Solution(small_app, small_arch)
        s.assign_to_processor(0, "cpu")
        s.assign_to_processor(1, "cpu")
        s.assign_to_processor(2, "cpu", position=1)
        assert s.software_order("cpu") == [0, 2, 1]
        assert s.resource_name_of(2) == "cpu"

    def test_position_out_of_range(self, small_app, small_arch):
        s = Solution(small_app, small_arch)
        with pytest.raises(MappingError):
            s.assign_to_processor(0, "cpu", position=5)

    def test_unknown_processor(self, small_app, small_arch):
        s = Solution(small_app, small_arch)
        with pytest.raises(MappingError):
            s.assign_to_processor(0, "gpu")

    def test_unassigned_task_queries(self, small_app, small_arch):
        s = Solution(small_app, small_arch)
        with pytest.raises(MappingError):
            s.resource_name_of(0)
        assert not s.is_assigned(0)

    def test_reassignment_moves_off_old_resource(self, small_app, small_arch):
        s = Solution(small_app, small_arch)
        s.assign_to_processor(1, "cpu")
        s.spawn_context(1, "fpga")
        assert s.software_order("cpu") == []
        assert s.context_of(1) == ("fpga", 0)


class TestContexts:
    def test_spawn_and_join(self, small_app, small_arch):
        s = Solution(small_app, small_arch)
        s.spawn_context(1, "fpga")
        s.assign_to_context(2, "fpga", 0)
        assert s.contexts("fpga") == [[1, 2]]
        assert s.context_clbs("fpga", 0) == 180

    def test_capacity_enforced(self, small_app, small_arch):
        s = Solution(small_app, small_arch)
        s.set_implementation_choice(1, 1)  # 200 CLBs
        s.set_implementation_choice(2, 1)  # 160 CLBs -> 360 > 300
        s.spawn_context(1, "fpga")
        with pytest.raises(CapacityError):
            s.assign_to_context(2, "fpga", 0)

    def test_software_only_task_rejected(self, small_app, small_arch):
        s = Solution(small_app, small_arch)
        with pytest.raises(MappingError):
            s.spawn_context(0, "fpga")
        s.spawn_context(1, "fpga")
        with pytest.raises(MappingError):
            s.assign_to_context(4, "fpga", 0)

    def test_empty_context_pruned_on_unassign(self, small_app, small_arch):
        s = Solution(small_app, small_arch)
        s.spawn_context(1, "fpga")
        s.spawn_context(3, "fpga")
        assert s.num_contexts("fpga") == 2
        s.assign_to_processor(1, "cpu")
        assert s.contexts("fpga") == [[3]]
        assert s.context_of(3) == ("fpga", 0)

    def test_spawn_position(self, small_app, small_arch):
        s = Solution(small_app, small_arch)
        s.spawn_context(1, "fpga")
        s.spawn_context(3, "fpga")
        s.spawn_context(2, "fpga", position=1)
        assert s.contexts("fpga") == [[1], [2], [3]]

    def test_initial_and_terminal_nodes(self, small_app, small_arch):
        s = Solution(small_app, small_arch)
        s.spawn_context(1, "fpga")
        s.assign_to_context(2, "fpga", 0)
        s.assign_to_context(3, "fpga", 0)  # 100+80+120 = 300 exactly
        # preds of 1, 2 (task 0) are outside; 3's preds (1, 2) are inside
        assert set(s.context_initial_nodes("fpga", 0)) == {1, 2}
        # succ of 3 (task 4) outside; 1, 2's succ (3) inside
        assert s.context_terminal_nodes("fpga", 0) == [3]

    def test_task_too_big_for_device(self, small_app, small_arch):
        s = Solution(small_app, small_arch)
        s.set_implementation_choice(3, 1)  # 240 CLBs
        s.spawn_context(1, "fpga")
        s.set_implementation_choice(1, 1)  # 200 in ctx
        # spawning a 240-CLB context works (240 < 300)...
        s.spawn_context(3, "fpga")
        # ...but a 400-CLB fake impl would not; emulate via capacity check
        fpga = small_arch.resource("fpga")
        assert not fpga.fits(0, 400)


class TestImplementationChoices:
    def test_default_choice_is_zero(self, small_app, small_arch):
        s = Solution(small_app, small_arch)
        assert s.implementation_choice(1) == 0
        assert s.task_clbs(1) == 100

    def test_choice_changes_area(self, small_app, small_arch):
        s = Solution(small_app, small_arch)
        s.set_implementation_choice(1, 1)
        assert s.task_clbs(1) == 200

    def test_invalid_choice_rejected(self, small_app, small_arch):
        s = Solution(small_app, small_arch)
        with pytest.raises(Exception):
            s.set_implementation_choice(1, 7)


class TestValidationAndCopy:
    def test_valid_full_assignment(self, small_solution):
        small_solution.validate()

    def test_missing_task_detected(self, small_app, small_arch):
        s = Solution(small_app, small_arch)
        s.assign_to_processor(0, "cpu")
        with pytest.raises(MappingError):
            s.validate()

    def test_copy_is_deep(self, small_solution):
        clone = small_solution.copy()
        clone.spawn_context(1, "fpga")
        assert small_solution.resource_name_of(1) == "cpu"
        assert clone.resource_name_of(1) == "fpga"
        small_solution.validate()
        clone.validate()

    def test_summary_mentions_resources(self, small_solution):
        text = small_solution.summary()
        assert "cpu" in text and "fpga" in text

    def test_hardware_software_lists(self, small_app, small_arch):
        s = Solution(small_app, small_arch)
        for t in (0, 2, 4, 5):
            s.assign_to_processor(t, "cpu")
        s.spawn_context(1, "fpga")
        s.assign_to_context(3, "fpga", 0)
        assert sorted(s.hardware_tasks()) == [1, 3]
        assert sorted(s.software_tasks()) == [0, 2, 4, 5]


def _journal_instance():
    """Five hardware-capable tasks in a chain plus one software task,
    two processors, a DRLC small enough to force several contexts, and
    an ASIC."""
    app = Application("journal")
    app.add_task(Task(0, "src", "IO", 1.0))
    for t in range(1, 6):
        app.add_task(Task(t, f"hw{t}", "F", 2.0, make_impls((40, 0.5), (70, 0.3))))
    for t in range(5):
        app.add_dependency(t, t + 1, 1.0)
    arch = Architecture("journal_arch", bus=Bus())
    arch.add_resource(Processor("cpu0"))
    arch.add_resource(Processor("cpu1"))
    arch.add_resource(ReconfigurableCircuit("fpga", n_clbs=100))
    arch.add_resource(Asic("asic"))
    return app, arch


#: Factories of the resources the property attaches.
_NEW_RESOURCES = (
    Processor,
    lambda name: ReconfigurableCircuit(name, n_clbs=100),
    Asic,
)


def _mutate(solution, op, fresh):
    """Apply one raw mutator drawn by the property; errors a primitive
    raises are part of the walk (some raise after a journaled edit)."""
    kind, task, a, b = op
    arch = solution.architecture
    procs = [r.name for r in arch.processors()]
    rcs = [r.name for r in arch.reconfigurable_circuits()]
    asics = [r.name for r in arch.asics()]
    try:
        if kind == "proc" and procs:
            name = procs[a % len(procs)]
            order = solution.software_order(name)
            solution.assign_to_processor(task, name, b % (len(order) + 2))
        elif kind == "ctx" and rcs:
            name = rcs[a % len(rcs)]
            k = b % (len(solution.contexts(name)) + 1)
            solution.assign_to_context(task, name, k)
        elif kind == "spawn" and rcs:
            name = rcs[a % len(rcs)]
            solution.spawn_context(task, name, b % (len(solution.contexts(name)) + 2))
        elif kind == "asic" and asics:
            solution.assign_to_asic(task, asics[a % len(asics)])
        elif kind == "impl":
            solution.set_implementation_choice(task, b % 2)
        elif kind == "unassign":
            solution.unassign(task)
        elif kind == "attach":
            factory = _NEW_RESOURCES[a % len(_NEW_RESOURCES)]
            solution.attach_resource(factory(f"new{next(fresh)}"))
        elif kind == "detach":
            names = arch.resource_names()
            solution.detach_resource(names[a % len(names)])
    except (MappingError, CapacityError):
        pass


_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["proc", "ctx", "spawn", "asic", "impl", "unassign", "attach", "detach"]
        ),
        st.integers(1, 5),
        st.integers(0, 7),
        st.integers(0, 7),
    ),
    max_size=25,
)


class TestJournal:
    @given(prefix=_OPS, first=_OPS, second=_OPS)
    @settings(max_examples=150, deadline=None)
    def test_rollback_restores_exactly(self, prefix, first, second):
        """Raw mutator sequences (context member order, pruned contexts,
        spawn positions, attach/detach included) restore exactly after
        ``rollback(mark)``, through nested marks as well."""
        app, arch = _journal_instance()
        solution = Solution(app, arch)
        for t in range(6):
            solution.assign_to_processor(t, "cpu0")
        fresh = itertools.count()
        for op in prefix:
            _mutate(solution, op, fresh)
        state0 = mapping_state(solution)
        names0 = sorted(arch.resource_names())
        mark0 = solution.journal_mark()
        for op in first:
            _mutate(solution, op, fresh)
        state1 = mapping_state(solution)
        names1 = sorted(arch.resource_names())
        mark1 = solution.journal_mark()
        for op in second:
            _mutate(solution, op, fresh)
        solution.rollback(mark1)
        assert mapping_state(solution) == state1
        assert sorted(arch.resource_names()) == names1
        solution.rollback(mark0)
        assert mapping_state(solution) == state0
        # The rollback re-attaches detached resources last; the resource
        # set (not its enumeration order, which m3's undo restores) is
        # part of the exact state.
        assert sorted(arch.resource_names()) == names0

    def test_pruned_context_comes_back_in_place(self, small_app, small_arch):
        s = Solution(small_app, small_arch)
        s.spawn_context(2, "fpga")
        s.assign_to_context(1, "fpga", 0)
        s.spawn_context(3, "fpga")
        assert s.contexts("fpga") == [[2, 1], [3]]
        mark = s.journal_mark()
        s.assign_to_processor(3, "cpu")
        s.assign_to_processor(2, "cpu")
        assert s.contexts("fpga") == [[1]]
        s.rollback(mark)
        assert s.contexts("fpga") == [[2, 1], [3]]

    def test_journal_starts_at_the_first_mark(self, small_solution):
        assert small_solution._journal is None  # built unjournaled
        with pytest.raises(MappingError):
            small_solution.rollback(0)
        mark = small_solution.journal_mark()
        assert mark == 0 and small_solution._journal == []
        small_solution.spawn_context(1, "fpga")
        assert len(small_solution._journal) == 2  # unassign + spawn
        clone = small_solution.copy()
        assert clone._journal is None
        assert mapping_state(clone) == mapping_state(small_solution)

    def test_mark_past_the_limit_starts_a_fresh_journal(
        self, small_solution, monkeypatch
    ):
        monkeypatch.setattr(solution_module, "JOURNAL_LIMIT", 3)
        s = small_solution
        old = s.journal_mark()
        s.spawn_context(1, "fpga")
        s.spawn_context(2, "fpga")
        mid = s.journal_mark()
        # Four records (unassign + spawn, twice) exceed the limit: a
        # fresh journal starts, and positions stay absolute.
        assert (old, mid) == (0, 4) and s._journal == []
        s.set_implementation_choice(3, 1)
        s.rollback(mid)
        assert s.implementation_choice(3) == 0
        assert s.contexts("fpga") == [[1], [2]]
        with pytest.raises(MappingError):
            s.rollback(old)
