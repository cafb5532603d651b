"""The compile pass: dense tables and id layout."""

from __future__ import annotations

import pytest

from repro.arch.architecture import epicure_architecture
from repro.mapping.compiled import CompiledInstance, compile_instance
from repro.mapping.engine import IncrementalEngine
from repro.model.application import Application
from repro.model.motion import motion_detection_application
from repro.model.task import Task


@pytest.fixture
def compiled(small_app, small_arch):
    return compile_instance(small_app, small_arch.bus)


class TestTables:
    def test_id_layout(self, compiled, small_app):
        """Tasks occupy [0, T), comm nodes [T, T + D) in dependency
        order — the layout every engine's fast path assumes."""
        assert compiled.ntasks == len(small_app)
        assert compiled.ndeps == small_app.dag.num_edges()
        assert compiled.tasks == list(small_app.task_indices())
        for j in range(compiled.ndeps):
            assert compiled.dep_comm[j] == compiled.ntasks + j
        assert len(compiled.interner) == compiled.ntasks + compiled.ndeps

    def test_durations_and_impls(self, compiled, small_app):
        for i, t in enumerate(compiled.tasks):
            task = small_app.task(t)
            assert compiled.sw_ms[i] == task.sw_time_ms
            if task.hardware_capable:
                assert compiled.impl_ms[i] == [
                    impl.time_ms for impl in task.implementations
                ]
            else:
                assert compiled.impl_ms[i] is None

    def test_transfer_times_use_the_bus(self, compiled, small_app, small_arch):
        deps = list(small_app.dependencies())
        for j, (_src, _dst, kbytes) in enumerate(deps):
            assert compiled.dep_transfer[j] == (
                small_arch.bus.transfer_time_ms(kbytes)
            )

    def test_static_layer_indegrees(self, compiled):
        # Every comm node has exactly one static in-edge (its source);
        # every task's static indegree is its dependency fan-in.
        for j in range(compiled.ndeps):
            assert compiled.indeg_static[compiled.ntasks + j] == 1
        for i in range(compiled.ntasks):
            assert compiled.indeg_static[i] == len(compiled.pred_comms[i])

    def test_tie_order_follows_source_then_destination(self):
        """Dependency 0 -> 2 is added before 0 -> 1: the bus chain's tie
        order puts the comm node of 0 -> 1 first all the same."""
        app = Application("ties")
        for i in range(3):
            app.add_task(Task(i, f"t{i}", "F", sw_time_ms=1.0))
        app.add_dependency(0, 2, data_kbytes=4.0)
        app.add_dependency(0, 1, data_kbytes=4.0)
        compiled = compile_instance(app, epicure_architecture(2000).bus)
        assert compiled.dep_dst == [2, 1]
        assert compiled.tie_order == [4, 3]
        assert compiled.tie_rank == [1, 0]


class TestEngineSharing:
    def test_engines_consume_the_compile_pass(self, small_app, small_arch):
        engine = IncrementalEngine(small_app, small_arch)
        assert isinstance(engine.compiled, CompiledInstance)
        assert engine._dep_transfer is engine.compiled.dep_transfer

    def test_motion_compiles(self):
        app = motion_detection_application()
        arch = epicure_architecture(2000)
        compiled = compile_instance(app, arch.bus)
        assert compiled.ntasks == len(app)
        assert compiled.ndeps == app.dag.num_edges()
