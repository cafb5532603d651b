"""Reachability bitsets: parity with the path-count closure.

The move generator's precedence checks now answer through
:class:`repro.graph.reachability.ReachabilityIndex` (one big-int
shift-and-mask per query) instead of the closure's dict-and-list walk.
These tests pin the index against the closure's graph-walk answer over
the *full* scenario corpus, plus the cache-invalidation contract on
``Application``.
"""

import pytest

from repro.bench.corpus import CORPUS, get_scenario
from repro.errors import GraphError
from repro.graph.dag import Dag
from repro.graph.reachability import ReachabilityIndex
from repro.model.application import Application
from repro.model.task import Implementation, Task
from tests.graph.test_closure import PathCountClosure


def _diamond() -> Dag:
    dag = Dag()
    for n in range(1, 5):
        dag.add_node(n)
    dag.add_edge(1, 2)
    dag.add_edge(1, 3)
    dag.add_edge(2, 4)
    dag.add_edge(3, 4)
    return dag


class TestReachabilityIndex:
    def test_diamond_paths(self):
        index = ReachabilityIndex.from_dag(_diamond())
        assert index.has_path(1, 4)
        assert index.has_path(1, 2) and index.has_path(1, 3)
        assert index.has_path(2, 4) and index.has_path(3, 4)
        assert not index.has_path(2, 3) and not index.has_path(3, 2)
        assert not index.has_path(4, 1)
        assert not index.has_path(1, 1)  # strict: no self-reachability

    def test_ancestor_descendant_sets(self):
        index = ReachabilityIndex.from_dag(_diamond())
        assert index.descendants(1) == {2, 3, 4}
        assert index.ancestors(4) == {1, 2, 3}
        assert index.ancestors(1) == set()
        assert index.descendants(4) == set()

    def test_masks_are_consistent(self):
        index = ReachabilityIndex.from_dag(_diamond())
        for a in (1, 2, 3, 4):
            for b in (1, 2, 3, 4):
                forward = index.has_path(a, b)
                via_anc = bool(
                    (index.ancestors_mask(b) >> index.position(a)) & 1
                )
                assert forward == via_anc

    def test_positions_is_a_read_only_bit_map(self):
        index = ReachabilityIndex.from_dag(_diamond())
        positions = index.positions
        assert dict(positions) == {n: index.position(n) for n in (1, 2, 3, 4)}
        with pytest.raises(TypeError):
            positions[1] = 0
        for a in (1, 2, 3, 4):
            for b in (1, 2, 3, 4):
                bit = (index.descendants_mask(a) >> positions[b]) & 1
                assert index.has_path(a, b) == bool(bit)

    def test_unknown_node_raises(self):
        index = ReachabilityIndex.from_dag(_diamond())
        with pytest.raises(GraphError):
            index.has_path(1, 99)
        with pytest.raises(GraphError):
            index.descendants_mask(99)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_parity_with_closure(name):
    """Every (a, b) pair of every corpus scenario answers identically
    through the bitset index and the path-count closure."""
    application = get_scenario(name).build().application
    closure = PathCountClosure.from_dag(application.dag)
    index = application.reachability()
    tasks = application.task_indices()
    for a in tasks:
        for b in tasks:
            expected = closure.has_path(a, b)
            assert index.has_path(a, b) == expected
            assert application.precedes(a, b) == expected


class TestApplicationCache:
    def _app(self):
        app = Application("cache-test")
        for i in (1, 2, 3):
            app.add_task(Task(index=i, name=f"t{i}", functionality=f"f{i}",
                              sw_time_ms=1.0))
        app.add_dependency(1, 2)
        return app

    def test_new_dependency_invalidates(self):
        app = self._app()
        assert app.precedes(1, 2)
        assert not app.precedes(1, 3)
        app.add_dependency(2, 3)
        assert app.precedes(1, 3)  # stale bitsets would say False

    def test_new_task_invalidates(self):
        app = self._app()
        assert not app.precedes(1, 3)
        task = app.add_task(Task(index=4, name="t4", functionality="f4",
                                 sw_time_ms=1.0))
        app.add_dependency(3, 4)
        assert app.precedes(3, 4)
        assert not app.precedes(1, 4)
