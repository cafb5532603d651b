"""Unit tests for the core Dag structure."""

import pytest

from repro.errors import CycleError, GraphError
from repro.graph.dag import Dag


@pytest.fixture
def diamond() -> Dag:
    dag = Dag()
    dag.add_edge(0, 1, 1.0)
    dag.add_edge(0, 2, 2.0)
    dag.add_edge(1, 3, 3.0)
    dag.add_edge(2, 3, 4.0)
    return dag


class TestConstruction:
    def test_empty(self):
        dag = Dag()
        assert len(dag) == 0
        assert dag.num_edges() == 0
        assert dag.topological_order() == []

    def test_add_node_merges_attrs(self):
        dag = Dag()
        dag.add_node("a", color="red")
        dag.add_node("a", size=3)
        assert dag.node_attrs("a") == {"color": "red", "size": 3}

    def test_add_edge_creates_endpoints(self):
        dag = Dag()
        dag.add_edge("x", "y", 5.0)
        assert "x" in dag and "y" in dag
        assert dag.edge_weight("x", "y") == 5.0

    def test_self_loop_rejected(self):
        dag = Dag()
        with pytest.raises(GraphError):
            dag.add_edge("a", "a")

    def test_duplicate_edge_rejected(self, diamond):
        with pytest.raises(GraphError):
            diamond.add_edge(0, 1)

    def test_edge_attrs(self):
        dag = Dag()
        dag.add_edge(0, 1, 1.0, kind="comm")
        assert dag.edge_attrs(0, 1) == {"kind": "comm"}
        with pytest.raises(GraphError):
            dag.edge_attrs(1, 0)


class TestMutation:
    def test_remove_edge(self, diamond):
        diamond.remove_edge(0, 1)
        assert not diamond.has_edge(0, 1)
        assert diamond.has_edge(0, 2)
        with pytest.raises(GraphError):
            diamond.remove_edge(0, 1)

    def test_remove_node_strips_edges(self, diamond):
        diamond.remove_node(1)
        assert 1 not in diamond
        assert not diamond.has_edge(0, 1)
        assert not diamond.has_edge(1, 3)
        assert diamond.has_edge(2, 3)

    def test_remove_missing_node(self, diamond):
        with pytest.raises(GraphError):
            diamond.remove_node(99)

    def test_set_edge_weight(self, diamond):
        diamond.set_edge_weight(0, 1, 9.0)
        assert diamond.edge_weight(0, 1) == 9.0
        with pytest.raises(GraphError):
            diamond.set_edge_weight(3, 0, 1.0)


class TestQueries:
    def test_degrees_and_neighbors(self, diamond):
        assert set(diamond.successors(0)) == {1, 2}
        assert set(diamond.predecessors(3)) == {1, 2}
        assert diamond.out_degree(0) == 2
        assert diamond.in_degree(3) == 2

    def test_missing_node_queries(self, diamond):
        with pytest.raises(GraphError):
            diamond.successors(42)
        with pytest.raises(GraphError):
            diamond.predecessors(42)

    def test_sources_sinks(self, diamond):
        assert diamond.sources() == [0]
        assert diamond.sinks() == [3]

    def test_has_path(self, diamond):
        assert diamond.has_path(0, 3)
        assert not diamond.has_path(3, 0)
        assert not diamond.has_path(0, 99)

    def test_ancestors_descendants(self, diamond):
        assert diamond.descendants(0) == {1, 2, 3}
        assert diamond.ancestors(3) == {0, 1, 2}
        assert diamond.descendants(3) == set()


class TestTopology:
    def test_topological_order(self, diamond):
        order = diamond.topological_order()
        pos = {n: i for i, n in enumerate(order)}
        for src, dst, _ in diamond.edges():
            assert pos[src] < pos[dst]

    def test_topological_order_is_fifo_deterministic(self):
        """Kahn's ready set drains FIFO: the order is the breadth-first
        layering in node insertion order, stable across runs/versions."""
        dag = Dag()
        for n in (10, 20, 30, 40, 50):
            dag.add_node(n)
        dag.add_edge(10, 40)
        dag.add_edge(30, 40)
        dag.add_edge(20, 50)
        # Sources in insertion order (10, 20, 30), then newly freed
        # nodes in the order their last predecessor was processed.
        assert dag.topological_order() == [10, 20, 30, 50, 40]
        assert dag.topological_order() == dag.topological_order()

    def test_cycle_detection(self):
        dag = Dag()
        dag.add_edge(0, 1)
        dag.add_edge(1, 2)
        dag.add_edge(2, 0)
        assert not dag.is_acyclic()
        with pytest.raises(CycleError):
            dag.check_acyclic()

    def test_acyclic(self, diamond):
        assert diamond.is_acyclic()


class TestConversion:
    def test_copy_is_independent(self, diamond):
        clone = diamond.copy()
        clone.remove_edge(0, 1)
        assert diamond.has_edge(0, 1)
        assert not clone.has_edge(0, 1)

    def test_from_edges(self):
        dag = Dag.from_edges([(0, 1), (1, 2)], nodes=[5])
        assert 5 in dag
        assert dag.has_edge(0, 1)
        assert dag.num_edges() == 2
