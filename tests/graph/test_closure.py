"""The incremental path-count closure, and its unit and property tests.

The paper (section 4.3) rejects moves that would create a cycle using the
transitive closure matrix of the search graph, with an O(1) lookup per
candidate edge.  We maintain the closure under both edge *insertions and
deletions* by storing, instead of booleans, the **number of distinct
paths** between every ordered pair of nodes.

For a DAG this count algebra is exact:

* inserting edge ``(a, b)`` adds ``P[u][a] * P[b][v]`` new paths from
  ``u`` to ``v`` (every new path crosses the new edge exactly once —
  a path cannot revisit ``a`` after ``b`` in a DAG);
* deleting edge ``(a, b)`` removes exactly the same quantity, because
  the side factors ``P[u][a]`` and ``P[b][v]`` cannot themselves use the
  edge (that would require a ``b``-to-``a`` path, i.e. a cycle).

Counts are Python integers (arbitrary precision), so overflow is
impossible even though path counts grow combinatorially.  Updates are
O(n²); reachability and cycle queries are O(1).

:class:`PathCountClosure` is the reference answer
``tests/graph/test_reachability.py`` checks the library's
:class:`~repro.graph.reachability.ReachabilityIndex` against.
"""

import random
from typing import Dict, Hashable, Iterable, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CycleError, GraphError
from repro.graph.generators import random_dag

Node = Hashable


class PathCountClosure:
    """Path-count matrix over a dynamic node set.

    ``P[i][j]`` counts the directed paths (of length >= 1) from node ``i``
    to node ``j``.  The diagonal is implicitly 1 (the empty path), which
    makes the insert/delete rank-1 updates uniform.
    """

    def __init__(self, nodes: Iterable[Node] = ()) -> None:
        self._index: Dict[Node, int] = {}
        self._free: List[int] = []
        # Row-major list of lists of ints; rows/cols of freed slots are zeroed.
        self._counts: List[List[int]] = []
        self._edges: set = set()
        for node in nodes:
            self.add_node(node)

    # ------------------------------------------------------------------
    # node management
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._index

    def __len__(self) -> int:
        return len(self._index)

    def add_node(self, node: Node) -> None:
        if node in self._index:
            raise GraphError(f"node {node!r} already tracked")
        if self._free:
            self._index[node] = self._free.pop()
            return
        slot = len(self._counts)
        for row in self._counts:
            row.append(0)
        self._counts.append([0] * (slot + 1))
        self._index[node] = slot

    def remove_node(self, node: Node) -> None:
        """Remove a node; its incident edges must have been removed first."""
        slot = self._require(node)
        row = self._counts[slot]
        if any(row) or any(r[slot] for r in self._counts):
            raise GraphError(f"node {node!r} still has paths; remove its edges first")
        del self._index[node]
        self._free.append(slot)

    def _require(self, node: Node) -> int:
        try:
            return self._index[node]
        except KeyError:
            raise GraphError(f"node {node!r} is not tracked") from None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def path_count(self, src: Node, dst: Node) -> int:
        """Number of distinct paths of length >= 1 from ``src`` to ``dst``."""
        return self._counts[self._require(src)][self._require(dst)]

    def has_path(self, src: Node, dst: Node) -> bool:
        return self.path_count(src, dst) > 0

    def would_create_cycle(self, src: Node, dst: Node) -> bool:
        """O(1): would inserting edge ``(src, dst)`` close a cycle?"""
        if src == dst:
            return True
        return self._counts[self._require(dst)][self._require(src)] > 0

    def has_edge(self, src: Node, dst: Node) -> bool:
        return (src, dst) in self._edges

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def add_edge(self, src: Node, dst: Node) -> None:
        """Insert edge and update all pair counts in O(n²).

        Raises :class:`CycleError` if the edge would close a cycle, and
        :class:`GraphError` if it is a duplicate or a self-loop.
        """
        if src == dst:
            raise GraphError(f"self-loop on {src!r} is not allowed")
        i, j = self._require(src), self._require(dst)
        if (src, dst) in self._edges:
            raise GraphError(f"edge ({src!r}, {dst!r}) already exists")
        counts = self._counts
        if counts[j][i] > 0:
            raise CycleError(f"edge ({src!r}, {dst!r}) would create a cycle")
        self._apply_rank_one(i, j, +1)
        self._edges.add((src, dst))

    def remove_edge(self, src: Node, dst: Node) -> None:
        """Delete edge and downdate all pair counts in O(n²)."""
        if (src, dst) not in self._edges:
            raise GraphError(f"edge ({src!r}, {dst!r}) does not exist")
        i, j = self._require(src), self._require(dst)
        self._apply_rank_one(i, j, -1)
        self._edges.remove((src, dst))

    def _apply_rank_one(self, i: int, j: int, sign: int) -> None:
        """Apply ``P += sign * (P[:, i] + e_i) (P[j, :] + e_j)``.

        The ``+ e`` terms account for the implicit unit diagonal (empty
        paths at the endpoints of the new/removed edge).
        """
        counts = self._counts
        occupied = self._index.values()
        row_j = counts[j]
        # Left factor: paths u -> i, including the empty path at u == i.
        left = [(u, counts[u][i] + (1 if u == i else 0)) for u in occupied]
        for u, lu in left:
            if lu == 0:
                continue
            row_u = counts[u]
            for v in self._index.values():
                rv = row_j[v] + (1 if v == j else 0)
                if rv:
                    row_u[v] += sign * lu * rv
                    if row_u[v] < 0:  # pragma: no cover - defensive
                        raise GraphError("negative path count: closure corrupted")

    # ------------------------------------------------------------------
    # bulk construction / verification helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_dag(cls, dag) -> "PathCountClosure":
        """Build a closure from a :class:`~repro.graph.dag.Dag`."""
        closure = cls(dag.nodes())
        for src, dst, _ in dag.edges():
            closure.add_edge(src, dst)
        return closure

    def recompute_reference(self) -> Dict[Tuple[Node, Node], int]:
        """Recompute all path counts from scratch (test oracle, O(n·e))."""
        succ: Dict[Node, List[Node]] = {n: [] for n in self._index}
        indeg: Dict[Node, int] = {n: 0 for n in self._index}
        for src, dst in self._edges:
            succ[src].append(dst)
            indeg[dst] += 1
        ready = [n for n, d in indeg.items() if d == 0]
        order: List[Node] = []
        while ready:
            node = ready.pop()
            order.append(node)
            for nxt in succ[node]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
        counts: Dict[Tuple[Node, Node], int] = {}
        for start in self._index:
            acc: Dict[Node, int] = {start: 1}
            for node in order:
                value = acc.get(node)
                if not value:
                    continue
                for nxt in succ[node]:
                    acc[nxt] = acc.get(nxt, 0) + value
            for dst, cnt in acc.items():
                if dst != start:
                    counts[(start, dst)] = cnt
        return counts

    def self_check(self) -> None:
        """Assert the incremental matrix matches a from-scratch recount."""
        reference = self.recompute_reference()
        for src, i in self._index.items():
            for dst, j in self._index.items():
                expected = reference.get((src, dst), 0) if src != dst else 0
                actual = self._counts[i][j]
                if src == dst:
                    continue
                if actual != expected:
                    raise GraphError(
                        f"closure mismatch for ({src!r}, {dst!r}): "
                        f"incremental={actual} reference={expected}"
                    )




class TestBasics:
    def test_empty(self):
        closure = PathCountClosure()
        assert len(closure) == 0

    def test_single_edge(self):
        closure = PathCountClosure([0, 1])
        closure.add_edge(0, 1)
        assert closure.has_path(0, 1)
        assert not closure.has_path(1, 0)
        assert closure.path_count(0, 1) == 1

    def test_diamond_counts_two_paths(self):
        closure = PathCountClosure(range(4))
        for a, b in [(0, 1), (0, 2), (1, 3), (2, 3)]:
            closure.add_edge(a, b)
        assert closure.path_count(0, 3) == 2
        assert closure.path_count(0, 1) == 1

    def test_duplicate_node_rejected(self):
        closure = PathCountClosure([0])
        with pytest.raises(GraphError):
            closure.add_node(0)

    def test_untracked_node_rejected(self):
        closure = PathCountClosure([0])
        with pytest.raises(GraphError):
            closure.add_edge(0, 7)

    def test_duplicate_edge_rejected(self):
        closure = PathCountClosure([0, 1])
        closure.add_edge(0, 1)
        with pytest.raises(GraphError):
            closure.add_edge(0, 1)

    def test_self_loop_rejected(self):
        closure = PathCountClosure([0])
        with pytest.raises(GraphError):
            closure.add_edge(0, 0)


class TestCycleDetection:
    def test_would_create_cycle(self):
        closure = PathCountClosure([0, 1, 2])
        closure.add_edge(0, 1)
        closure.add_edge(1, 2)
        assert closure.would_create_cycle(2, 0)
        assert closure.would_create_cycle(0, 0)
        assert not closure.would_create_cycle(0, 2)

    def test_add_cycle_edge_raises(self):
        closure = PathCountClosure([0, 1])
        closure.add_edge(0, 1)
        with pytest.raises(CycleError):
            closure.add_edge(1, 0)

    def test_cycle_after_removal_allowed(self):
        closure = PathCountClosure([0, 1])
        closure.add_edge(0, 1)
        closure.remove_edge(0, 1)
        closure.add_edge(1, 0)  # fine now
        assert closure.has_path(1, 0)


class TestRemoval:
    def test_remove_edge_restores_counts(self):
        closure = PathCountClosure(range(4))
        for a, b in [(0, 1), (0, 2), (1, 3), (2, 3)]:
            closure.add_edge(a, b)
        closure.remove_edge(1, 3)
        assert closure.path_count(0, 3) == 1
        closure.self_check()

    def test_remove_missing_edge(self):
        closure = PathCountClosure([0, 1])
        with pytest.raises(GraphError):
            closure.remove_edge(0, 1)

    def test_remove_node_requires_no_edges(self):
        closure = PathCountClosure([0, 1])
        closure.add_edge(0, 1)
        with pytest.raises(GraphError):
            closure.remove_node(0)
        closure.remove_edge(0, 1)
        closure.remove_node(0)
        assert 0 not in closure

    def test_slot_reuse(self):
        closure = PathCountClosure([0, 1])
        closure.remove_node(0)
        closure.add_node(2)
        closure.add_edge(1, 2)
        assert closure.has_path(1, 2)
        closure.self_check()


class TestAgainstReference:
    def test_random_insert_delete_sequences(self):
        rng = random.Random(7)
        for trial in range(10):
            n = rng.randint(3, 10)
            closure = PathCountClosure(range(n))
            live = []
            for _ in range(60):
                if live and rng.random() < 0.35:
                    edge = live.pop(rng.randrange(len(live)))
                    closure.remove_edge(*edge)
                else:
                    a, b = rng.randrange(n), rng.randrange(n)
                    if a == b or closure.has_edge(a, b):
                        continue
                    try:
                        closure.add_edge(a, b)
                        live.append((a, b))
                    except CycleError:
                        pass
            closure.self_check()

    def test_from_dag_matches_reachability(self):
        dag = random_dag(12, edge_probability=0.3, seed=3)
        closure = PathCountClosure.from_dag(dag)
        for a in dag.nodes():
            for b in dag.nodes():
                if a != b:
                    assert closure.has_path(a, b) == dag.has_path(a, b)


@given(
    edges=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=30
    )
)
@settings(max_examples=60, deadline=None)
def test_property_incremental_matches_recount(edges):
    """After any feasible insert sequence the incremental counts match a
    from-scratch recount (hypothesis-generated edge streams)."""
    closure = PathCountClosure(range(8))
    for a, b in edges:
        if a == b or closure.has_edge(a, b):
            continue
        try:
            closure.add_edge(a, b)
        except CycleError:
            continue
    closure.self_check()
