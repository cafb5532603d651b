"""Topological longest-path dynamic programming.

This is the paper's solution-evaluation primitive (section 4.4): the cost
of a candidate mapping is the longest path of the search graph, where
node weights are execution times and edge weights are communication or
reconfiguration delays.

The functions operate directly on :class:`~repro.graph.dag.Dag`
adjacency (no copies), with node weights read from a callable so the
mapping layer can plug in assignment-dependent execution times.

Two families live here:

* the :class:`Dag`-based functions (``earliest_start_times``,
  ``longest_path_length``, ``critical_path``, ``bottom_levels``) used by
  analysis, scheduling and the full-rebuild evaluation engine;
* ``kahn_order_indices``, Kahn's sort over dense integer node ids and
  split edge layers, the equivalent of ``Dag.topological_order``
  without tuple-key hashing (``tests/graph/test_array_kernels.py``
  proves the equivalence).
  :class:`repro.graph.persistent_dp.PersistentLongestPath` (the
  incremental engine's persistent order and DPs) computes every
  topological order it sorts from scratch through it and inlines its DP
  variants, which exploit the engine's fixed node-id layout.
"""

from __future__ import annotations

from math import isclose
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.errors import CycleError

Node = Hashable
Weight = Callable[[Node], float]


def _zero_weight(_node: Node) -> float:
    return 0.0


def topological_order(dag) -> List[Node]:
    """Topological order of a :class:`Dag` (Kahn); raises on cycles."""
    return dag.topological_order()


def earliest_start_times(
    dag,
    node_weight: Weight = _zero_weight,
    order: Optional[Sequence[Node]] = None,
) -> Dict[Node, float]:
    """ASAP start time of every node.

    ``start[v] = max over predecessors u of (start[u] + w(u) + edge(u, v))``
    with sources starting at 0.  ``node_weight(u)`` is the execution
    duration of ``u`` and edge weights are read from the DAG.
    """
    if order is None:
        order = dag.topological_order()
    start: Dict[Node, float] = {}
    pred = dag.pred
    for node in order:
        best = 0.0
        for prev, edge_w in pred[node].items():
            candidate = start[prev] + node_weight(prev) + edge_w
            if candidate > best:
                best = candidate
        start[node] = best
    return start


def longest_path_length(
    dag,
    node_weight: Weight = _zero_weight,
    order: Optional[Sequence[Node]] = None,
) -> float:
    """Length of the longest path: max over nodes of finish time.

    Finish time of ``v`` is ``start[v] + node_weight(v)``; with zero node
    weights this degenerates to the classic edge-weighted longest path.
    Returns 0.0 for an empty graph.
    """
    start = earliest_start_times(dag, node_weight, order)
    best = 0.0
    for node, s in start.items():
        finish = s + node_weight(node)
        if finish > best:
            best = finish
    return best


def latest_start_times(
    dag,
    makespan: float,
    node_weight: Weight = _zero_weight,
    order: Optional[Sequence[Node]] = None,
) -> Dict[Node, float]:
    """ALAP start times for a given overall deadline ``makespan``."""
    if order is None:
        order = dag.topological_order()
    late: Dict[Node, float] = {}
    succ = dag.succ
    for node in reversed(order):
        best = makespan - node_weight(node)
        for nxt, edge_w in succ[node].items():
            candidate = late[nxt] - edge_w - node_weight(node)
            if candidate < best:
                best = candidate
        late[node] = best
    return late


def critical_path(
    dag,
    node_weight: Weight = _zero_weight,
) -> Tuple[float, List[Node]]:
    """Longest path length and one witness path (list of nodes).

    Ties are broken arbitrarily but deterministically (dict order).
    """
    order = dag.topological_order()
    start = earliest_start_times(dag, node_weight, order)
    best_node: Optional[Node] = None
    best_finish = 0.0
    for node in order:
        finish = start[node] + node_weight(node)
        if best_node is None or finish > best_finish:
            best_node = node
            best_finish = finish
    if best_node is None:
        return 0.0, []
    # Walk backwards along tight predecessors.  Tightness is a *relative*
    # comparison: an absolute epsilon (the old ``< 1e-12``) fails for
    # durations far from 1.0 — microsecond-scale graphs would match every
    # predecessor, second-scale graphs none (float error exceeds 1e-12).
    path = [best_node]
    pred = dag.pred
    current = best_node
    while True:
        found = None
        for prev, edge_w in pred[current].items():
            if isclose(
                start[prev] + node_weight(prev) + edge_w,
                start[current],
                rel_tol=1e-9,
                abs_tol=0.0,
            ):
                found = prev
                break
        if found is None:
            break
        path.append(found)
        current = found
    path.reverse()
    return best_finish, path


# ----------------------------------------------------------------------
# array-backed Kahn (dense integer node ids, split edge layers)
# ----------------------------------------------------------------------
def kahn_order_indices(
    num_nodes: int,
    indegree: Sequence[int],
    successors: Sequence[Sequence[int]],
    keys: Optional[Sequence[Hashable]] = None,
    successors2: Optional[Sequence[Sequence[int]]] = None,
    chain_next: Optional[Sequence[int]] = None,
) -> List[int]:
    """Kahn's algorithm over dense ids; raises :class:`CycleError`.

    ``indegree`` is copied (the caller's array is not consumed) and
    ``successors[u]`` lists the targets of every edge out of ``u``
    (parallel edges appear once per edge, matching their contribution to
    ``indegree``).  ``successors2`` optionally overlays a second edge
    layer, so a caller can keep a static skeleton and a mutable overlay
    in separate structures without merging them; ``chain_next``
    optionally overlays chain edges in pointer-array form (at most one
    outgoing chain edge per node, ``-1`` meaning none — how the
    incremental engine stores its processor and bus chains).  The ready set is
    consumed FIFO, mirroring
    :meth:`repro.graph.dag.Dag.topological_order`.  ``keys`` maps ids
    back to original node identifiers for the cycle report.
    """
    indeg = list(indegree)
    order = [v for v in range(num_nodes) if indeg[v] == 0]
    head = 0
    while head < len(order):
        node = order[head]
        head += 1
        for succ in successors[node]:
            indeg[succ] -= 1
            if indeg[succ] == 0:
                order.append(succ)
        if successors2 is not None:
            for succ in successors2[node]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    order.append(succ)
        if chain_next is not None:
            succ = chain_next[node]
            if succ >= 0:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    order.append(succ)
    if len(order) != num_nodes:
        stuck = [v for v in range(num_nodes) if indeg[v] > 0]
        raise CycleError(
            "graph contains a cycle",
            cycle=[keys[v] for v in stuck] if keys is not None else stuck,
        )
    return order


def bottom_levels(
    dag,
    node_weight: Weight = _zero_weight,
) -> Dict[Node, float]:
    """Bottom level of each node: longest node+edge weight path to a sink,
    *including* the node's own weight.  This is the classic critical-path
    priority used by list schedulers.
    """
    order = dag.topological_order()
    levels: Dict[Node, float] = {}
    succ = dag.succ
    for node in reversed(order):
        best = 0.0
        for nxt, edge_w in succ[node].items():
            candidate = edge_w + levels[nxt]
            if candidate > best:
                best = candidate
        levels[node] = node_weight(node) + best
    return levels
