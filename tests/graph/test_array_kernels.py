"""The array-backed Kahn sort agrees with the Dag-based one.

``kahn_order_indices`` operates on dense ids and split edge layers;
these tests intern random layered DAGs and check that it reproduces
``Dag.topological_order`` exactly, that edges split across its
``successors2`` and ``chain_next`` layers yield a topological order of
the merged graph, and that cycles are reported.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import CycleError
from repro.graph.dag import NodeInterner
from repro.graph.generators import layered
from repro.graph.longest_path import kahn_order_indices


def _interned(dag):
    """Flatten a Dag into dense ids, successor lists and indegrees."""
    interner = NodeInterner(dag.nodes())
    n = len(interner)
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for a, b, _w in dag.edges():
        ia, ib = interner.id_of(a), interner.id_of(b)
        succ[ia].append(ib)
        indeg[ib] += 1
    return interner, n, succ, indeg


@pytest.mark.parametrize("seed", range(6))
def test_kernels_match_dag_functions(seed):
    dag = layered(4 + seed % 3, 4, edge_probability=0.5, seed=seed)
    interner, n, succ, indeg = _interned(dag)

    order = kahn_order_indices(n, indeg, succ, interner.keys())
    assert sorted(order) == list(range(n))
    assert [interner.key_of(v) for v in order] == dag.topological_order()
    # The caller's indegree array is copied, not consumed.
    assert sum(indeg) == sum(1 for _ in dag.edges())


def test_kernel_second_layer_and_chain_match_merged_graph():
    """Edges split across the ``successors2`` layer and two chains in
    one ``chain_next`` pointer array — the incremental engine's layout:
    sequentialization edges in a second layer, processor chains over
    task ids and the bus chain over comm ids in one array — yield a
    topological order of the merged graph."""
    rng = random.Random(11)
    base = layered(5, 4, edge_probability=0.4, seed=2)
    interner, n, succ, indeg = _interned(base)
    # Every added edge respects this order, so the merged graph stays
    # acyclic while its constraints go beyond the base layer's.
    target = kahn_order_indices(n, indeg, succ, interner.keys())
    pos = {v: idx for idx, v in enumerate(target)}

    merged = base.copy()
    indeg_all = list(indeg)

    def add(a, b):
        if pos[a] > pos[b]:
            a, b = b, a
        indeg_all[b] += 1
        ka, kb = interner.key_of(a), interner.key_of(b)
        if not merged.has_edge(ka, kb):
            merged.add_edge(ka, kb, 0.0)
        return a, b

    successors2 = [[] for _ in range(n)]
    for _ in range(8):
        a, b = add(*rng.sample(range(n), 2))
        successors2[a].append(b)
    chain_next = [-1] * n
    picked = sorted(rng.sample(range(n), 10), key=pos.__getitem__)
    for chain in (picked[0::2], picked[1::2]):
        for a, b in zip(chain, chain[1:]):
            add(a, b)
            chain_next[a] = b

    split = kahn_order_indices(
        n, indeg_all, succ, interner.keys(), successors2, chain_next
    )
    assert sorted(split) == list(range(n))
    at = {v: idx for idx, v in enumerate(split)}
    for a, b, _w in merged.edges():
        assert at[interner.id_of(a)] < at[interner.id_of(b)], (a, b)
    assert split != target  # the overlay layers constrained the order


def test_kahn_kernel_reports_cycles():
    succ = [[1], [2], [0]]
    indeg = [1, 1, 1]
    with pytest.raises(CycleError) as exc:
        kahn_order_indices(3, indeg, succ, ["a", "b", "c"])
    assert set(exc.value.cycle) == {"a", "b", "c"}
