"""Property tests of :class:`repro.graph.persistent_dp.PersistentLongestPath`
on its own: small random graphs in the engine's array layout under
seeded random edit streams, checked after every step against
from-scratch references.

The edits are the ones the incremental engine makes: sequentialization
edges in and out (cycle-closing ones included) and reweighted,
processor relinks, bus-chain permutations (transfers switched on and
off, tie keys reshuffled), duration and transfer-weight changes, and
new nodes.  Like the engine, each step passes the active transfer ids
in tie order (the graph's current tie keys, then the transfer index).
After every step:

* a feasible graph's order is a topological order of base plus chain;
* the unit reports a cycle exactly when a Kahn sort finds one;
* every insert fails exactly when the graph it runs on, plus its edge,
  is cyclic, and a failed insert leaves the order and the positions
  untouched;
* the suffix DP values equal a from-scratch DP bit for bit, and the bus
  chain is the active transfers sorted by (base start, tie keys, index).
"""

from __future__ import annotations

import math
import random

import pytest

from repro.graph.persistent_dp import PersistentLongestPath
from repro.numeric import left_sum

# Zeros are frequent so that transfers tie on the bus and ties can
# close a cycle through zero-time paths.
DURATIONS = (0.0, 0.0, 0.0, 0.5, 1.0, 2.0)
WEIGHTS = (0.0, 0.0, 0.25, 1.0)


class Graph:
    """A random search-graph-shaped DAG in the unit's layout, edited the
    way the engine edits it: ``ntasks`` task ids, one transfer id per
    dependency, ``nextra`` nodes standing in for configuration nodes."""

    def __init__(self, rng: random.Random, ntasks=7, ndeps=7, nextra=2,
                 nprocs=2) -> None:
        self.rng = rng
        self.lo = lo = ntasks
        deps = set()
        while len(deps) < ndeps:
            s = rng.randrange(ntasks - 1)
            deps.add((s, rng.randrange(s + 1, ntasks)))
        deps = sorted(deps)
        n = ntasks + ndeps + nextra
        self.succ_static = [[] for _ in range(n)]
        self.pred_comms = [[] for _ in range(n)]
        self.indeg = [0] * n
        for j, (s, d) in enumerate(deps):
            c = lo + j
            self.succ_static[s].append(c)
            self.succ_static[c].append(d)
            self.pred_comms[d].append(c)
            self.indeg[c] += 1
            self.indeg[d] += 1
        self.comm_src = [s for s, _d in deps]
        self.comm_w = [rng.choice(WEIGHTS) for _ in deps]
        # The chain's tie keys: the caller passes the active transfers
        # in this order.
        self.tie_src = [rng.randrange(3) for _ in deps]
        self.tie_dst = [rng.randrange(3) for _ in deps]
        self.succ_seq = [[] for _ in range(n)]
        self.pred_seq = [[] for _ in range(n)]
        self.proc_next = [-1] * n
        self.proc_prev = [-1] * n
        self.dur = [rng.choice(DURATIONS) for _ in range(n)]
        # Most edits follow a hidden order (the static deps follow task
        # ids), so the graph is acyclic often enough to check the DPs.
        self.rank = list(range(ntasks)) + [rng.random() * ntasks
                                           for _ in range(n - ntasks)]
        self.procs = [[] for _ in range(nprocs)]
        self.active = set()
        self.unit = PersistentLongestPath(
            lo=lo, comm_src=self.comm_src, comm_w=self.comm_w,
            succ_static=self.succ_static, pred_comms=self.pred_comms,
            succ_seq=self.succ_seq, pred_seq=self.pred_seq,
            proc_next=self.proc_next, proc_prev=self.proc_prev,
            indeg=self.indeg, dur=self.dur,
        )

    @property
    def n(self) -> int:
        return len(self.dur)

    def plain(self):
        """Ids that are not transfers (tasks and the extra nodes)."""
        hi = self.lo + len(self.comm_src)
        return [v for v in range(self.n) if not self.lo <= v < hi]

    # -- the edits -----------------------------------------------------
    def add_seq(self) -> None:
        a, b = self.rng.sample(self.plain(), 2)
        if self.rank[a] > self.rank[b] and self.rng.random() < 0.8:
            a, b = b, a
        if b in self.succ_seq[a]:
            return
        self.succ_seq[a].append(b)
        self.pred_seq[b].append((a, self.rng.choice(WEIGHTS)))
        self.indeg[b] += 1
        self.unit.link(a, b)

    def seq_edges(self):
        return [(a, b) for a in range(self.n) for b in self.succ_seq[a]]

    def remove_seq(self) -> None:
        edges = self.seq_edges()
        if edges:
            a, b = self.rng.choice(edges)
            self.succ_seq[a].remove(b)
            self.pred_seq[b] = [(u, w) for u, w in self.pred_seq[b] if u != a]
            self.indeg[b] -= 1
            self.unit.seed(b)

    def retune_seq(self) -> None:
        edges = self.seq_edges()
        if edges:
            a, b = self.rng.choice(edges)
            w = self.rng.choice(WEIGHTS)
            self.pred_seq[b] = [(u, w if u == a else x)
                                for u, x in self.pred_seq[b]]
            self.unit.seed(b)

    def relink(self) -> None:
        """Move one task to a place of a random processor order (or off
        the processors), relinking the chain edges that differ."""
        rng = self.rng
        old = self.proc_pairs()
        x = rng.randrange(self.lo)
        for ids in self.procs:
            if x in ids:
                ids.remove(x)
        if rng.random() < 0.9:
            ids = rng.choice(self.procs)
            if rng.random() < 0.8:
                i = sum(1 for y in ids if y < x)
            else:
                i = rng.randrange(len(ids) + 1)
            ids.insert(i, x)
        new = self.proc_pairs()
        for a, b in old - new:
            self.proc_next[a] = self.proc_prev[b] = -1
            self.indeg[b] -= 1
            self.unit.seed(b)
        for a, b in new - old:
            self.proc_next[a] = b
            self.proc_prev[b] = a
            self.indeg[b] += 1
            self.unit.link(a, b)

    def proc_pairs(self):
        return {pair for ids in self.procs for pair in zip(ids, ids[1:])}

    def toggle_transfer(self) -> None:
        j = self.rng.randrange(len(self.comm_src))
        self.active ^= {j}

    def shuffle_ties(self) -> None:
        j = self.rng.randrange(len(self.comm_src))
        self.tie_src[j] = self.rng.randrange(2)
        self.tie_dst[j] = self.rng.randrange(2)

    def set_duration(self) -> None:
        v = self.rng.randrange(self.n)
        self.dur[v] = self.rng.choice(DURATIONS)
        self.unit.seed(v)

    def set_weight(self) -> None:
        j = self.rng.randrange(len(self.comm_src))
        self.comm_w[j] = self.rng.choice(WEIGHTS)
        self.unit.seed(self.lo + j)

    def grow(self) -> None:
        """One more node (the engine's configuration nodes)."""
        for lists in (self.succ_static, self.pred_comms, self.succ_seq,
                      self.pred_seq):
            lists.append([])
        for ints in (self.proc_next, self.proc_prev):
            ints.append(-1)
        self.indeg.append(0)
        self.dur.append(self.rng.choice(DURATIONS))
        self.rank.append(self.rng.random() * self.lo)
        self.unit.grow(self.n)

    EDITS = (
        (add_seq, 5), (remove_seq, 4), (retune_seq, 1), (relink, 6),
        (toggle_transfer, 4), (shuffle_ties, 3), (set_duration, 4),
        (set_weight, 2),
    )

    # -- references ------------------------------------------------------
    def base_preds(self, v):
        """``(node, weight)`` inputs of ``v`` in the base graph."""
        lo = self.lo
        if lo <= v < lo + len(self.comm_src):
            return [(self.comm_src[v - lo], self.comm_w[v - lo])]
        preds = [(c, 0.0) for c in self.pred_comms[v]]
        if self.proc_prev[v] >= 0:
            preds.append((self.proc_prev[v], 0.0))
        return preds + self.pred_seq[v]

    def base_edges(self):
        return [(u, v) for v in range(self.n) for u, _w in self.base_preds(v)]

    def tie_ordered(self):
        """The active transfer ids in tie order, as the engine passes them."""
        return [self.lo + j for j in sorted(
            self.active, key=lambda j: (self.tie_src[j], self.tie_dst[j], j))]


def kahn(n, edges):
    """Topological order of ``edges`` over ``n`` ids, ``None`` if cyclic."""
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for a, b in edges:
        succ[a].append(b)
        indeg[b] += 1
    order = [v for v in range(n) if indeg[v] == 0]
    for v in order:
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                order.append(w)
    return order if len(order) == n else None


def full_dp(graph, order, chain_pred):
    """The longest-path DP from scratch (transfer edges floored at 0)."""
    starts = [0.0] * graph.n
    finish = [0.0] * graph.n
    for v in order:
        best = 0.0
        for u, w in graph.base_preds(v):
            best = max(best, finish[u] + w)
        if chain_pred.get(v, -1) >= 0:
            best = max(best, finish[chain_pred[v]])
        starts[v] = best
        finish[v] = best + graph.dur[v]
    return starts, finish


def assert_topological(order, pos, n, edges):
    assert sorted(order) == list(range(n))
    assert all(pos[v] == i for i, v in enumerate(order))
    assert all(pos[a] < pos[b] for a, b in edges)


def checked_inserts(graph: Graph) -> dict:
    """Wrap the unit's insert: its verdict against a Kahn sort of the
    graph it runs on, the order after it, and a failure's no-op."""
    unit = graph.unit
    insert = unit._insert
    seen = {"inserts": 0, "failed": 0}

    def checked(a, b, chain_next, chain_pred):
        before = (list(unit.order), list(unit.pos))
        edges = graph.base_edges() + [
            (c, chain_next[c]) for c in range(graph.n) if chain_next[c] >= 0
        ] + [(a, b)]
        acyclic = kahn(graph.n, edges) is not None
        ok = insert(a, b, chain_next, chain_pred)
        assert ok == acyclic, (a, b)
        seen["inserts"] += 1
        if ok:
            assert_topological(unit.order, unit.pos, graph.n, edges)
        else:
            seen["failed"] += 1
            assert (unit.order, unit.pos) == before
        return ok

    unit._insert = checked
    return seen


def check_step(graph: Graph) -> str:
    """Evaluate once and compare with the references; returns the kind
    of outcome (``feasible``, ``base cycle`` or ``chain cycle``)."""
    unit = graph.unit
    active = sorted(graph.active)
    makespan, comm_ms, cycle = unit.evaluate(graph.tie_ordered())
    n = graph.n
    base_edges = graph.base_edges()
    base_order = kahn(n, base_edges)
    lo = graph.lo
    if base_order is None:
        assert cycle is not None and makespan == math.inf
        assert comm_ms == left_sum([graph.dur[lo + j] for j in active])
        return "base cycle"
    starts0, finish0 = full_dp(graph, base_order, {})
    assert unit.starts0 == starts0 and unit.finish0 == finish0
    chain = [lo + key[3] for key in sorted(
        (starts0[lo + j], graph.tie_src[j], graph.tie_dst[j], j)
        for j in active)]
    if active:
        assert unit.chain == chain
    assert comm_ms == left_sum([graph.dur[c] for c in chain])
    chain_edges = list(zip(chain, chain[1:]))
    ser_order = kahn(n, base_edges + chain_edges)
    if ser_order is None:
        assert cycle is not None and makespan == math.inf
        return "chain cycle"
    assert cycle is None
    assert_topological(unit.order, unit.pos, n, base_edges + chain_edges)
    if active:
        finish1 = full_dp(graph, ser_order, {b: a for a, b in chain_edges})[1]
        assert unit.finish1 == finish1
        assert makespan == max(finish1)
    else:
        assert makespan == max(finish0)
    return "feasible"


def run_stream(seed: int, steps: int) -> dict:
    rng = random.Random(seed)
    graph = Graph(rng)
    seen = checked_inserts(graph)
    edits = [edit for edit, weight in Graph.EDITS for _ in range(weight)]
    outcomes = {"feasible": 0, "base cycle": 0, "chain cycle": 0}
    outcome = "feasible"
    for step in range(steps):
        if step % 500 == 499:
            graph.grow()
        elif outcome == "base cycle" and rng.random() < 0.5:
            # Walk back towards acyclic states, like a rejected move.
            graph.remove_seq()
        else:
            rng.choice(edits)(graph)
        outcome = check_step(graph)
        outcomes[outcome] += 1
    unit = graph.unit
    return dict(outcomes, **seen, repairs=unit.repairs,
                rebuilds=unit.rebuilds, chain_repairs=unit.chain_repairs)


def test_random_edit_streams_keep_every_invariant():
    """20,000 seeded random edits over 10 graphs, every step checked."""
    totals = {}
    for seed in range(10):
        for key, value in run_stream(seed, 2_000).items():
            totals[key] = totals.get(key, 0) + value
    # The streams reach every path: one-edge repairs and Kahn sorts,
    # chain repairs, failed inserts, and both kinds of cycle.
    for key in ("feasible", "base cycle", "chain cycle", "failed",
                "repairs", "rebuilds", "chain_repairs"):
        assert totals[key] > 50, totals


def test_failed_base_insert_reports_the_edge_and_keeps_the_order():
    graph = Graph(random.Random(0))
    unit = graph.unit
    assert unit.evaluate([])[2] is None
    order, pos = list(unit.order), list(unit.pos)
    # Dependency 0 is wired src -> transfer -> dst: dst -> src closes a
    # cycle, and one contradicting edge is an exact verdict.
    src, dst = graph.comm_src[0], graph.succ_static[graph.lo][0]
    graph.succ_seq[dst].append(src)
    graph.pred_seq[src].append((dst, 0.0))
    graph.indeg[src] += 1
    unit.link(dst, src)
    makespan, _comm, cycle = unit.evaluate([])
    assert makespan == math.inf and cycle.cycle == [src, dst]
    assert (unit.order, unit.pos) == (order, pos)
    # Once the edge is gone again the stored order is current: no sort.
    graph.succ_seq[dst].remove(src)
    graph.pred_seq[src].pop()
    graph.indeg[src] -= 1
    unit.seed(src)
    assert check_step(graph) == "feasible"
    assert (unit.repairs, unit.rebuilds) == (0, 1)


def test_equal_starts_keep_the_callers_tie_order():
    """Transfers 3 (task 0 -> 2) and 4 (0 -> 1) both leave task 0 at
    2.0, and the caller's tie order puts 4 first, against the index
    order.  The chain follows the caller: task 1 (3 ms) waits for 4
    alone and ends at 7.0; chained 3 first it would end at 9.0."""
    n = 5
    unit = PersistentLongestPath(
        lo=3, comm_src=[0, 0], comm_w=[0.0, 0.0],
        succ_static=[[3, 4], [], [], [2], [1]],
        pred_comms=[[], [4], [3], [], []],
        succ_seq=[[] for _ in range(n)], pred_seq=[[] for _ in range(n)],
        proc_next=[-1] * n, proc_prev=[-1] * n,
        indeg=[0, 1, 1, 1, 1], dur=[2.0, 3.0, 1.0, 2.0, 2.0],
    )
    assert unit.evaluate([4, 3]) == (7.0, 4.0, None)
    assert unit.starts0[3] == unit.starts0[4] == 2.0
    assert unit.chain == [4, 3]
    assert unit.finish1 == [2.0, 7.0, 7.0, 6.0, 4.0]


@pytest.mark.parametrize("seed", [11, 12])
def test_grow_forces_one_sort_and_full_dps(seed):
    graph = Graph(random.Random(seed))
    check_step(graph)
    rebuilds = graph.unit.rebuilds
    graph.grow()
    assert graph.unit.order is None
    assert check_step(graph) == "feasible"
    assert graph.unit.rebuilds == rebuilds + 1
