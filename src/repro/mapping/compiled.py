"""One-time compilation of a problem instance into dense arrays.

The evaluation engine that scores thousands of candidate solutions per
second needs solution-independent tables: task indices interned to
dense ids, per-task software/hardware durations, the dependency list
with precomputed bus transfer times, the permanent ``src -> comm ->
dst`` wiring of the static dependency layer, and the precedence
adjacency over dense ids.  This module is the single place where a
:class:`~repro.model.application.Application` (plus the bus it
communicates over) is flattened into that struct-of-arrays form of
plain Python lists, which :class:`~repro.mapping.engine.IncrementalEngine`
consumes in its delta-patching and DP loops.

The compile pass runs **once per search** (and again only if a caller
swaps the bus object); everything in it is solution-independent and
read-only, so the K engines of a population share one instance.  The
dense-id layout is load-bearing:

* ids ``[0, ntasks)`` are the application tasks in
  ``application.task_indices()`` order;
* ids ``[ntasks, ntasks + ndeps)`` are the communication nodes, one per
  dependency in ``application.dependencies()`` order;
* ids beyond that are the per-DRLC configuration nodes, interned on
  demand by each engine into its own copy of the interner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.graph.dag import NodeInterner
from repro.mapping.search_graph import COMM_NODE
from repro.model.application import Application


@dataclass
class CompiledInstance:
    """The dense, solution-independent tables of one problem instance."""

    application: Application
    bus: Any
    #: Application task indices in interning order (dense id = position).
    tasks: List[int]
    #: task index -> dense id.
    tid: Dict[int, int]
    #: Software execution time per dense task id.
    sw_ms: List[float]
    #: Hardware implementation CLB/time tables (None for SW-only tasks).
    impl_clbs: List[Optional[List[int]]]
    impl_ms: List[Optional[List[float]]]
    #: Precedence adjacency over dense task ids.
    pred_ids: List[List[int]]
    succ_ids: List[List[int]]
    #: Dependency arrays: dense ids, bus transfer times, interned
    #: comm-node ids, and the deps touching each task.
    dep_src: List[int]
    dep_dst: List[int]
    dep_transfer: List[float]
    dep_comm: List[int]
    deps_of_task: List[List[int]]
    #: The comm-node ids in the bus chain's tie order (source task index,
    #: destination task index, dependency index), and each dependency's
    #: position in it.
    tie_order: List[int]
    tie_rank: List[int]
    #: The interner holding tasks + comm nodes (engines intern the
    #: configuration nodes on top of their own copies).
    interner: NodeInterner
    #: Static dependency layer: per-node comm predecessors, successors
    #: and indegrees of the permanent ``src -> comm -> dst`` wiring.
    pred_comms: List[List[int]]
    succ_static: List[List[int]]
    indeg_static: List[int]

    # ------------------------------------------------------------------
    @property
    def ntasks(self) -> int:
        return len(self.tasks)

    @property
    def ndeps(self) -> int:
        return len(self.dep_src)


def compile_instance(application: Application, bus) -> CompiledInstance:
    """Flatten ``application`` (communicating over ``bus``) into the
    dense struct-of-arrays form.  Deterministic: tables depend only on
    the application's task/dependency iteration order."""
    tasks = list(application.task_indices())
    ntasks = len(tasks)
    tid = {t: i for i, t in enumerate(tasks)}
    interner = NodeInterner(tasks)

    sw_ms: List[float] = [0.0] * ntasks
    impl_clbs: List[Optional[List[int]]] = [None] * ntasks
    impl_ms: List[Optional[List[float]]] = [None] * ntasks
    pred_ids: List[List[int]] = [[] for _ in range(ntasks)]
    succ_ids: List[List[int]] = [[] for _ in range(ntasks)]
    for i, t in enumerate(tasks):
        task = application.task(t)
        sw_ms[i] = task.sw_time_ms
        if task.hardware_capable:
            impl_clbs[i] = [impl.clbs for impl in task.implementations]
            impl_ms[i] = [impl.time_ms for impl in task.implementations]

    ties: List[Tuple[int, int]] = []
    dep_src: List[int] = []
    dep_dst: List[int] = []
    dep_transfer: List[float] = []
    dep_comm: List[int] = []
    deps_of_task: List[List[int]] = [[] for _ in range(ntasks)]
    for src, dst, kbytes in application.dependencies():
        j = len(dep_src)
        s, d = tid[src], tid[dst]
        ties.append((src, dst))
        dep_src.append(s)
        dep_dst.append(d)
        dep_transfer.append(bus.transfer_time_ms(kbytes))
        dep_comm.append(interner.intern((COMM_NODE, src, dst)))
        deps_of_task[s].append(j)
        deps_of_task[d].append(j)
        pred_ids[d].append(s)
        succ_ids[s].append(d)
    ndeps = len(dep_src)
    assert all(dep_comm[j] == ntasks + j for j in range(ndeps))
    # A stable sort by (source, destination) leaves ties in index order.
    tie_deps = sorted(range(ndeps), key=ties.__getitem__)
    tie_order = [ntasks + j for j in tie_deps]
    tie_rank = sorted(range(ndeps), key=tie_deps.__getitem__)

    n = len(interner)
    pred_comms: List[List[int]] = [[] for _ in range(n)]
    succ_static: List[List[int]] = [[] for _ in range(n)]
    indeg_static = [0] * n
    for j in range(ndeps):
        s, c, d = dep_src[j], dep_comm[j], dep_dst[j]
        pred_comms[d].append(c)
        succ_static[s].append(c)
        succ_static[c].append(d)
        indeg_static[c] += 1
        indeg_static[d] += 1

    return CompiledInstance(
        application=application,
        bus=bus,
        tasks=tasks,
        tid=tid,
        sw_ms=sw_ms,
        impl_clbs=impl_clbs,
        impl_ms=impl_ms,
        pred_ids=pred_ids,
        succ_ids=succ_ids,
        dep_src=dep_src,
        dep_dst=dep_dst,
        dep_transfer=dep_transfer,
        dep_comm=dep_comm,
        deps_of_task=deps_of_task,
        tie_order=tie_order,
        tie_rank=tie_rank,
        interner=interner,
        pred_comms=pred_comms,
        succ_static=succ_static,
        indeg_static=indeg_static,
    )
