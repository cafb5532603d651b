"""Pluggable evaluation engines (the annealer's hot path).

Scoring a candidate solution — longest path of the realized search graph
(paper section 4.4) — is the single operation every optimizer in this
library performs thousands of times per run.  This module puts that
operation behind one interface with two implementations:

* :class:`FullRebuildEngine` — the reference semantics, extracted from
  the original ``Evaluator``/``SearchGraphBuilder`` pipeline: rebuild
  the whole :class:`~repro.graph.dag.Dag` from scratch for every
  candidate and run the dict-based longest-path DP.
* :class:`IncrementalEngine` — the fast path.  The problem instance is
  flattened once per search by the :mod:`repro.mapping.compiled` pass
  (every search-graph node interned to a dense integer id, the
  solution-independent precedence skeleton precomputed); after each
  move only the solution-dependent parts are delta-patched — task
  durations, the crossing state of each dependency, and the
  sequentialization edges of the (typically one or two) resources a
  move actually touched.  On top of that delta-sync the longest-path DP
  is *persistent*: one topological order — of the bus-serialized graph
  too — is repaired in place instead of re-sorted, and only the order
  suffix a move could have affected is re-relaxed.

Both engines produce **bit-identical** makespans: they evaluate the same
graph with the same float operations over the same candidate sets, and
serialize shared-bus transactions with the same deterministic ASAP sort.
``tests/mapping/test_engine_parity.py`` replays hundreds of random move
sequences across both engines to enforce this.

Select an engine through ``Evaluator(..., engine="incremental")``, the
``DesignSpaceExplorer(engine=...)`` knob, or the CLI ``--engine`` flag
(``"array"`` is accepted as another name for ``"incremental"``);
``benchmarks/bench_engine.py`` measures the throughput gap.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.architecture import Architecture
from repro.arch.asic import Asic
from repro.arch.processor import Processor
from repro.arch.reconfigurable import CONFIG_NODE, ReconfigurableCircuit
from repro.arch.resource import Resource
from repro.errors import (
    ConfigurationError,
    CycleError,
    InfeasibleMoveError,
    MappingError,
)
from repro.graph.longest_path import kahn_order_indices
from repro.mapping.compiled import compile_instance
from repro.mapping.search_graph import SearchGraph, SearchGraphBuilder
from repro.mapping.solution import Solution
from repro.model.application import Application

#: Cost of infeasible (cyclic) realizations.
INFEASIBLE_MS = math.inf

#: Names accepted by :func:`make_engine` / ``Evaluator(engine=...)``;
#: ``"array"`` builds the same engine as ``"incremental"``.
ENGINES = ("full", "incremental", "array")


def _kind_is_hw(kind: Tuple) -> bool:
    """Does a classified resource host *hardware* tasks (the ones
    ``Solution.hardware_tasks`` counts)?"""
    tag = kind[0]
    return tag == "rc" or tag == "asic" or (tag == "?" and kind[2])


def _trim(old: List, new: List) -> Tuple[List, List]:
    """``(removed, added)``: the two lists without their common prefix
    and suffix."""
    n_old, n_new = len(old), len(new)
    hi = min(n_old, n_new)
    lo = 0
    while lo < hi and old[lo] == new[lo]:
        lo += 1
    tail = 0
    while tail < hi - lo and old[n_old - 1 - tail] == new[n_new - 1 - tail]:
        tail += 1
    return old[lo:n_old - tail], new[lo:n_new - tail]


@dataclass(frozen=True)
class Evaluation:
    """Outcome of evaluating one candidate solution."""

    makespan_ms: float
    feasible: bool
    num_contexts: int
    hw_tasks: int
    sw_tasks: int
    initial_reconfig_ms: float
    dynamic_reconfig_ms: float
    comm_ms: float
    clbs_used: int

    @property
    def reconfig_ms(self) -> float:
        """Total reconfiguration time (initial + dynamic), Fig. 3's sum."""
        return self.initial_reconfig_ms + self.dynamic_reconfig_ms

    def meets(self, deadline_ms: float) -> bool:
        return self.feasible and self.makespan_ms <= deadline_ms


class EvaluationEngine(ABC):
    """Realizes and scores candidate solutions of one problem instance.

    An engine is constructed once per ``(application, architecture,
    bus_policy)`` and then called with candidate
    :class:`~repro.mapping.solution.Solution` objects; it owns whatever
    caches it needs across calls.  All optimizers (annealer, hill
    climber, tabu, GA) drive their move-evaluate-undo loops through this
    interface, usually via the :class:`~repro.mapping.evaluator.Evaluator`
    facade.
    """

    #: Engine name as accepted by :func:`make_engine`.
    name: str = "abstract"

    def __init__(
        self,
        application: Application,
        architecture: Architecture,
        bus_policy: str = "ordered",
    ) -> None:
        self.application = application
        self.architecture = architecture
        #: Reference builder: realizes solutions as explicit
        #: :class:`SearchGraph` objects (schedule extraction, debugging)
        #: and validates ``bus_policy``.
        self.builder = SearchGraphBuilder(application, architecture, bus_policy)
        self.bus_policy = bus_policy
        #: Number of evaluations performed (exposed for benchmarks).
        self.evaluations = 0

    # ------------------------------------------------------------------
    def telemetry_counters(self) -> Dict[str, int]:
        """Internal counters exposed to the telemetry layer.

        Counters are plain integer attributes incremented unconditionally
        on the hot paths (cheap, deterministic); recorders sample them
        once at run end, so disabled telemetry costs nothing here.
        Subclasses extend the dict with their engine-specific internals.
        """
        return {"evaluations": self.evaluations}

    # ------------------------------------------------------------------
    def realize(self, solution: Solution) -> SearchGraph:
        """Build the search graph without computing its longest path."""
        return self.builder.build(solution)

    @abstractmethod
    def makespan_ms(self, solution: Solution) -> float:
        """Longest path only (the optimizers' hot path); infeasible
        (cyclic) realizations return :data:`INFEASIBLE_MS`."""

    @abstractmethod
    def evaluate(self, solution: Solution, strict: bool = False) -> Evaluation:
        """Score ``solution``; cyclic realizations yield an infeasible
        evaluation (``makespan = inf``) unless ``strict`` re-raises."""


class FullRebuildEngine(EvaluationEngine):
    """Reference engine: rebuild the search graph for every candidate.

    This is the original ``Evaluator`` behavior verbatim — every call
    constructs a fresh :class:`~repro.graph.dag.Dag`, reruns Kahn's sort
    and the dict-based DP.  It is the semantic baseline the incremental
    engine is checked against.
    """

    name = "full"

    def makespan_ms(self, solution: Solution) -> float:
        self.evaluations += 1
        graph = self.builder.build(solution)
        try:
            return graph.makespan_ms()
        except CycleError:
            return INFEASIBLE_MS

    def evaluate(self, solution: Solution, strict: bool = False) -> Evaluation:
        self.evaluations += 1
        graph = self.builder.build(solution)
        try:
            makespan = graph.makespan_ms()
            feasible = True
        except CycleError:
            if strict:
                raise
            makespan = INFEASIBLE_MS
            feasible = False

        initial = 0.0
        dynamic = 0.0
        clbs = 0
        num_contexts = 0
        for rc in solution.architecture.reconfigurable_circuits():
            initial += rc.initial_reconfiguration_ms(solution)
            dynamic += rc.dynamic_reconfiguration_ms(solution)
            contexts = solution.contexts(rc.name)
            num_contexts += len(contexts)
            clbs += sum(
                solution.context_clbs(rc.name, k) for k in range(len(contexts))
            )
        hw = len(solution.hardware_tasks())
        return Evaluation(
            makespan_ms=makespan,
            feasible=feasible,
            num_contexts=num_contexts,
            hw_tasks=hw,
            sw_tasks=len(self.application.task_indices()) - hw,
            initial_reconfig_ms=initial,
            dynamic_reconfig_ms=dynamic,
            comm_ms=graph.total_comm_ms(),
            clbs_used=clbs,
        )


class IncrementalEngine(EvaluationEngine):
    """Delta-sync engine with a persistent longest-path DP.

    The engine mirrors the last-seen solution state (per-task assignment
    and implementation choice, per-resource orders) and on each call
    re-checks against that mirror only the tasks and resources the
    solution's change journal names after the engine's cursor, patching
    only what a move actually changed.  Rejected moves need no special
    rollback support: ``undo`` journals the inverse records, and the
    next sync patches the state back.  A solution the engine did not
    follow (a copy, a decoded chromosome) or a journal trimmed past the
    cursor is re-checked in full, against the same mirror.

    The search graph is kept in two edge layers:

    * a **static dependency layer**, built once: every application
      dependency is permanently wired ``src -> comm -> dst`` through its
      interned communication node.  When the transfer is active (edge
      crosses resources under the ``"ordered"`` policy), the transfer
      time is the comm node's duration; when inactive, it is the weight
      of the ``src -> comm`` edge (``0`` for same-resource edges) and
      the comm node's duration is zero.  Both routings produce the same
      float candidates as the reference graph's direct edge, so a move
      that flips an edge's crossing state is a pure O(1) weight patch —
      the layer's structure, indegrees and reachability never change;
    * a **sequentialization layer** holding per-resource ``Esw``/``Ehw``
      edges, recomputed only for resources whose order actually changed
      (a move touches at most two) and patched pair-trimmed — only the
      differing middle of a resource's edge list is unlinked and
      relinked, and weight-only changes (e.g. an implementation swap
      retuning reconfiguration delays) keep the structure.

    On top of the layers sit three persistent structures:

    * **One topological order.**  The base layers are kept first,
      ignoring the bus chain.  One live added edge that contradicts the
      order is *repaired* in place by one Pearce/Kelly region
      reordering: every other live edge agrees with the stored
      positions, so an insert that finds a cycle is an exact verdict and
      leaves the order as it was.  Two or more contradicting edges go to
      one Kahn sort.  Then the bus chain — the serialized transaction
      order, one more pointer layer — is written, and its contradicting
      edges are unlinked and re-inserted one at a time (or the base
      layers plus the chain are sorted at once).  Every order the engine
      evaluates with is a topological order, so cyclic realizations are
      detected exactly like the reference engine.
    * **The base DP values.**  The unserialized ASAP start/finish values
      survive across evaluations.  Every node whose inputs change is
      recorded where the change is written — structural deltas by
      :meth:`_replace_edges`, duration and pass-through weight changes
      by compare-and-seed writes — and the DP re-runs only from the
      earliest order position among them.  Recomputed nodes take the
      max over the identical candidate set the full DP would, so
      makespans stay bit-identical.
    * **The serialized DP values** (base layers plus the bus chain) on
      separate buffers, persistent the same way: the same DP loop
      re-runs them from the earliest position among the base seeds and
      the comm nodes whose chain predecessor changed.  When no chain
      edge binds in the base values, the serialized values *are* the
      base values and are copied instead.

    Per-RC reconfiguration statistics for the Fig. 3 decomposition are
    cached alongside.  ``Processor``/``ReconfigurableCircuit``/``Asic``
    contributions are generated natively over the interned arrays;
    unknown :class:`Resource` subclasses fall back to calling the
    resource's own ``sequentialization_edges``/``virtual_nodes`` on
    every evaluation (conservative but correct).
    """

    name = "incremental"

    #: Contradicting-edge count above which repairing the bus chain is
    #: assumed costlier than one Kahn rebuild, and past which the base
    #: layers' contradicting edges drop the stored order outright.
    MAX_REPAIR_EDGES = 24

    def __init__(
        self,
        application: Application,
        architecture: Architecture,
        bus_policy: str = "ordered",
        compiled=None,
    ) -> None:
        if compiled is not None and (
            compiled.application is not application
            or compiled.bus is not architecture.bus
        ):
            raise ConfigurationError(
                "provided CompiledInstance was compiled for a different "
                "application/bus than this engine's"
            )
        self._compiled_seed = compiled
        super().__init__(application, architecture, bus_policy)
        self._build_skeleton(architecture.bus)

    # ------------------------------------------------------------------
    # one-time skeleton (solution-independent)
    # ------------------------------------------------------------------
    def _build_skeleton(self, bus) -> None:
        self._bus = bus
        self._ordered = self.bus_policy == "ordered"
        # The one compile pass (repro.mapping.compiled) flattens the
        # application + bus into the dense solution-independent tables;
        # the engine aliases them (and extends the per-node arrays in
        # place when virtual nodes are interned later).  A caller may
        # hand the constructor a pre-built ``CompiledInstance.fork()``
        # instead — that's how K cross-chain engines share one compile
        # pass.  The seed is one-shot: a bus swap recompiles.
        compiled = self._compiled_seed
        self._compiled_seed = None
        if compiled is None or compiled.bus is not bus:
            compiled = compile_instance(self.application, bus)
        self.compiled = compiled
        self._tasks = compiled.tasks
        self._ntasks = compiled.ntasks
        self._interner = compiled.interner
        self._tid = compiled.tid
        self._sw_ms = compiled.sw_ms
        self._impl_clbs = compiled.impl_clbs
        self._impl_ms = compiled.impl_ms
        self._pred_ids = compiled.pred_ids
        self._succ_ids = compiled.succ_ids
        self._dep_srct = compiled.dep_srct
        self._dep_dstt = compiled.dep_dstt
        self._dep_src = compiled.dep_src
        self._dep_dst = compiled.dep_dst
        self._dep_transfer = compiled.dep_transfer
        self._dep_comm = compiled.dep_comm
        self._deps_of_task = compiled.deps_of_task
        ndeps = compiled.ndeps
        self._ndeps = ndeps

        # Static dependency layer: dep j is permanently wired
        # ``src -> comm -> dst`` where comm is the dense id ``ntasks +
        # j`` (interning order guarantees contiguity).  The ``src ->
        # comm`` weight is the only mutable part; the ``comm -> dst``
        # edge is always 0, so task-side predecessors reduce to a plain
        # list of comm ids whose *finish* times are the candidates.
        # This structure — and therefore its indegrees and reachability
        # — never changes after construction.
        n = len(self._interner)
        self._comm_w: List[float] = [0.0] * ndeps
        self._pred_comms = compiled.pred_comms
        self._succ_static = compiled.succ_static
        self._indeg_static = compiled.indeg_static
        # Processor total orders as prev/next pointer arrays: a task sits
        # on at most one processor, so one array pair covers them all and
        # replacing a processor's chain is plain integer stores.
        self._proc_prev: List[int] = [-1] * n
        self._proc_next: List[int] = [-1] * n

        # Immediate-predecessor and -successor bitmasks over the dense
        # task ids: a context member is initial (terminal) when no bit
        # of its mask falls inside the context.
        self._pred_mask = [sum(1 << p for p in ps) for ps in self._pred_ids]
        self._succ_mask = [sum(1 << q for q in qs) for qs in self._succ_ids]
        self._config_ids: Dict[str, int] = {}

        # Internal counters sampled by the telemetry layer (plain ints,
        # incremented unconditionally: cheaper than any enabled-check
        # and deterministic for fixed seeds).
        self.stat_sync_calls = 0
        self.stat_sync_full = 0
        self.stat_sync_tasks = 0
        self.stat_sync_resources = 0
        self.stat_rc_rebuilds = 0

        # Dynamic (solution-dependent) state, reset to "never seen".
        self._dur: List[float] = [0.0] * n
        self._res_kind: Dict[str, Tuple] = {}
        self._invalidate()

    def _invalidate(self) -> None:
        """Forget all mirrored solution state (forces a full re-sync)."""
        n = len(self._interner)
        # Durations mirror solution state too: the re-sync recomputes
        # task and comm durations (every task diffs) and re-stamps
        # active config nodes, but a config node whose RC ends up empty
        # is only zeroed via _virtual_ids — which is being reset here —
        # so clear the whole array rather than leak a stale duration.
        for node_id in range(len(self._dur)):
            self._dur[node_id] = 0.0
        self._m_resource: List[Optional[str]] = [None] * self._ntasks
        self._m_impl: List[int] = [-1] * self._ntasks
        self._m_res_names: List[str] = []
        # The solution the mirror follows and the absolute journal
        # position read up to; any other solution is re-checked in full.
        self._m_solution: Optional[Solution] = None
        self._m_cursor = 0
        self._rc_list: List[Tuple[str, ReconfigurableCircuit]] = []
        # Each resource's live sequentialization edges: ``(prev, next)``
        # chain pairs for processors, ``(src, dst, weight)`` triples for
        # every other resource.
        self._res_edges: Dict[str, List[Tuple]] = {}
        self._virtual_ids: Dict[str, List[int]] = {}
        self._rc_stats: Dict[str, Tuple[int, float, float, int]] = {}
        self._hw_count = 0
        self._dep_mode: List[int] = [-1] * self._ndeps
        self._active_deps: List[int] = []
        self._active_dirty = True
        # Sequentialization layer: maintained edge by edge as resources
        # change.  ``pred_seq[v]`` holds ``(src, weight)`` pairs; the
        # combined indegrees are kept in step so Kahn never needs a
        # recount pass.
        self._pred_seq: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
        self._succ_seq: List[List[int]] = [[] for _ in range(n)]
        self._indeg_total: List[int] = list(self._indeg_static)
        for v in range(n):
            self._proc_prev[v] = -1
            self._proc_next[v] = -1
        # The persistent base topological order, held as at most one
        # ``[order, position, valid]`` entry.  It stays valid until an
        # *added* edge contradicts its positions (checked in O(1) per
        # added edge); removals never invalidate it.
        self._orders0: List[List] = []
        #: The bus chain: comm ids in transaction order, and the same
        #: chain as pointer arrays (``-1`` off the chain).  The base
        #: layers never read them; ``_no_chain`` stands in for them
        #: wherever the base graph alone is walked.
        self._chain_perm: List[int] = []
        self._chain_pred: List[int] = [-1] * n
        self._chain_next: List[int] = [-1] * n
        self._no_chain: List[int] = [-1] * n
        #: Base (unserialized) DP values, persistent across evaluations.
        self._starts0: List[float] = [0.0] * n
        self._finish0: List[float] = [0.0] * n
        #: Serialized DP values (base graph + bus chain), persistent
        #: across evaluations as well.
        self._starts1: List[float] = [0.0] * n
        self._finish1: List[float] = [0.0] * n
        #: Whether the persistent base DP values are trustworthy.
        self._values_valid = False
        #: Whether the serialized values are current up to
        #: ``_dirty_seeds`` and the next chain relink, with the
        #: persistent order respecting the chain arrays; if not, the
        #: next serialized pass checks every chain edge and runs in full.
        self._ser_valid = False
        #: Node ids whose inputs changed since the last DP run
        #: (structural deltas from :meth:`_replace_edges`, duration and
        #: pass-through weight changes from the compare-and-seed writes).
        self._dirty_seeds: set = set()
        #: Added edges that contradict the persistent order (repaired
        #: or folded into the next rebuild).
        self._pending_edges: List[Tuple[int, int]] = []
        # Telemetry counters for the order machinery (plain ints, reset
        # together with the order state they describe).
        self.stat_order_repairs = 0
        self.stat_order_rebuilds = 0
        self.stat_chain_repairs = 0
        self.stat_chain_rebuilds = 0

    def _classify_resources(self, arch: Architecture) -> None:
        """(Re)build the resource kind table.  Entries are kept for
        resources that left the architecture: a removed resource's name
        can still appear as a task's *previous* assignment in the very
        diff that rehomes the task (move m3).

        Exact types get the array fast paths; *subclasses* of the
        built-in resources (which may override timing or edge emission)
        fall back to the polymorphic ``"?"`` path, whose third field
        records whether the resource hosts hardware tasks (RC/ASIC
        lineage) for the hardware-task counter."""
        for res in arch.resources():
            name = res.name
            if name not in self._res_kind or self._res_kind[name][1] is not res:
                kind = type(res)
                if kind is Processor:
                    self._res_kind[name] = ("p", res, res.speed_factor)
                elif kind is ReconfigurableCircuit:
                    self._res_kind[name] = ("rc", res)
                elif kind is Asic:
                    self._res_kind[name] = ("asic", res)
                else:
                    is_hw = isinstance(res, (ReconfigurableCircuit, Asic))
                    self._res_kind[name] = ("?", res, is_hw)

    # ------------------------------------------------------------------
    def telemetry_counters(self) -> Dict[str, int]:
        out = super().telemetry_counters()
        out.update(
            sync_calls=self.stat_sync_calls,
            sync_full=self.stat_sync_full,
            sync_tasks=self.stat_sync_tasks,
            sync_resources=self.stat_sync_resources,
            rc_rebuilds=self.stat_rc_rebuilds,
            order_repairs=self.stat_order_repairs,
            order_rebuilds=self.stat_order_rebuilds,
            chain_repairs=self.stat_chain_repairs,
            chain_rebuilds=self.stat_chain_rebuilds,
        )
        return out

    # ------------------------------------------------------------------
    # delta synchronization
    # ------------------------------------------------------------------
    def _sync(self, solution: Solution) -> None:
        self.stat_sync_calls += 1
        arch = solution.architecture
        if arch.bus is not self._bus:
            # Transfer times were precomputed against another bus; this
            # never happens in the optimizers (snapshots share the bus
            # object) but stay correct if a caller swaps it.
            self._build_skeleton(arch.bus)

        res_kind = self._res_kind
        names = arch.resource_names()
        if names != self._m_res_names:
            self._classify_resources(arch)
            gone = set(self._m_res_names) - set(names)
            self._replace_edges(
                [(name, res_kind[name][0] == "p", []) for name in gone]
            )
            for name in gone:
                self._res_edges.pop(name, None)
                self._rc_stats.pop(name, None)
                for node_id in self._virtual_ids.pop(name, ()):
                    self._set_dur(node_id, 0.0)
            self._m_res_names = list(names)
            self._rc_list = [
                (r.name, r)
                for r in arch.resources()
                if isinstance(r, ReconfigurableCircuit)
            ]

        res_of = solution._resource_of
        impl_of = solution._impl_choice
        tid = self._tid
        if len(res_of) != self._ntasks:
            # Match the reference engine, which trips over the missing
            # assignment while realizing the graph; without this guard a
            # partially assigned solution would silently score with
            # zero durations for the unassigned tasks.
            for t in self._tasks:
                if t not in res_of:
                    raise MappingError(f"task {t} is not assigned")

        # What to re-check: the tasks and resources named by the journal
        # records after the cursor.  They are hints, not a replay — the
        # solution's state is the truth, so reversed or redundant
        # records cost a no-op re-check.
        journal = solution._journal
        start = self._m_cursor - solution._journal_base
        if solution is self._m_solution and start >= 0:
            tasks = set()
            touched = set()
            for idx in range(start, len(journal)):
                record = journal[idx]
                tag = record[0]
                if tag == "L":
                    tasks.add(record[1])
                    touched.add(record[2])
                elif tag == "I":
                    tasks.add(record[1])
                else:
                    touched.add(record[1].name)
        else:
            self.stat_sync_full += 1
            tasks = self._tasks
            touched = None
        self._m_solution = solution
        if solution._journal is None:
            # Start the journal of a newly followed solution.  An
            # existing one is never marked here: the mark could trim it
            # under a move's outstanding rollback mark.
            solution.journal_mark()
        self._m_cursor = solution._journal_base + len(solution._journal)

        # Per-task assignment / implementation re-check -> durations,
        # deps and the hardware-task count.
        m_res = self._m_resource
        m_impl = self._m_impl
        changed: List[int] = []
        for t in tasks:
            r = res_of[t]
            c = impl_of.get(t, 0)
            i = tid[t]
            old_r = m_res[i]
            if r != old_r:
                if old_r is not None and _kind_is_hw(res_kind[old_r]):
                    self._hw_count -= 1
                if _kind_is_hw(res_kind[r]):
                    self._hw_count += 1
                m_res[i] = r
            elif c == m_impl[i]:
                continue
            if c != m_impl[i]:
                # The variant's area and time feed the hosting resource's
                # reconfiguration weights.
                m_impl[i] = c
                if touched is not None:
                    touched.add(r)
            changed.append(i)
        self.stat_sync_tasks += len(changed)
        if changed:
            impl_ms = self._impl_ms
            sw_ms = self._sw_ms
            for i in changed:
                kind = res_kind[m_res[i]]
                if kind[0] == "p":
                    value = sw_ms[i] / kind[2]
                elif kind[0] == "?" or impl_ms[i] is None:
                    value = kind[1].execution_time_ms(solution, self._tasks[i])
                else:
                    value = impl_ms[i][m_impl[i]]
                self._set_dur(i, value)
            for i in changed:
                for j in self._deps_of_task[i]:
                    self._refresh_dep(j)

        # Per-resource sequentialization edges of the re-checked
        # resources.  Unknown resource types are refreshed on every call
        # through their own polymorphic methods: overridden methods may
        # depend on state the journal does not name.
        updates: List[Tuple[str, bool, List[Tuple]]] = []
        for name in names:
            kind = res_kind[name]
            tag = kind[0]
            if tag == "?":
                triples = self._refresh_generic(name, kind[1], solution)
                updates.append((name, False, triples))
            elif touched is not None and name not in touched:
                continue
            elif tag == "p":
                ids = [tid[t] for t in solution._sw_orders[name]]
                updates.append((name, True, list(zip(ids, ids[1:]))))
            elif tag == "rc":
                triples = self._refresh_rc(
                    name, kind[1], solution._contexts[name]
                )
                updates.append((name, False, triples))
        self.stat_sync_resources += len(updates)
        if updates:
            self._replace_edges(updates)

    def _set_dur(self, node: int, value: float) -> None:
        """Write a node duration, seeding the suffix DP when it changes."""
        if self._dur[node] != value:
            self._dur[node] = value
            self._dirty_seeds.add(node)

    def _refresh_dep(self, j: int) -> None:
        """Re-derive a dependency's realization from the mirrored
        assignment.  Purely a weight/duration patch: the dependency is
        permanently wired through its comm node, so flipping between
        active transfer (duration on the comm node) and pass-through
        (weight on the ``src -> comm`` edge) never changes structure."""
        crossing = self._m_resource[self._dep_src[j]] != self._m_resource[self._dep_dst[j]]
        transfer = self._dep_transfer[j]
        comm_id = self._dep_comm[j]
        if crossing and transfer > 0.0 and self._ordered:
            mode, weight, duration = 1, 0.0, transfer
        else:
            mode, weight, duration = 0, (transfer if crossing else 0.0), 0.0
        if self._comm_w[j] != weight or self._dur[comm_id] != duration:
            # Both values feed only the comm node's start/finish.
            self._comm_w[j] = weight
            self._dur[comm_id] = duration
            self._dirty_seeds.add(comm_id)
        if mode != self._dep_mode[j]:
            self._dep_mode[j] = mode
            self._active_dirty = True

    def _refresh_rc(
        self,
        name: str,
        rc: ReconfigurableCircuit,
        contexts: List[List[int]],
    ) -> List[Tuple[int, int, float]]:
        """Native regeneration of a DRLC's search-graph contribution:
        context sequentialization edges ``Ehw``, the virtual
        configuration node, and the cached reconfiguration statistics.
        Mirrors ``ReconfigurableCircuit.sequentialization_edges`` /
        ``virtual_nodes`` exactly, over interned arrays; each context's
        boundary tasks come from the immediate-neighbour bitmasks."""
        self.stat_rc_rebuilds += 1
        if not contexts:
            for node_id in self._virtual_ids.pop(name, ()):
                self._set_dur(node_id, 0.0)
            self._rc_stats[name] = (0, 0.0, 0.0, 0)
            return []
        config_id = self._config_ids.get(name)
        if config_id is None:
            config_id = self._interner.intern((CONFIG_NODE, name))
            self._config_ids[name] = config_id
            self._grow_nodes()
        tid = self._tid
        m_impl = self._m_impl
        impl_clbs = self._impl_clbs
        pred_mask = self._pred_mask
        succ_mask = self._succ_mask
        ctx_clbs: List[int] = []
        initials: List[List[int]] = []
        terminals: List[List[int]] = []
        for ctx in contexts:
            members = [tid[t] for t in ctx]
            inside = 0
            clbs = 0
            for i in members:
                inside |= 1 << i
                clbs += impl_clbs[i][m_impl[i]]
            ctx_clbs.append(clbs)
            initials.append([i for i in members if not pred_mask[i] & inside])
            terminals.append([i for i in members if not succ_mask[i] & inside])
        triples: List[Tuple[int, int, float]] = [
            (config_id, i, 0.0) for i in initials[0]
        ]
        reconfig = [rc.reconfiguration_time_ms(c) for c in ctx_clbs]
        for k in range(len(contexts) - 1):
            weight = reconfig[k + 1]
            for t in terminals[k]:
                for i in initials[k + 1]:
                    triples.append((t, i, weight))
        self._rc_stats[name] = (
            len(contexts), reconfig[0], sum(reconfig[1:]), sum(ctx_clbs)
        )
        self._set_dur(config_id, reconfig[0])
        self._virtual_ids[name] = [config_id]
        return triples

    def _refresh_generic(
        self, name: str, res: Resource, solution: Solution
    ) -> List[Tuple[int, int, float]]:
        """Fallback for unknown resource types: delegate to the
        resource's polymorphic search-graph contribution."""
        intern = self._interner.intern
        triples = [
            (intern(a), intern(b), w)
            for a, b, w in res.sequentialization_edges(solution)
        ]
        virtual = getattr(res, "virtual_nodes", None)
        entries = virtual(solution) if virtual is not None else []
        new_ids = [intern(key) for key, _duration in entries]
        self._grow_nodes()
        for node_id in self._virtual_ids.get(name, ()):
            if node_id not in new_ids:
                self._set_dur(node_id, 0.0)
        for (_key, duration), node_id in zip(entries, new_ids):
            self._set_dur(node_id, duration)
        self._virtual_ids[name] = new_ids
        return triples

    def _replace_edges(self, updates: List[Tuple[str, bool, List[Tuple]]]) -> None:
        """Install the new sequentialization edges of every refreshed
        resource.  ``updates`` holds ``(name, is_processor, edges)``:
        processor chains as ``(prev, next)`` pairs in the pointer
        arrays, every other resource as ``(src, dst, weight)`` triples
        in the seq layer.

        Each list is pair-trimmed against the resource's previous one —
        a move perturbs a contiguous region of a resource's edges, so
        only the differing middle is unlinked and relinked.  Every
        removal is applied before any addition: an edge can migrate
        between two resources refreshed in the same diff, and a later
        unlink must not clobber its new link.  Seq edge pairs are unique
        within one resource (it only chains its own tasks and its own
        config node), so unlinking by ``(src, dst)`` is unambiguous."""
        res_edges = self._res_edges
        chain_removed: List[Tuple] = []
        chain_added: List[Tuple] = []
        seq_removed: List[Tuple] = []
        seq_added: List[Tuple] = []
        for name, is_proc, edges in updates:
            removed, added = _trim(res_edges.get(name, []), edges)
            res_edges[name] = edges
            if is_proc:
                chain_removed += removed
                chain_added += added
            else:
                seq_removed += removed
                seq_added += added
        removed = chain_removed + seq_removed
        added = chain_added + seq_added
        if not removed and not added:
            return
        proc_prev = self._proc_prev
        proc_next = self._proc_next
        pred_seq = self._pred_seq
        succ_seq = self._succ_seq
        indeg = self._indeg_total
        for a, b in chain_removed:
            proc_next[a] = -1
            proc_prev[b] = -1
            indeg[b] -= 1
        for a, b, _w in seq_removed:
            succ_seq[a].remove(b)
            plist = pred_seq[b]
            for idx in range(len(plist)):
                if plist[idx][0] == a:
                    del plist[idx]
                    break
            indeg[b] -= 1
        for a, b in chain_added:
            proc_next[a] = b
            proc_prev[b] = a
            indeg[b] += 1
        for a, b, w in seq_added:
            succ_seq[a].append(b)
            pred_seq[b].append((a, w))
            indeg[b] += 1
        self._note_structural(removed, added)

    def _grow_nodes(self) -> None:
        n = len(self._interner)
        if len(self._dur) < n:
            while len(self._dur) < n:
                self._dur.append(0.0)
                self._pred_comms.append([])
                self._succ_static.append([])
                self._indeg_static.append(0)
                self._pred_seq.append([])
                self._succ_seq.append([])
                self._indeg_total.append(0)
                self._proc_prev.append(-1)
                self._proc_next.append(-1)
                self._chain_pred.append(-1)
                self._chain_next.append(-1)
                self._no_chain.append(-1)
                self._starts0.append(0.0)
                self._finish0.append(0.0)
                self._starts1.append(0.0)
                self._finish1.append(0.0)
            # The persistent order and values do not cover the new
            # nodes yet.
            self._orders0.clear()
            self._pending_edges.clear()
            self._values_valid = False

    # ------------------------------------------------------------------
    # structural dirt capture (_replace_edges reports exact deltas)
    # ------------------------------------------------------------------
    def _note_structural(self, removed, added) -> None:
        """Record an exact structural delta of the sequentialization
        layer (edges as ``(src, dst, ...)`` tuples): every edge head
        seeds the suffix DP, and an added edge that contradicts the
        persistent order invalidates it and is queued for repair."""
        seeds = self._dirty_seeds
        for pair in removed:
            seeds.add(pair[1])
        if not added:
            return
        entries = self._orders0
        if not entries:
            for pair in added:
                seeds.add(pair[1])
            return
        entry = entries[0]
        pos0 = entry[1]
        pending = self._pending_edges
        for pair in added:
            a, b = pair[0], pair[1]
            seeds.add(b)
            if pos0[a] >= pos0[b]:
                entry[2] = False
                pending.append((a, b))
        if len(pending) > self.MAX_REPAIR_EDGES:
            # Too many contradictions: the stored order is beyond
            # repair.  Drop it (a Kahn rebuild starts a fresh one) so
            # the pending list cannot balloon while the walk churns.
            entries.clear()
            pending.clear()

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def _compute(
        self, solution: Solution
    ) -> Tuple[float, bool, float, Optional[CycleError]]:
        """Returns ``(makespan, feasible, comm_ms, cycle_error)``."""
        self._sync(solution)
        if self._active_dirty:
            dep_mode = self._dep_mode
            self._active_deps = [
                j for j in range(self._ndeps) if dep_mode[j] == 1
            ]
            self._active_dirty = False
        n = len(self._interner)
        seeds = self._dirty_seeds

        # --- persistent order: revalidate, repair, else rebuild --------
        # Over the base layers only: the chain arrays still hold the
        # previous evaluation's bus chain, and a stale chain edge can
        # close a false cycle.
        entries = self._orders0
        entry = entries[0] if entries else None
        full_dp = not self._values_valid
        moved = False
        if entry is not None and not entry[2]:
            # Contradicting edges that were since removed (rejected moves
            # get undone) stop mattering; what remains is the exact
            # bridge between the stored order and the live edge set.
            pending = self._pending_edges
            pending[:] = [e for e in pending if self._edge_live(e)]
            if not pending:
                # Every contradicting addition was undone: the stored
                # order is exactly valid again.
                entry[2] = True
            elif len(pending) == 1:
                # Every other live edge agrees with the stored positions,
                # so one Pearce/Kelly insert repairs the order, or proves
                # the realization cyclic before it writes anything.
                a, b = pending[0]
                no_chain = self._no_chain
                if not self._pk_insert(
                    entry[0], entry[1], a, b, no_chain, no_chain
                ):
                    keys = self._interner.keys()
                    return self._infeasible(CycleError(
                        "realization contains a cycle",
                        cycle=[keys[b], keys[a]],
                    ))
                self.stat_order_repairs += 1
                entry[2] = True
                pending.clear()
                moved = True
        if entry is None or not entry[2]:
            # No stored order, or two or more contradicting edges: one
            # Kahn over the base layers (a failed sort leaves the stored
            # order as it was).
            self.stat_order_rebuilds += 1
            try:
                order = kahn_order_indices(
                    n, self._indeg_total, self._succ_static,
                    self._interner.keys(), self._succ_seq, self._proc_next,
                )
            except CycleError as exc:
                return self._infeasible(exc)
            # Note: a rebuilt *order* does not invalidate the persistent
            # *values* — they depend on the graph, not on the order —
            # so the suffix DPs below still apply.
            entry = self._adopt_order(order)
            moved = True
        order, pos = entry[0], entry[1]

        # --- persistent base DP: full or suffix ------------------------
        starts0 = self._starts0
        finish0 = self._finish0
        if full_dp:
            self._dp_range(order, 0, self._no_chain, starts0, finish0)
            self._values_valid = True
        elif seeds:
            self._dp_range(
                order, min(pos[v] for v in seeds), self._no_chain,
                starts0, finish0,
            )

        active = self._active_deps
        if not active:
            seeds.clear()
            self._ser_valid = False
            return max(finish0), True, 0.0, None

        # --- bus chain: ASAP order in the unserialized graph, ties
        # broken by (source task, destination task) — the exact
        # deterministic policy of SearchGraphBuilder._serialize_bus.
        # Comm ids are ``ntasks + j``, so the chain holds them directly.
        lo = self._ntasks
        srct = self._dep_srct
        dstt = self._dep_dstt
        chain = [
            lo + key[3]
            for key in sorted(
                (starts0[lo + j], srct[j], dstt[j], j) for j in active
            )
        ]
        heads = self._relink_chain(chain) if chain != self._chain_perm else ()
        dur = self._dur
        comm_ms = sum(dur[c] for c in chain)

        # --- keep the persistent order a topological order of the
        # serialized graph too (base layers + bus chain) --------------
        ser_full = full_dp or not self._ser_valid
        if moved or heads or ser_full:
            bad = [(a, b) for a, b in zip(chain, chain[1:]) if pos[a] > pos[b]]
            if bad:
                if len(bad) <= self.MAX_REPAIR_EDGES and self._repair_chain(
                    order, pos, bad
                ):
                    self.stat_chain_repairs += 1
                else:
                    # Too many contradictions, or a chain edge closes a
                    # cycle: sort base layers + bus chain at once.
                    # Processor chains link only task ids and the bus
                    # chain only comm ids, so one pointer array carries
                    # both chain layers.
                    self.stat_chain_rebuilds += 1
                    hi = lo + self._ndeps
                    chains = list(self._proc_next)
                    chains[lo:hi] = self._chain_next[lo:hi]
                    indeg = list(self._indeg_total)
                    for c in chain[1:]:
                        indeg[c] += 1
                    try:
                        order = kahn_order_indices(
                            n, indeg, self._succ_static,
                            self._interner.keys(), self._succ_seq, chains,
                        )
                    except CycleError as exc:
                        seeds.clear()
                        self._ser_valid = False
                        return INFEASIBLE_MS, False, comm_ms, exc
                    order, pos = self._adopt_order(order)[:2]

        # --- persistent serialized DP ---------------------------------
        starts1 = self._starts1
        finish1 = self._finish1
        if all(finish0[a] <= starts0[b] for a, b in zip(chain, chain[1:])):
            # No chain edge binds: the serialized values are the base
            # values bit for bit (no chain candidate wins a max).
            starts1[:] = starts0
            finish1[:] = finish0
        elif ser_full:
            self._dp_range(order, 0, self._chain_pred, starts1, finish1)
        elif seeds or heads:
            start = min(pos[v] for v in (*seeds, *heads))
            self._dp_range(order, start, self._chain_pred, starts1, finish1)
        seeds.clear()
        self._ser_valid = True
        return max(finish1), True, comm_ms, None

    def _infeasible(
        self, exc: CycleError
    ) -> Tuple[float, bool, float, Optional[CycleError]]:
        """``_compute``'s result for a cyclic unserialized realization."""
        dur = self._dur
        dep_comm = self._dep_comm
        comm_ms = sum(dur[dep_comm[j]] for j in self._active_deps)
        return INFEASIBLE_MS, False, comm_ms, exc

    # ------------------------------------------------------------------
    # persistent order maintenance
    # ------------------------------------------------------------------
    def _adopt_order(self, order: List[int]) -> List:
        """Install a freshly sorted order as the persistent order and
        return its ``[order, position, valid]`` entry."""
        pos = [0] * len(order)
        for idx, v in enumerate(order):
            pos[v] = idx
        entry = [order, pos, True]
        self._orders0[:] = [entry]
        self._pending_edges.clear()
        return entry

    def _relink_chain(self, chain: List[int]) -> List[int]:
        """Write a new bus chain into the chain pointer arrays and
        return the comm ids whose chain predecessor changed (they seed
        the serialized DP).  Transfers that went inactive are unlinked."""
        chain_pred = self._chain_pred
        chain_next = self._chain_next
        dep_mode = self._dep_mode
        lo = self._ntasks
        heads: List[int] = []
        for c in self._chain_perm:
            if dep_mode[c - lo] != 1:
                chain_next[c] = -1
                if chain_pred[c] >= 0:
                    chain_pred[c] = -1
                    heads.append(c)
        first = chain[0]
        if chain_pred[first] >= 0:
            chain_pred[first] = -1
            heads.append(first)
        for a, b in zip(chain, chain[1:]):
            chain_next[a] = b
            if chain_pred[b] != a:
                chain_pred[b] = a
                heads.append(b)
        chain_next[chain[-1]] = -1
        self._chain_perm = chain
        return heads

    def _edge_live(self, edge: Tuple[int, int]) -> bool:
        """Is the once-added edge still present in the live layers?"""
        a, b = edge
        if self._proc_next[a] == b:
            return True
        return b in self._succ_seq[a]

    def _repair_chain(
        self, order: List[int], pos: List[int], bad: List[Tuple[int, int]]
    ) -> bool:
        """Repair the persistent order for the bus-chain edges that
        contradict it.  They are unlinked first and re-inserted one at a
        time, so every Pearce/Kelly insertion runs with every other
        linked edge (base layers and chain) position-consistent: each
        step is sound by the PK invariant and needs no O(E) check.
        Returns False when an insertion finds a cycle; the edges are
        relinked either way."""
        chain_pred = self._chain_pred
        chain_next = self._chain_next
        for a, b in bad:
            chain_next[a] = -1
            chain_pred[b] = -1
        ok = True
        for a, b in bad:
            if ok and pos[a] > pos[b]:
                ok = self._pk_insert(order, pos, a, b, chain_next, chain_pred)
            chain_next[a] = b
            chain_pred[b] = a
        return ok

    def _pk_insert(
        self,
        order: List[int],
        pos: List[int],
        a: int,
        b: int,
        chain_next: List[int],
        chain_pred: List[int],
    ) -> bool:
        """Reorder the affected region for one edge ``a -> b`` with
        ``pos[a] >= pos[b]``: forward-reachable nodes of ``b`` and
        backward-reachable nodes of ``a`` (both within the region) are
        remapped onto their own position pool, backward block first.
        The bus chain is walked through ``chain_next``/``chain_pred``
        (``_no_chain`` for the base graph alone).  Returns False, with
        ``order`` and ``pos`` untouched, when the region search sees a
        cycle."""
        lower = pos[b]
        upper = pos[a]
        lo = self._ntasks
        hi = lo + self._ndeps
        succ_static = self._succ_static
        succ_seq = self._succ_seq
        proc_next = self._proc_next
        forward = {b}
        stack = [b]
        while stack:
            x = stack.pop()
            for y in succ_static[x]:
                if pos[y] <= upper and y not in forward:
                    if y == a:
                        return False
                    forward.add(y)
                    stack.append(y)
            for y in succ_seq[x]:
                if pos[y] <= upper and y not in forward:
                    if y == a:
                        return False
                    forward.add(y)
                    stack.append(y)
            # Processor chains link task ids, the bus chain comm ids.
            y = proc_next[x] if x < lo else chain_next[x]
            if y >= 0 and pos[y] <= upper and y not in forward:
                if y == a:
                    return False
                forward.add(y)
                stack.append(y)
        comm_src = self._dep_src
        pred_comms = self._pred_comms
        pred_seq = self._pred_seq
        proc_prev = self._proc_prev
        backward = {a}
        stack = [a]
        while stack:
            x = stack.pop()
            if lo <= x < hi:
                preds = (comm_src[x - lo],)
                y = chain_pred[x]
            else:
                preds = pred_comms[x]
                y = proc_prev[x]
            if y >= 0 and pos[y] >= lower and y not in backward:
                if y == b:
                    return False
                backward.add(y)
                stack.append(y)
            for y in preds:
                if pos[y] >= lower and y not in backward:
                    if y == b:
                        return False
                    backward.add(y)
                    stack.append(y)
            for y, _w in pred_seq[x]:
                if pos[y] >= lower and y not in backward:
                    if y == b:
                        return False
                    backward.add(y)
                    stack.append(y)
        # Merge: the affected nodes keep their position pool; the
        # backward block (everything that must precede ``a``, including
        # ``a``) goes first, the forward block second, each in its
        # existing relative order.
        affected = sorted(backward, key=pos.__getitem__)
        affected += sorted(forward, key=pos.__getitem__)
        pool = sorted(pos[v] for v in affected)
        for p, v in zip(pool, affected):
            pos[v] = p
            order[p] = v
        return True

    # ------------------------------------------------------------------
    # persistent DP
    # ------------------------------------------------------------------
    def _dp_range(
        self,
        order: List[int],
        start: int,
        chain: List[int],
        starts: List[float],
        finish: List[float],
    ) -> None:
        """The reference DP loop over ``order[start:]``.  It serves two
        buffer pairs: the base values (``_starts0``/``_finish0``, with
        ``chain=_no_chain``) and the serialized values
        (``_starts1``/``_finish1``, with ``chain=_chain_pred``, the bus
        chain's predecessor of every comm node).  Values before
        ``start`` are reused: a node's value only depends on its
        predecessors — all at earlier positions in a valid order — so
        recomputing from the earliest position whose node's inputs
        changed reproduces the full DP bit-for-bit."""
        lo = self._ntasks
        hi = lo + self._ndeps
        comm_src = self._dep_src
        comm_w = self._comm_w
        pred_comms = self._pred_comms
        pred_seq = self._pred_seq
        proc_prev = self._proc_prev
        dur = self._dur
        for idx in range(start, len(order)):
            v = order[idx]
            if lo <= v < hi:
                j = v - lo
                best = finish[comm_src[j]] + comm_w[j]
                if best < 0.0:
                    best = 0.0  # mirror the reference DP's 0.0 floor
                u = chain[v]
                if u >= 0:
                    candidate = finish[u]
                    if candidate > best:
                        best = candidate
            else:
                best = 0.0
                for c in pred_comms[v]:
                    candidate = finish[c]
                    if candidate > best:
                        best = candidate
                u = proc_prev[v]
                if u >= 0:
                    candidate = finish[u]
                    if candidate > best:
                        best = candidate
                for u, w in pred_seq[v]:
                    candidate = finish[u] + w
                    if candidate > best:
                        best = candidate
            starts[v] = best
            finish[v] = best + dur[v]

    def _guarded_compute(
        self, solution: Solution
    ) -> Tuple[float, bool, float, Optional[CycleError]]:
        try:
            return self._compute(solution)
        except CycleError:
            raise
        except Exception:
            # The mirror may be half-updated (e.g. an unassigned task
            # surfaced mid-diff); drop it so the next call re-syncs from
            # scratch instead of trusting stale state.
            self._invalidate()
            raise

    # ------------------------------------------------------------------
    def makespan_ms(self, solution: Solution) -> float:
        self.evaluations += 1
        makespan, _feasible, _comm, _exc = self._guarded_compute(solution)
        return makespan

    def evaluate(self, solution: Solution, strict: bool = False) -> Evaluation:
        self.evaluations += 1
        makespan, feasible, comm_ms, exc = self._guarded_compute(solution)
        if not feasible and strict and exc is not None:
            raise exc
        # Fig. 3 decomposition from the cached per-RC statistics (the
        # full engine recomputes these sums from the solution; the values
        # are identical, accumulated in the same resource order).  RC
        # subclasses on the generic path have no cached stats and are
        # recomputed the full engine's way.
        initial = 0.0
        dynamic = 0.0
        clbs = 0
        num_contexts = 0
        rc_stats = self._rc_stats
        for name, rc in self._rc_list:
            stats = rc_stats.get(name)
            if stats is not None:
                num_contexts += stats[0]
                initial += stats[1]
                dynamic += stats[2]
                clbs += stats[3]
            else:
                initial += rc.initial_reconfiguration_ms(solution)
                dynamic += rc.dynamic_reconfiguration_ms(solution)
                contexts = solution.contexts(name)
                num_contexts += len(contexts)
                clbs += sum(
                    solution.context_clbs(name, k)
                    for k in range(len(contexts))
                )
        hw = self._hw_count
        return Evaluation(
            makespan_ms=makespan,
            feasible=feasible,
            num_contexts=num_contexts,
            hw_tasks=hw,
            sw_tasks=self._ntasks - hw,
            initial_reconfig_ms=initial,
            dynamic_reconfig_ms=dynamic,
            comm_ms=comm_ms,
            clbs_used=clbs,
        )


class CrossChainEvaluator:
    """K per-chain engines over one compile pass.

    The population annealer (:class:`repro.sa.population.PopulationAnnealer`)
    runs K independent chains, each with its own
    :class:`~repro.mapping.solution.Solution`.  Re-pointing one
    stateful engine across K solutions every round would defeat the
    incremental mirror (each sync would diff away the previous chain's
    whole assignment), so each chain gets a permanently-bound engine of
    its own and pays only its own chain's delta.  For the stateful
    engine the compile pass is shared: chain 0 compiles, chains 1..K-1
    receive :meth:`CompiledInstance.fork` views, so construction stays
    O(compile + K · mirror) instead of O(K · compile).

    ``propose_moves`` + ``resolve`` is the annealer hot path: each
    chain's permanently-bound engine scores its proposed move through
    the persistent delta path (apply → delta-sync → read the makespan)
    and leaves it applied; the annealer's accept keeps the
    already-synced engine state (commit-on-accept — no undo, no
    re-apply, no second delta-diff), a reject undoes the move and lets
    the engine's next delta-sync absorb the O(delta) reverse patch.
    """

    def __init__(
        self,
        application: Application,
        architecture: Architecture,
        chains: int,
        engine: str = "incremental",
        bus_policy: str = "ordered",
    ) -> None:
        if chains < 1:
            raise ConfigurationError(
                f"chains must be >= 1, got {chains!r}"
            )
        self.application = application
        self.architecture = architecture
        self.bus_policy = bus_policy
        # Chains 1..K-1 reuse chain 0's compile pass through
        # CompiledInstance.fork.
        first = make_engine(engine, application, architecture, bus_policy)
        engines: List[EvaluationEngine] = [first]
        compiled = getattr(first, "compiled", None)
        for _ in range(1, chains):
            engines.append(
                make_engine(
                    engine,
                    application,
                    architecture,
                    bus_policy,
                    compiled=None if compiled is None else compiled.fork(),
                )
            )
        self.engines = engines

    # ------------------------------------------------------------------
    @property
    def chains(self) -> int:
        return len(self.engines)

    @property
    def evaluations(self) -> int:
        """Total candidate evaluations across all chains."""
        return sum(engine.evaluations for engine in self.engines)

    def telemetry_counters(self) -> Dict[str, int]:
        """Engine internals summed across all chains."""
        out: Dict[str, int] = {}
        for engine in self.engines:
            for name, value in engine.telemetry_counters().items():
                out[name] = out.get(name, 0) + value
        return out

    def evaluate(self, chain: int, solution: Solution) -> Evaluation:
        """Evaluation of one chain's current state."""
        return self.engines[chain].evaluate(solution)

    # ------------------------------------------------------------------
    def propose_moves(
        self,
        solutions: Sequence[Solution],
        moves: Sequence,
        cost_function=None,
    ) -> List[Optional[Tuple[Evaluation, Optional[float]]]]:
        """Score chain k's proposed move against chain k's state, for
        all chains at once, as open transactions.

        Each move is applied, scored and costed (``cost`` is ``None``
        without a ``cost_function``), and left **applied** with its
        engine synced to the candidate; the caller must then call
        :meth:`resolve` for each non-``None`` outcome.  ``moves[k]`` may
        be ``None`` (no proposal this round); the k-th result is then
        ``None``, as it is when the move's application raises
        :class:`InfeasibleMoveError` — neither opens a transaction.  A
        move whose scoring raises is undone first."""
        if len(solutions) != len(self.engines) or len(moves) != len(
            self.engines
        ):
            raise ConfigurationError(
                f"expected {len(self.engines)} solutions and moves, got "
                f"{len(solutions)} and {len(moves)}"
            )
        results: List[Optional[Tuple[Evaluation, Optional[float]]]] = []
        for engine, solution, move in zip(self.engines, solutions, moves):
            if move is None:
                results.append(None)
                continue
            try:
                move.apply(solution)
            except InfeasibleMoveError:
                results.append(None)
                continue
            try:
                evaluation = engine.evaluate(solution)
                cost = (
                    cost_function(solution, evaluation)
                    if cost_function is not None
                    else None
                )
            except Exception:
                move.undo(solution)
                raise
            results.append((evaluation, cost))
        return results

    def resolve(
        self, chain: int, solution: Solution, move, accept: bool
    ) -> None:
        """Finish one chain's transaction from the last
        :meth:`propose_moves` round: commit-on-accept keeps the applied
        move and the engine's already-synced state; reject undoes the
        move (the undo journals its inverse records, which the engine's
        next delta-sync re-checks in O(delta))."""
        if not accept:
            move.undo(solution)


def make_engine(
    name: str,
    application: Application,
    architecture: Architecture,
    bus_policy: str = "ordered",
    compiled=None,
) -> EvaluationEngine:
    """Instantiate an evaluation engine by name: ``"full"``, or
    ``"incremental"``/``"array"`` (two names of the same engine); raises
    :class:`ConfigurationError` otherwise.  ``compiled`` hands an
    existing :class:`CompiledInstance` (or fork) to the stateful engine
    so K engines can share one compile pass; the stateless reference
    engine ignores it."""
    if name == "full":
        return FullRebuildEngine(application, architecture, bus_policy)
    if name in ("incremental", "array"):
        return IncrementalEngine(
            application, architecture, bus_policy, compiled=compiled
        )
    raise ConfigurationError(
        f"engine must be one of {ENGINES}, got {name!r}"
    )
