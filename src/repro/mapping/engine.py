"""Pluggable evaluation engines (the annealer's hot path).

Scoring a candidate solution — longest path of the realized search graph
(paper section 4.4) — is the single operation every optimizer in this
library performs thousands of times per run.  This module puts that
operation behind one interface with two implementations:

* :class:`FullRebuildEngine` — the reference semantics, extracted from
  the original ``Evaluator``/``SearchGraphBuilder`` pipeline: rebuild
  the whole :class:`~repro.graph.dag.Dag` from scratch for every
  candidate and run the dict-based longest-path DP.
* :class:`IncrementalEngine` — the fast path, for the paper's three
  resource kinds: exact :class:`Processor`, :class:`ReconfigurableCircuit`
  and :class:`Asic` instances (any other :class:`Resource` subclass
  needs ``engine="full"``).  The problem instance is flattened once per
  search by the :mod:`repro.mapping.compiled` pass (every search-graph
  node interned to a dense integer id, the solution-independent
  precedence skeleton precomputed); after each move only the
  solution-dependent parts are delta-patched — task durations, the
  crossing state of each dependency, and the sequentialization edges of
  the (typically one or two) resources a move actually touched.  On top
  of that delta-sync the longest-path DP is *persistent*: one
  topological order — of the bus-serialized graph too — is repaired in
  place instead of re-sorted, and only the order suffix a move could
  have affected is re-relaxed.

Both engines produce **bit-identical** makespans: they evaluate the same
graph with the same float operations over the same candidate sets, and
serialize shared-bus transactions with the same deterministic ASAP sort.
``tests/mapping/test_engine_parity.py`` replays hundreds of random move
sequences across both engines to enforce this.

Select an engine through ``Evaluator(..., engine="incremental")``, the
``DesignSpaceExplorer(engine=...)`` knob, or the CLI ``--engine`` flag
(``"array"`` is accepted as another name for ``"incremental"``).
``perfbench/`` measures end-to-end throughput on the incremental
engine; its ``correct`` check re-scores every result with the full one.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.arch.architecture import Architecture
from repro.arch.asic import Asic
from repro.arch.processor import Processor
from repro.arch.reconfigurable import CONFIG_NODE, ReconfigurableCircuit
from repro.arch.resource import Resource
from repro.errors import (
    ConfigurationError,
    CycleError,
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


def _chain_edit(ids: List[int], x: int, i: int, sign: int, delta: Dict) -> None:
    """Insert (``sign`` 1) or delete (``-1``) task ``x`` at ``i`` of a
    processor order copy, counting the at most three chain edges it
    links (+1) or unlinks (-1) into ``delta``."""
    if sign > 0:
        ids.insert(i, x)
    a = ids[i - 1] if i > 0 else -1
    b = ids[i + 1] if i + 1 < len(ids) else -1
    if sign < 0:
        del ids[i]
    if a >= 0:
        delta[(a, x)] = delta.get((a, x), 0) + sign
        if b >= 0:
            delta[(a, b)] = delta.get((a, b), 0) - sign
    if b >= 0:
        delta[(x, b)] = delta.get((x, b), 0) + sign


def _count_pairs(ids: List[int], sign: int, delta: Dict) -> None:
    """Count every chain edge of a processor order copy into ``delta``."""
    for pair in zip(ids, ids[1:]):
        delta[pair] = delta.get(pair, 0) + sign


class _Context:
    """The engine's copy of one DRLC context: member ids, CLB total,
    reconfiguration time, initial and terminal members, and the live
    sequentialization edges into it — from the previous context's
    terminal members, or from the configuration node for the first
    context — with the context they were derived against (``prev``:
    ``None`` for the configuration node, itself before the first)."""

    __slots__ = (
        "rc", "ids", "clbs", "reconfig", "initials", "terminals", "edges",
        "prev", "dirty",
    )

    def __init__(self, rc: str, ids: List[int]) -> None:
        self.rc, self.ids, self.clbs, self.reconfig = rc, ids, 0, 0.0
        self.initials, self.terminals, self.edges = [], [], []
        self.prev: object = self
        self.dirty = True


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
    and implementation choice, each processor order and each DRLC's
    contexts) and on each call replays the solution's change journal
    records after the engine's cursor as local edits on those copies,
    patching only what a move actually changed.  Rejected moves need no
    special rollback support: ``undo`` journals the inverse records, and
    the next sync replays them too.  A solution the engine did not
    follow (a copy, a decoded chromosome) or a journal trimmed past the
    cursor is re-checked in full: the copies are rebuilt from the
    solution and diffed against the same mirror.

    The search graph is kept in two edge layers:

    * a **static dependency layer**, built once: every dependency is
      wired ``src -> comm -> dst`` through its interned communication
      node.  An active transfer (crossing resources under the
      ``"ordered"`` policy) is the comm node's duration, an inactive one
      the ``src -> comm`` weight (``0`` on one resource); both give the
      reference graph's float candidates, so flipping a crossing state
      is an O(1) weight patch and the structure never changes;
    * a **sequentialization layer** holding the processor chains
      ``Esw`` and the DRLC context boundaries ``Ehw``, patched exactly:
      one processor insert or delete relinks at most three chain edges,
      and a context edit re-derives only that context and diffs only
      the boundary edge sets next to it.

    On top of the layers sit three persistent structures:

    * **One topological order** of the base layers.  One live added
      edge that contradicts it is *repaired* by one Pearce/Kelly region
      reordering (every other live edge agrees with the stored
      positions, so an insert that finds a cycle is an exact verdict);
      two or more go to one Kahn sort.  The bus chain — the serialized
      transaction order, one more pointer layer — is written next, and
      its contradicting edges are unlinked and re-inserted one at a
      time, so a failed insert is an exact cycle verdict too.  Every
      order evaluated with is topological, so cycles are detected like
      the reference does.
    * **The base DP values.**  Every node whose inputs change is seeded
      where the change is written (structural deltas by
      :meth:`_replace_edges`, durations and weights by compare-and-seed
      writes), and the DP re-runs from the earliest seeded position
      over the candidate sets the full DP uses: bit-identical.
    * **The serialized DP values** (base layers plus bus chain), re-run
      the same way from the base seeds and the comm nodes whose chain
      predecessor changed, or copied when no chain edge binds.

    Per-RC reconfiguration statistics for the Fig. 3 decomposition are
    cached alongside.  Edges and durations are derived natively for the
    exact :class:`Processor`, :class:`ReconfigurableCircuit` and
    :class:`Asic` types, so any other :class:`Resource` (a subclass may
    override them) raises :class:`ConfigurationError`; the reference
    engine scores it.
    """

    name = "incremental"

    #: Count of base-layer edges contradicting the stored order past
    #: which the order is dropped outright (a Kahn rebuild is due).
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
        self.compiled = compiled
        super().__init__(application, architecture, bus_policy)
        self._build_skeleton(architecture.bus)

    # ------------------------------------------------------------------
    # one-time skeleton (solution-independent)
    # ------------------------------------------------------------------
    def _build_skeleton(self, bus) -> None:
        self._bus = bus
        self._ordered = self.bus_policy == "ordered"
        # The compile pass (repro.mapping.compiled) flattens application
        # + bus into dense solution-independent tables.  They are read
        # only, so K engines can share one pass; a bus swap recompiles.
        compiled = self.compiled
        if compiled is None or compiled.bus is not bus:
            compiled = self.compiled = compile_instance(self.application, bus)
        self._tasks = compiled.tasks
        self._ntasks = compiled.ntasks
        # Configuration nodes are interned on top of the compiled ids,
        # so the interner and the per-node static tables that grow with
        # it are the engine's own copies (existing rows are never
        # written, so copying the row lists suffices).
        self._interner = compiled.interner.copy()
        self._pred_comms = list(compiled.pred_comms)
        self._succ_static = list(compiled.succ_static)
        self._indeg_static = list(compiled.indeg_static)
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

        # Static dependency layer: dep j is wired ``src -> comm -> dst``
        # with comm id ``ntasks + j``.  Only the ``src -> comm`` weight
        # changes; ``comm -> dst`` is always 0, so a task's candidates
        # are its predecessor comm nodes' *finish* times.
        n = len(self._interner)
        self._comm_w: List[float] = [0.0] * ndeps
        # Processor chains as prev/next pointer arrays: a task sits on at
        # most one processor, so one array pair covers them all.
        self._proc_prev: List[int] = [-1] * n
        self._proc_next: List[int] = [-1] * n

        # Immediate-predecessor and -successor bitmasks over the dense
        # task ids: a context member is initial (terminal) when no bit
        # of its mask falls inside the context.
        self._pred_mask = [sum(1 << p for p in ps) for ps in self._pred_ids]
        self._succ_mask = [sum(1 << q for q in qs) for qs in self._succ_ids]
        self._config_ids: Dict[str, int] = {}

        # Telemetry counters: plain ints, incremented unconditionally.
        self.stat_sync_calls = 0
        self.stat_sync_full = 0
        self.stat_sync_tasks = 0
        self.stat_sync_resources = 0
        self.stat_rc_rebuilds = 0
        self.stat_contexts_refreshed = 0
        self.stat_edges_relinked = 0

        # Dynamic (solution-dependent) state, reset to "never seen".
        self._dur: List[float] = [0.0] * n
        self._res_kind: Dict[str, Tuple] = {}
        self._invalidate()

    def _invalidate(self) -> None:
        """Forget all mirrored solution state (forces a full re-sync)."""
        n = len(self._interner)
        # Durations mirror solution state too, config nodes included.
        for node_id in range(len(self._dur)):
            self._dur[node_id] = 0.0
        self._m_resource: List[Optional[str]] = [None] * self._ntasks
        self._m_impl: List[int] = [-1] * self._ntasks
        self._m_res_names: List[str] = []
        # The solution the mirror follows and the absolute journal
        # position read up to; any other solution is re-checked in full.
        self._m_solution: Optional[Solution] = None
        self._m_cursor = 0
        self._rc_names: List[str] = []
        # The copies the journal is replayed on: each processor order
        # as dense ids, each DRLC's contexts, the context holding each
        # task (``None`` off the DRLCs).
        self._proc_ids: Dict[str, List[int]] = {}
        self._rc_ctx: Dict[str, List[_Context]] = {}
        self._ctx_of: List[Optional[_Context]] = [None] * self._ntasks
        self._rc_stats: Dict[str, Tuple[int, float, float, int]] = {}
        self._hw_count = 0
        self._dep_mode: List[int] = [-1] * self._ndeps
        self._active_deps: List[int] = []
        self._active_dirty = True
        # Sequentialization layer: ``pred_seq[v]`` holds ``(src,
        # weight)`` pairs; combined indegrees are kept in step for Kahn.
        self._pred_seq: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
        self._succ_seq: List[List[int]] = [[] for _ in range(n)]
        self._indeg_total: List[int] = list(self._indeg_static)
        self._proc_prev[:] = self._proc_next[:] = [-1] * n
        # The persistent base order: at most one ``[order, position,
        # valid]`` entry, invalid once an *added* edge contradicts it.
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
        #: Serialized DP values (base graph + bus chain), persistent too.
        self._starts1: List[float] = [0.0] * n
        self._finish1: List[float] = [0.0] * n
        #: Whether the persistent base DP values are trustworthy.
        self._values_valid = False
        #: Whether the serialized values are current up to the seeds
        #: and the next chain relink; if not, the next serialized pass
        #: checks every chain edge and runs in full.
        self._ser_valid = False
        #: Node ids whose inputs changed since the last DP run.
        self._dirty_seeds: set = set()
        #: Added edges that contradict the persistent order (repaired
        #: or folded into the next rebuild).
        self._pending_edges: List[Tuple[int, int]] = []
        # Order telemetry, reset with the order state it describes.
        self.stat_order_repairs = 0
        self.stat_order_rebuilds = 0
        self.stat_chain_repairs = 0

    def _classify(self, res: Resource) -> None:
        """Classify a resource and give it its copy.  Only the exact
        built-in types are accepted: a subclass may override the timing
        and edges the sync derives natively.  Entries and copies outlive
        their resource: a removed resource can still be a task's
        *previous* assignment (m3)."""
        name = res.name
        kind = self._res_kind.get(name)
        if kind is None or kind[1] is not res:
            if type(res) is Processor:
                kind = ("p", res, res.speed_factor)
            elif type(res) is ReconfigurableCircuit:
                kind = ("rc", res)
            elif type(res) is Asic:
                kind = ("asic", res)
            else:
                raise ConfigurationError(
                    f"resource {name!r} is a {type(res).__name__}: the "
                    "incremental engine scores only the built-in Processor, "
                    "ReconfigurableCircuit and Asic types; use engine='full'"
                )
            self._res_kind[name] = kind
        if kind[0] == "p":
            self._proc_ids.setdefault(name, [])
        elif kind[0] == "rc":
            self._rc_ctx.setdefault(name, [])

    # ------------------------------------------------------------------
    def telemetry_counters(self) -> Dict[str, int]:
        out = super().telemetry_counters()
        out.update(
            sync_calls=self.stat_sync_calls,
            sync_full=self.stat_sync_full,
            sync_tasks=self.stat_sync_tasks,
            sync_resources=self.stat_sync_resources,
            rc_rebuilds=self.stat_rc_rebuilds,
            contexts_refreshed=self.stat_contexts_refreshed,
            edges_relinked=self.stat_edges_relinked,
            order_repairs=self.stat_order_repairs,
            order_rebuilds=self.stat_order_rebuilds,
            chain_repairs=self.stat_chain_repairs,
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

        res_of = solution._resource_of
        impl_of = solution._impl_choice
        tid = self._tid
        if len(res_of) != self._ntasks:
            # Fail like the reference engine instead of scoring the
            # unassigned tasks with zero durations.
            for t in self._tasks:
                if t not in res_of:
                    raise MappingError(f"task {t} is not assigned")

        # Edge changes, patched at the end: net chain-edge counts, and
        # the replaced and replacing seq edge lists.
        res_kind = self._res_kind
        chain_delta: Dict[Tuple[int, int], int] = {}
        seq_old: List[Tuple[int, int, float]] = []
        seq_new: List[Tuple[int, int, float]] = []
        journal = solution._journal
        start = self._m_cursor - solution._journal_base
        if solution is self._m_solution and start >= 0:
            # Replay the records after the cursor on the copies: a list
            # edit relinks a processor chain or marks its context dirty,
            # an implementation pick marks its task's context dirty.
            tasks = set()
            touched = set()
            proc_ids = self._proc_ids
            rc_ctx = self._rc_ctx
            ctx_of = self._ctx_of
            for idx in range(start, len(journal)):
                record = journal[idx]
                tag = record[0]
                if tag == "L":
                    _, task, name, k, i, sign = record
                    tasks.add(task)
                    kind = res_kind[name][0]
                    if kind == "p":
                        _chain_edit(proc_ids[name], tid[task], i, sign, chain_delta)
                    elif kind == "rc":
                        x = tid[task]
                        ctxs = rc_ctx[name]
                        if i >= 0:
                            ctx = ctxs[k]
                            ctx.dirty = True
                            if sign > 0:
                                ctx.ids.insert(i, x)
                            else:
                                del ctx.ids[i]
                                ctx = None
                        elif sign > 0:
                            ctx = _Context(name, [x])
                            ctxs.insert(k, ctx)
                        else:
                            seq_old += ctxs.pop(k).edges
                            ctx = None
                        ctx_of[x] = ctx
                    touched.add(name)
                elif tag == "I":
                    tasks.add(record[1])
                    ctx = ctx_of[tid[record[1]]]
                    if ctx is not None:
                        ctx.dirty = True
                        touched.add(ctx.rc)
                elif record[2] > 0:
                    self._classify(record[1])
            names = arch.resource_names()
            if names != self._m_res_names:
                self._reshape(arch, names)
        else:
            self.stat_sync_full += 1
            tasks = self._tasks
            names = arch.resource_names()
            if names != self._m_res_names:
                self._reshape(arch, names)
            touched = self._rebuild(solution, names, chain_delta, seq_old)
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
                if old_r is not None and res_kind[old_r][0] != "p":
                    self._hw_count -= 1
                if res_kind[r][0] != "p":
                    self._hw_count += 1
                m_res[i] = r
            elif c == m_impl[i]:
                continue
            m_impl[i] = c
            changed.append(i)
        self.stat_sync_tasks += len(changed)
        if changed:
            impl_ms = self._impl_ms
            sw_ms = self._sw_ms
            for i in changed:
                kind = res_kind[m_res[i]]
                if kind[0] == "p":
                    value = sw_ms[i] / kind[2]
                else:
                    value = impl_ms[i][m_impl[i]]
                self._set_dur(i, value)
            for i in changed:
                for j in self._deps_of_task[i]:
                    self._refresh_dep(j)

        # The dirty contexts (read after the picks above) and their
        # boundaries.
        for name in names:
            kind = res_kind[name]
            if kind[0] == "rc" and name in touched:
                self._refresh_contexts(name, kind[1], seq_old, seq_new)
        self.stat_sync_resources += len(touched)
        self._replace_edges(chain_delta, seq_old, seq_new)

    def _reshape(self, arch: Architecture, names: List[str]) -> None:
        """The resource list changed: classify it, and drop the
        configuration time and statistics of the DRLCs that left (their
        edges left with their contexts)."""
        for res in arch.resources():
            self._classify(res)
        current = set(names)
        for name in self._m_res_names:
            if name not in current:
                self._rc_stats.pop(name, None)
                config_id = self._config_ids.get(name)
                if config_id is not None:
                    self._set_dur(config_id, 0.0)
        self._m_res_names = list(names)
        self._rc_names = [
            name for name in names if self._res_kind[name][0] == "rc"
        ]

    def _rebuild(
        self, solution: Solution, names: List[str], chain_delta: Dict,
        seq_old: List,
    ) -> set:
        """Full re-check: rebuild the processor and DRLC copies from
        ``solution`` (every context dirty) and return their names; the
        old copies' edges feed the replay's diff."""
        tid = self._tid
        old_procs = self._proc_ids
        old_rcs = self._rc_ctx
        self._proc_ids = procs = {}
        self._rc_ctx = rcs = {}
        self._ctx_of = ctx_of = [None] * self._ntasks
        for name in names:
            tag = self._res_kind[name][0]
            if tag == "p":
                ids = procs[name] = [tid[t] for t in solution._sw_orders[name]]
                old = old_procs.pop(name, [])
                if ids != old:
                    _count_pairs(old, -1, chain_delta)
                    _count_pairs(ids, 1, chain_delta)
            elif tag == "rc":
                self.stat_rc_rebuilds += 1
                rcs[name] = ctxs = []
                for members in solution._contexts[name]:
                    ctx = _Context(name, [tid[t] for t in members])
                    ctxs.append(ctx)
                    for i in ctx.ids:
                        ctx_of[i] = ctx
        for ids in old_procs.values():
            _count_pairs(ids, -1, chain_delta)
        for ctxs in old_rcs.values():
            for ctx in ctxs:
                seq_old += ctx.edges
        return set(procs) | set(rcs)

    def _refresh_contexts(
        self, name: str, rc: ReconfigurableCircuit, seq_old: List, seq_new: List
    ) -> None:
        """A DRLC's ``sequentialization_edges``/``virtual_nodes``,
        native and limited to what changed: a dirty context's CLB total,
        reconfiguration time and boundary members (from the neighbour
        bitmasks) are re-derived, and the edges into a context only when
        its initials, its time, its predecessor or that one's terminals
        changed."""
        ctxs = self._rc_ctx[name]
        config_id = self._config_ids.get(name)
        if not ctxs:
            if config_id is not None:
                self._set_dur(config_id, 0.0)
            self._rc_stats[name] = (0, 0.0, 0.0, 0)
            return
        if config_id is None:
            config_id = self._interner.intern((CONFIG_NODE, name))
            self._config_ids[name] = config_id
            self._grow_nodes()
        m_impl = self._m_impl
        impl_clbs = self._impl_clbs
        pred_mask = self._pred_mask
        succ_mask = self._succ_mask
        prev = None
        moved = False  # the previous context's terminal members changed
        for ctx in ctxs:
            stale = moved or ctx.prev is not prev
            moved = False
            if ctx.dirty:
                ctx.dirty = False
                self.stat_contexts_refreshed += 1
                ids = ctx.ids
                inside = 0
                clbs = 0
                for i in ids:
                    inside |= 1 << i
                    clbs += impl_clbs[i][m_impl[i]]
                initials = [i for i in ids if not pred_mask[i] & inside]
                terminals = [i for i in ids if not succ_mask[i] & inside]
                reconfig = rc.reconfiguration_time_ms(clbs)
                # The first context's time is the config node's duration.
                stale = stale or initials != ctx.initials or (
                    prev is not None and reconfig != ctx.reconfig
                )
                moved = terminals != ctx.terminals
                ctx.clbs = clbs
                ctx.reconfig = reconfig
                ctx.initials = initials
                ctx.terminals = terminals
            if stale:
                seq_old += ctx.edges
                if prev is None:
                    ctx.edges = [(config_id, i, 0.0) for i in ctx.initials]
                else:
                    weight = ctx.reconfig
                    ctx.edges = [
                        (t, i, weight)
                        for t in prev.terminals
                        for i in ctx.initials
                    ]
                seq_new += ctx.edges
                ctx.prev = prev
            prev = ctx
        # The Fig. 3 statistics, summed in the reference order.
        self._rc_stats[name] = (
            len(ctxs),
            ctxs[0].reconfig,
            sum([ctx.reconfig for ctx in ctxs[1:]]),
            sum([ctx.clbs for ctx in ctxs]),
        )
        self._set_dur(config_id, ctxs[0].reconfig)

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

    def _replace_edges(
        self, chain_delta: Dict, seq_old: List, seq_new: List
    ) -> None:
        """The one edge-patching path, for journal replays and full
        re-checks alike.  The pointer arrays take the chain edges of
        nonzero net count in ``chain_delta``.  The seq layer diffs the
        replaced and replacing ``(src, dst, weight)`` lists by
        ``(src, dst)``, each pair at most once per list (a resource
        links only its own tasks and config node), and retunes in place
        an edge whose weight alone changed.  Removals go first: an edge
        can migrate between two resources in one sync.  Every edge head
        seeds the DP; an added edge contradicting the persistent order
        is queued for repair."""
        pred_seq = self._pred_seq
        seeds = self._dirty_seeds
        gone = {}
        seq_added = []
        if seq_old or seq_new:
            gone = {(a, b): w for a, b, w in seq_old}
            for a, b, w in seq_new:
                old = gone.pop((a, b), None)
                if old is None:
                    seq_added.append((a, b, w))
                elif old != w:
                    plist = pred_seq[b]
                    for idx in range(len(plist)):
                        if plist[idx][0] == a:
                            plist[idx] = (a, w)
                            break
                    seeds.add(b)
        chain_removed = []
        chain_added = []
        for edge, count in chain_delta.items():
            if count < 0:
                chain_removed.append(edge)
            elif count > 0:
                chain_added.append(edge)
        if not (chain_removed or chain_added or gone or seq_added):
            return
        self.stat_edges_relinked += (
            len(chain_removed) + len(chain_added) + len(gone) + len(seq_added)
        )
        proc_prev = self._proc_prev
        proc_next = self._proc_next
        succ_seq = self._succ_seq
        indeg = self._indeg_total
        for a, b in chain_removed:
            proc_next[a] = -1
            proc_prev[b] = -1
            indeg[b] -= 1
            seeds.add(b)
        for a, b in gone:
            succ_seq[a].remove(b)
            plist = pred_seq[b]
            for idx in range(len(plist)):
                if plist[idx][0] == a:
                    del plist[idx]
                    break
            indeg[b] -= 1
            seeds.add(b)
        entries = self._orders0
        pos = entries[0][1] if entries else None
        pending = self._pending_edges
        for a, b in chain_added:
            proc_next[a] = b
            proc_prev[b] = a
            indeg[b] += 1
            seeds.add(b)
            if pos is not None and pos[a] >= pos[b]:
                entries[0][2] = False
                pending.append((a, b))
        for a, b, w in seq_added:
            succ_seq[a].append(b)
            pred_seq[b].append((a, w))
            indeg[b] += 1
            seeds.add(b)
            if pos is not None and pos[a] >= pos[b]:
                entries[0][2] = False
                pending.append((a, b))
        if len(pending) > self.MAX_REPAIR_EDGES:
            # Too many contradictions: the stored order is beyond
            # repair.  Drop it (a Kahn rebuild starts a fresh one) so
            # the pending list cannot balloon while the walk churns.
            entries.clear()
            pending.clear()

    def _grow_nodes(self) -> None:
        grow = len(self._interner) - len(self._dur)
        if grow <= 0:
            return
        for values in (self._dur, self._starts0, self._finish0,
                       self._starts1, self._finish1):
            values.extend([0.0] * grow)
        for ints in (self._proc_prev, self._proc_next, self._chain_pred,
                     self._chain_next, self._no_chain):
            ints.extend([-1] * grow)
        for counts in (self._indeg_static, self._indeg_total):
            counts.extend([0] * grow)
        for lists in (self._pred_comms, self._succ_static,
                      self._pred_seq, self._succ_seq):
            lists.extend([] for _ in range(grow))
        # The persistent order and values do not cover the new nodes yet.
        self._orders0.clear()
        self._pending_edges.clear()
        self._values_valid = False

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

        # --- persistent order: revalidate, repair, else rebuild, over
        # the base layers only (a stale bus chain can close a false cycle).
        entries = self._orders0
        entry = entries[0] if entries else None
        full_dp = not self._values_valid
        moved = False
        if entry is not None and not entry[2]:
            # Contradicting edges since removed stop mattering.
            pending = self._pending_edges
            pending[:] = [e for e in pending if self._edge_live(e)]
            if not pending:
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
                    return self._infeasible(self._cycle(a, b))
                self.stat_order_repairs += 1
                entry[2] = True
                pending.clear()
                moved = True
        if entry is None or not entry[2]:
            # No stored order, or two or more contradicting edges: one
            # Kahn over the base layers (a failed sort changes nothing).
            self.stat_order_rebuilds += 1
            try:
                order = kahn_order_indices(
                    n, self._indeg_total, self._succ_static,
                    self._interner.keys(), self._succ_seq, self._proc_next,
                )
            except CycleError as exc:
                return self._infeasible(exc)
            # The persistent *values* depend on the graph, not on the
            # order, so the suffix DPs below still apply.
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
                failed = self._repair_chain(order, pos, bad)
                if failed is not None:
                    # The serialized graph is cyclic; the base values
                    # are current, the serialized ones re-run in full.
                    seeds.clear()
                    self._ser_valid = False
                    return INFEASIBLE_MS, False, comm_ms, self._cycle(*failed)
                self.stat_chain_repairs += 1

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

    def _cycle(self, a: int, b: int) -> CycleError:
        """The cycle verdict of an edge ``a -> b`` whose insert failed."""
        keys = self._interner.keys()
        return CycleError(
            "realization contains a cycle", cycle=[keys[b], keys[a]]
        )

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
    ) -> Optional[Tuple[int, int]]:
        """Repair the persistent order for the bus-chain edges that
        contradict it.  They are unlinked first and re-inserted one at a
        time, so every Pearce/Kelly insertion runs with every other
        linked edge (base layers and chain) position-consistent: each
        step is sound by the PK invariant and needs no O(E) check, and
        an insertion that finds a path back proves the serialized graph
        cyclic.  Returns that edge (``None`` when all went in); the
        edges are relinked either way."""
        chain_pred = self._chain_pred
        chain_next = self._chain_next
        for a, b in bad:
            chain_next[a] = -1
            chain_pred[b] = -1
        failed = None
        for a, b in bad:
            if failed is None and pos[a] > pos[b] and not self._pk_insert(
                order, pos, a, b, chain_next, chain_pred
            ):
                failed = (a, b)
            chain_next[a] = b
            chain_pred[b] = a
        return failed

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
        """The reference DP loop over ``order[start:]``, for the base
        values (``chain=_no_chain``) or the serialized ones
        (``chain=_chain_pred``).  A node depends only on predecessors at
        earlier positions, so re-running from the earliest changed
        position reproduces the full DP bit for bit."""
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
            # The mirror may be half-updated: the next call re-syncs
            # from scratch.
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
        # Fig. 3 decomposition from the cached per-RC statistics, summed
        # in the full engine's resource order.  A DRLC that a rollback
        # attached again empty has none: it adds nothing.
        initial = 0.0
        dynamic = 0.0
        clbs = 0
        num_contexts = 0
        rc_stats = self._rc_stats
        for name in self._rc_names:
            stats = rc_stats.get(name)
            if stats is not None:
                num_contexts += stats[0]
                initial += stats[1]
                dynamic += stats[2]
                clbs += stats[3]
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
    """K engines over one compile pass.

    The annealing loop (:class:`repro.sa.population.PopulationAnnealer`)
    runs K chains, each with its own
    :class:`~repro.mapping.solution.Solution` and its own engine
    (``engines[k]``), so each sync pays only its own chain's delta.
    Chain 0 compiles; chains 1..K-1 are handed the same read-only
    :class:`~repro.mapping.compiled.CompiledInstance`.
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
        first = make_engine(engine, application, architecture, bus_policy)
        compiled = getattr(first, "compiled", None)
        self.engines: List[EvaluationEngine] = [first] + [
            make_engine(
                engine, application, architecture, bus_policy,
                compiled=compiled,
            )
            for _ in range(1, chains)
        ]

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

    # The batched round (``propose_moves`` then ``resolve``) was removed:
    # each chain steps inline through ``engines[k]``.  The two names
    # remain only because the benchmark harness's tracer
    # (``perfbench/spans.py``) wraps them by name, and its traced-run
    # test fails on a missing target.  They go when the harness stops
    # naming them (ROADMAP item 5).
    def propose_moves(self, *args, **kwargs):
        raise TypeError(
            "CrossChainEvaluator.propose_moves was removed: step each "
            "chain through engines[k]"
        )

    def resolve(self, *args, **kwargs):
        raise TypeError(
            "CrossChainEvaluator.resolve was removed: step each chain "
            "through engines[k]"
        )


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
    existing :class:`CompiledInstance` to the stateful engine so K
    engines can share one compile pass; the stateless reference engine
    ignores it."""
    if name == "full":
        return FullRebuildEngine(application, architecture, bus_policy)
    if name in ("incremental", "array"):
        return IncrementalEngine(
            application, architecture, bus_policy, compiled=compiled
        )
    raise ConfigurationError(
        f"engine must be one of {ENGINES}, got {name!r}"
    )
