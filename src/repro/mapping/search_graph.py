"""Search-graph construction (paper sections 3.3 and 4.3).

The search graph ``G' = <V, E ∪ Esw ∪ Ehw [∪ Ecom]>`` is the application
precedence graph augmented with:

* ``Esw`` — zero-weight sequentialization edges imposing each
  processor's total order;
* ``Ehw`` — context sequentialization edges (terminal nodes of context
  ``k`` to initial nodes of context ``k+1``) weighted by the partial
  reconfiguration time of the following context, plus a virtual
  configuration node carrying the initial reconfiguration delay;
* ``Ecom`` — with the ``"ordered"`` bus policy, each inter-resource data
  edge is expanded into a communication node on the shared bus and the
  bus's transactions are serialized in a deterministic order consistent
  with the task execution order (section 3.3's "ordering of the
  transactions on the shared communication medium").

Node durations: task execution times (assignment- and implementation-
dependent), communication transfer times, and the initial configuration
time.  The solution's cost is the longest path of this graph.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.arch.architecture import Architecture
from repro.errors import ConfigurationError, CycleError, MappingError
from repro.graph.dag import Dag
from repro.graph.longest_path import earliest_start_times, longest_path_length
from repro.mapping.solution import Solution
from repro.model.application import Application
from repro.numeric import left_sum

#: Tag of virtual communication nodes: ``(COMM_NODE, src_task, dst_task)``.
COMM_NODE = "__comm__"

BUS_POLICIES = ("ordered", "edge")


class SearchGraph:
    """A realized solution: DAG + node durations + bookkeeping."""

    def __init__(
        self,
        dag: Dag,
        durations: Dict[Hashable, float],
        comm_nodes: List[Tuple[str, int, int]],
        config_nodes: List[Hashable],
    ) -> None:
        self.dag = dag
        self.durations = durations
        #: Communication nodes in serialized bus order (empty for the
        #: ``"edge"`` policy).
        self.comm_nodes = comm_nodes
        self.config_nodes = config_nodes
        self._order_cache: Optional[List[Hashable]] = None

    def duration(self, node: Hashable) -> float:
        return self.durations.get(node, 0.0)

    def topological_order(self) -> List[Hashable]:
        if self._order_cache is None:
            self._order_cache = self.dag.topological_order()
        return self._order_cache

    def makespan_ms(self) -> float:
        """Longest path length (execution time of the realization).

        Raises :class:`CycleError` for infeasible (cyclic) realizations.
        """
        return longest_path_length(self.dag, self.duration, self.topological_order())

    def start_times(self) -> Dict[Hashable, float]:
        return earliest_start_times(self.dag, self.duration, self.topological_order())

    def total_comm_ms(self) -> float:
        return left_sum(self.durations[c] for c in self.comm_nodes)


class SearchGraphBuilder:
    """Builds search graphs for candidate solutions of one application."""

    def __init__(
        self,
        application: Application,
        architecture: Architecture,
        bus_policy: str = "ordered",
    ) -> None:
        if bus_policy not in BUS_POLICIES:
            raise ConfigurationError(
                f"bus_policy must be one of {BUS_POLICIES}, got {bus_policy!r}"
            )
        self.application = application
        self.architecture = architecture
        self.bus_policy = bus_policy

    # ------------------------------------------------------------------
    def build(self, solution: Solution) -> SearchGraph:
        """Realize ``solution`` as a search graph.

        The graph may be cyclic for precedence-inconsistent solutions;
        cycle detection happens lazily in :meth:`SearchGraph.makespan_ms`
        (the annealer treats :class:`CycleError` as move infeasibility).
        """
        app = self.application
        arch = solution.architecture
        bus = arch.bus
        dag = Dag()
        durations: Dict[Hashable, float] = {}

        # 1. Task nodes with assignment-dependent durations.
        for t in app.task_indices():
            resource = solution.resource_of(t)
            dag.add_node(t)
            durations[t] = resource.execution_time_ms(solution, t)

        # 2. Precedence and communication.
        comm_nodes: List[Tuple[str, int, int]] = []
        for src, dst, kbytes in app.dependencies():
            crossing = solution.resource_name_of(src) != solution.resource_name_of(dst)
            transfer = bus.transfer_time_ms(kbytes) if crossing else 0.0
            if transfer > 0.0 and self.bus_policy == "ordered":
                comm = (COMM_NODE, src, dst)
                dag.add_node(comm)
                durations[comm] = transfer
                dag.add_edge(src, comm, 0.0)
                dag.add_edge(comm, dst, 0.0)
                comm_nodes.append(comm)
            else:
                dag.add_edge(src, dst, transfer)

        # 3. Per-resource sequentialization edges and virtual nodes
        #    (the paper's polymorphic PE.schedule contribution).
        config_nodes: List[Hashable] = []
        for resource in arch.resources():
            for node, duration in getattr(resource, "virtual_nodes", _no_virtual)(
                solution
            ):
                dag.add_node(node)
                durations[node] = duration
                config_nodes.append(node)
            for a, b, weight in resource.sequentialization_edges(solution):
                if dag.has_edge(a, b):
                    # A sequentialization edge may coincide with a
                    # precedence edge; keep the larger delay.
                    if weight > dag.edge_weight(a, b):
                        dag.set_edge_weight(a, b, weight)
                else:
                    dag.add_edge(a, b, weight)

        graph = SearchGraph(dag, durations, comm_nodes, config_nodes)

        # 4. Serialize bus transactions (total transaction order).
        if comm_nodes and self.bus_policy == "ordered":
            self._serialize_bus(graph)
        return graph

    # ------------------------------------------------------------------
    def _serialize_bus(self, graph: SearchGraph) -> None:
        """Impose a total order on the shared-medium transactions.

        Deterministic policy: sort communication nodes by their ASAP
        ready time in the unserialized graph (ties: source task, then
        destination task), then chain them with zero-weight edges.
        Every transfer has a positive duration, so in exact arithmetic
        (and with the non-negative weights and durations the built-in
        constructors validate) a transfer reachable from another has a
        strictly later ready time.  In floating point a transfer shorter
        than the spacing of floats at its start time can tie with a
        transfer it reaches through zero-duration tasks, and the
        tie-break then closes a cycle; :meth:`SearchGraph.makespan_ms`
        reports it, as it reports any other cycle.
        """
        try:
            start = graph.start_times()
        except CycleError:
            # Realization already cyclic; leave it to makespan_ms to report.
            return
        ordered = sorted(graph.comm_nodes, key=lambda c: (start[c], c[1], c[2]))
        for a, b in zip(ordered, ordered[1:]):
            if not graph.dag.has_edge(a, b):
                graph.dag.add_edge(a, b, 0.0)
        graph.comm_nodes = ordered
        graph._order_cache = None


def _no_virtual(_solution: Solution) -> List[Tuple[Hashable, float]]:
    return []
