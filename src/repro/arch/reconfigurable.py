"""Dynamically reconfigurable logic circuit (DRLC) and its contexts.

Paper section 3.3: an object of Reconfigurable type contains the ordered
list of its contexts ``Lc = [C1 .. Ck]``, the reconfiguration time per
CLB ``tR`` and the total CLB capacity ``NCLB``.  A context is itself a
resource; it knows its initial nodes (all immediate predecessors outside
the context), terminal nodes (all immediate successors outside), and the
number of CLBs it uses.

The DRLC imposes a *globally total, locally partial* (GTLP) order:
contexts execute strictly one after another — separated by a partial
reconfiguration whose duration is ``tR * nCLB(next context)`` — while
tasks inside a context run with full precedence-graph parallelism.

Because an actual context's membership is part of a candidate solution,
the context *objects* live in :class:`repro.mapping.solution.Solution`;
this module provides their behavior.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, TYPE_CHECKING

from repro.arch.resource import OrderKind, Resource
from repro.errors import ArchitectureError, ModelError
from repro.numeric import left_sum

if TYPE_CHECKING:  # pragma: no cover
    from repro.mapping.solution import Solution

#: Virtual search-graph node representing the initial configuration of
#: the first context of RC ``name``:  ``(CONFIG_NODE, name)``.
CONFIG_NODE = "__config__"


class ReconfigurableCircuit(Resource):
    """A partially reconfigurable FPGA-like device.

    Parameters
    ----------
    n_clbs:
        Device capacity ``NCLB`` in combinational logic blocks.
    reconfig_ms_per_clb:
        Partial reconfiguration time ``tR`` per CLB, in milliseconds
        (the paper's Virtex-E figure is 22.5 us = 0.0225 ms).
    partial_reconfiguration:
        True (default, the paper's model): loading a context costs
        ``tR × nCLB(context)``.  False models a full-reconfiguration
        device (as assumed by e.g. Chatha & Vemuri [5], discussed in
        the paper's related work): *every* context switch reprograms
        the whole fabric, ``tR × NCLB`` — the ablation in
        ``benchmarks/test_ablation_reconfig.py`` quantifies the gap.
    """

    def __init__(
        self,
        name: str,
        n_clbs: int,
        reconfig_ms_per_clb: float = 0.0225,
        monetary_cost: float = 2.0,
        partial_reconfiguration: bool = True,
    ) -> None:
        super().__init__(name, monetary_cost)
        if n_clbs <= 0:
            raise ArchitectureError(f"DRLC {name!r}: n_clbs must be > 0")
        if reconfig_ms_per_clb < 0:
            raise ArchitectureError(f"DRLC {name!r}: tR must be >= 0")
        self.n_clbs = n_clbs
        self.reconfig_ms_per_clb = reconfig_ms_per_clb
        self.partial_reconfiguration = partial_reconfiguration

    @property
    def order_kind(self) -> OrderKind:
        return OrderKind.GTLP

    # ------------------------------------------------------------------
    # timing
    # ------------------------------------------------------------------
    def execution_time_ms(self, solution: "Solution", task_index: int) -> float:
        task = solution.application.task(task_index)
        if not task.hardware_capable:
            raise ModelError(
                f"task {task.name!r} has no hardware implementation; "
                f"it cannot run on DRLC {self.name!r}"
            )
        return task.implementation(solution.implementation_choice(task_index)).time_ms

    def reconfiguration_time_ms(self, n_clbs_used: int) -> float:
        """Time to load a context using ``n_clbs_used`` CLBs.

        Partial devices pay per configured CLB; full-reconfiguration
        devices pay the whole fabric on every switch.
        """
        if n_clbs_used < 0:
            raise ArchitectureError("n_clbs_used must be >= 0")
        if not self.partial_reconfiguration and n_clbs_used > 0:
            return self.reconfig_ms_per_clb * self.n_clbs
        return self.reconfig_ms_per_clb * n_clbs_used

    def fits(self, n_clbs_used: int, extra_clbs: int) -> bool:
        """Capacity test used by move realization (section 4.3): a new
        context is spawned when ``nCLB(context) + C(vs) > NCLB``."""
        return n_clbs_used + extra_clbs <= self.n_clbs

    # ------------------------------------------------------------------
    # search-graph contribution
    # ------------------------------------------------------------------
    def config_node(self) -> Tuple[str, str]:
        """Virtual node carrying the initial configuration delay."""
        return (CONFIG_NODE, self.name)

    def virtual_nodes(self, solution: "Solution") -> List[Tuple[object, float]]:
        """Virtual nodes (id, duration) this resource adds to the graph.

        One node: the initial configuration of the first context, with
        duration ``tR * nCLB(C1)`` — the "initial reconfiguration time"
        plotted in the paper's Fig. 3.  No node when the DRLC is unused.
        """
        contexts = solution.contexts(self.name)
        if not contexts:
            return []
        first_clbs = solution.context_clbs(self.name, 0)
        return [(self.config_node(), self.reconfiguration_time_ms(first_clbs))]

    def sequentialization_edges(
        self, solution: "Solution"
    ) -> List[Tuple[object, object, float]]:
        """Context sequentialization edges ``Ehw`` plus the initial
        configuration edges.

        * ``config -> i`` for each initial node ``i`` of C1 (weight 0;
          the delay sits on the virtual node's duration);
        * ``t -> i`` for each terminal node ``t`` of context ``k`` and
          initial node ``i`` of context ``k+1``, weighted
          ``tR * nCLB(C_{k+1})`` (paper: the weight depends linearly on
          the number of CLBs reconfigured for the *following* context).
        """
        contexts = solution.contexts(self.name)
        if not contexts:
            return []
        edges: List[Tuple[object, object, float]] = []
        config = self.config_node()
        for node in solution.context_initial_nodes(self.name, 0):
            edges.append((config, node, 0.0))
        for k in range(len(contexts) - 1):
            terminals = solution.context_terminal_nodes(self.name, k)
            initials = solution.context_initial_nodes(self.name, k + 1)
            weight = self.reconfiguration_time_ms(
                solution.context_clbs(self.name, k + 1)
            )
            for t in terminals:
                for i in initials:
                    edges.append((t, i, weight))
        return edges

    # ------------------------------------------------------------------
    # reporting helpers (Fig. 3 decomposition)
    # ------------------------------------------------------------------
    def initial_reconfiguration_ms(self, solution: "Solution") -> float:
        contexts = solution.contexts(self.name)
        if not contexts:
            return 0.0
        return self.reconfiguration_time_ms(solution.context_clbs(self.name, 0))

    def dynamic_reconfiguration_ms(self, solution: "Solution") -> float:
        contexts = solution.contexts(self.name)
        return left_sum(
            self.reconfiguration_time_ms(solution.context_clbs(self.name, k))
            for k in range(1, len(contexts))
        )
