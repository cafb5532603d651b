"""Static ancestor/descendant reachability bitsets.

The grouping/context feasibility tests in :mod:`repro.sa.moves` ask
``has_path`` for every member of every context, far more often than
the graph changes.  :class:`ReachabilityIndex` answers those queries
with one dense big-int bitmask per node (bit ``j`` of
``descendants[i]`` set iff node ``j`` is reachable from node ``i``),
built in one topological sweep, answered with a shift-and-mask.  The
index is immutable — callers rebuild it when the graph changes
(applications are static during a search, so in practice it is built
once per instance).

Parity with an incremental path-count closure (the paper's transitive
closure matrix, section 4.3; the oracle lives in
``tests/graph/test_closure.py``) over the full scenario corpus is
pinned by ``tests/graph/test_reachability.py``.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Hashable, List, Mapping

from repro.errors import GraphError

Node = Hashable

__all__ = ["ReachabilityIndex"]


class ReachabilityIndex:
    """Transitive reachability over a fixed DAG as per-node bitmasks."""

    __slots__ = ("_pos", "_order", "_ancestors", "_descendants")

    def __init__(
        self,
        pos: Dict[Node, int],
        order: List[Node],
        ancestors: List[int],
        descendants: List[int],
    ) -> None:
        self._pos = pos
        self._order = order
        self._ancestors = ancestors
        self._descendants = descendants

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dag(cls, dag) -> "ReachabilityIndex":
        """Build from a :class:`~repro.graph.dag.Dag` (or anything with
        ``topological_order()``/``predecessors()``/``successors()``)."""
        order = dag.topological_order()
        pos = {node: i for i, node in enumerate(order)}
        n = len(order)
        ancestors = [0] * n
        descendants = [0] * n
        for i, node in enumerate(order):
            mask = 0
            for p in dag.predecessors(node):
                j = pos[p]
                mask |= ancestors[j] | (1 << j)
            ancestors[i] = mask
        for i in range(n - 1, -1, -1):
            mask = 0
            for s in dag.successors(order[i]):
                j = pos[s]
                mask |= descendants[j] | (1 << j)
            descendants[i] = mask
        return cls(pos, order, ancestors, descendants)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, node: Node) -> bool:
        return node in self._pos

    def _require(self, node: Node) -> int:
        try:
            return self._pos[node]
        except KeyError:
            raise GraphError(f"node {node!r} is not tracked") from None

    def has_path(self, src: Node, dst: Node) -> bool:
        """True when ``dst`` is reachable from ``src`` (strictly; a node
        never reaches itself)."""
        return (
            self._descendants[self._require(src)] >> self._require(dst)
        ) & 1 == 1

    def descendants_mask(self, node: Node) -> int:
        """Bitmask of positions reachable *from* ``node``."""
        return self._descendants[self._require(node)]

    def ancestors_mask(self, node: Node) -> int:
        """Bitmask of positions that reach ``node``."""
        return self._ancestors[self._require(node)]

    def position(self, node: Node) -> int:
        """The bit position assigned to ``node``."""
        return self._require(node)

    @property
    def positions(self) -> Mapping[Node, int]:
        """Read-only ``node -> bit position`` map, for scans that test
        many nodes against one mask without validating each."""
        return MappingProxyType(self._pos)

    def descendants(self, node: Node) -> set:
        """The reachable node set (materialized; for tests/debugging)."""
        mask = self.descendants_mask(node)
        return {
            n for n in self._order if (mask >> self._pos[n]) & 1
        }

    def ancestors(self, node: Node) -> set:
        mask = self.ancestors_mask(node)
        return {
            n for n in self._order if (mask >> self._pos[n]) & 1
        }
