"""A small, fast, mutable directed acyclic graph.

The class is deliberately minimal: adjacency is kept in plain dicts so the
simulated-annealing hot loop (add/remove sequentialization edges, longest
path) does not pay abstraction costs.  Conversion to :mod:`networkx` is
provided for analysis and debugging.

Nodes may be any hashable object.  Node and edge attributes are free-form
dictionaries; the mapping layer stores execution times and data volumes
in them.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from repro.errors import CycleError, GraphError

Node = Hashable


class Dag:
    """Mutable directed graph with acyclicity checking utilities.

    The structure itself does not forbid cycles on every mutation (the
    move generator rejects precedence-violating moves before mutating,
    through the static
    :class:`~repro.graph.reachability.ReachabilityIndex`); :meth:`add_edge`
    only raises for self-loops, and :meth:`check_acyclic` /
    :meth:`topological_order` detect cycles globally.
    """

    __slots__ = ("_succ", "_pred", "_node_attrs", "_edge_attrs")

    def __init__(self) -> None:
        self._succ: Dict[Node, Dict[Node, float]] = {}
        self._pred: Dict[Node, Dict[Node, float]] = {}
        self._node_attrs: Dict[Node, Dict[str, Any]] = {}
        self._edge_attrs: Dict[Tuple[Node, Node], Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node, **attrs: Any) -> None:
        """Add ``node``; merging ``attrs`` if it already exists."""
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = {}
            self._node_attrs[node] = {}
        if attrs:
            self._node_attrs[node].update(attrs)

    def add_edge(self, src: Node, dst: Node, weight: float = 0.0, **attrs: Any) -> None:
        """Add a weighted edge ``src -> dst`` (creating missing endpoints).

        Raises :class:`GraphError` for self-loops and when the edge
        already exists (the mapping layer never overwrites silently; use
        :meth:`set_edge_weight` to retune a weight).
        """
        if src == dst:
            raise GraphError(f"self-loop on {src!r} is not allowed")
        self.add_node(src)
        self.add_node(dst)
        if dst in self._succ[src]:
            raise GraphError(f"edge ({src!r}, {dst!r}) already exists")
        self._succ[src][dst] = weight
        self._pred[dst][src] = weight
        if attrs:
            self._edge_attrs[(src, dst)] = dict(attrs)

    def remove_edge(self, src: Node, dst: Node) -> None:
        try:
            del self._succ[src][dst]
            del self._pred[dst][src]
        except KeyError:
            raise GraphError(f"edge ({src!r}, {dst!r}) does not exist") from None
        self._edge_attrs.pop((src, dst), None)

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and every incident edge."""
        if node not in self._succ:
            raise GraphError(f"node {node!r} does not exist")
        for dst in list(self._succ[node]):
            self.remove_edge(node, dst)
        for src in list(self._pred[node]):
            self.remove_edge(src, node)
        del self._succ[node]
        del self._pred[node]
        del self._node_attrs[node]

    def set_edge_weight(self, src: Node, dst: Node, weight: float) -> None:
        if dst not in self._succ.get(src, ()):
            raise GraphError(f"edge ({src!r}, {dst!r}) does not exist")
        self._succ[src][dst] = weight
        self._pred[dst][src] = weight

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    def nodes(self) -> Iterator[Node]:
        return iter(self._succ)

    def edges(self) -> Iterator[Tuple[Node, Node, float]]:
        for src, nbrs in self._succ.items():
            for dst, weight in nbrs.items():
                yield src, dst, weight

    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._succ.values())

    def has_edge(self, src: Node, dst: Node) -> bool:
        return dst in self._succ.get(src, ())

    def edge_weight(self, src: Node, dst: Node) -> float:
        try:
            return self._succ[src][dst]
        except KeyError:
            raise GraphError(f"edge ({src!r}, {dst!r}) does not exist") from None

    def successors(self, node: Node) -> Iterator[Node]:
        try:
            return iter(self._succ[node])
        except KeyError:
            raise GraphError(f"node {node!r} does not exist") from None

    def predecessors(self, node: Node) -> Iterator[Node]:
        try:
            return iter(self._pred[node])
        except KeyError:
            raise GraphError(f"node {node!r} does not exist") from None

    def out_degree(self, node: Node) -> int:
        return len(self._succ[node])

    def in_degree(self, node: Node) -> int:
        return len(self._pred[node])

    def sources(self) -> List[Node]:
        """Nodes with no predecessors."""
        return [n for n, preds in self._pred.items() if not preds]

    def sinks(self) -> List[Node]:
        """Nodes with no successors."""
        return [n for n, succs in self._succ.items() if not succs]

    def node_attrs(self, node: Node) -> Dict[str, Any]:
        try:
            return self._node_attrs[node]
        except KeyError:
            raise GraphError(f"node {node!r} does not exist") from None

    def edge_attrs(self, src: Node, dst: Node) -> Dict[str, Any]:
        if not self.has_edge(src, dst):
            raise GraphError(f"edge ({src!r}, {dst!r}) does not exist")
        return self._edge_attrs.setdefault((src, dst), {})

    # low-level accessors used by the longest-path DP (no copies)
    @property
    def succ(self) -> Dict[Node, Dict[Node, float]]:
        return self._succ

    @property
    def pred(self) -> Dict[Node, Dict[Node, float]]:
        return self._pred

    # ------------------------------------------------------------------
    # global structure
    # ------------------------------------------------------------------
    def topological_order(self) -> List[Node]:
        """Kahn's algorithm; raises :class:`CycleError` if cyclic.

        The ready set is consumed FIFO, so the returned order is a
        breadth-first layering that depends only on node/edge insertion
        order — deterministic across runs and Python versions (dicts
        preserve insertion order).  Downstream longest-path values never
        depend on which valid order is used, but a stable order keeps
        traces, schedules and regression tests reproducible.
        """
        indeg = {n: len(p) for n, p in self._pred.items()}
        order = [n for n, d in indeg.items() if d == 0]
        head = 0
        while head < len(order):
            node = order[head]
            head += 1
            for succ in self._succ[node]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    order.append(succ)
        if len(order) != len(self._succ):
            raise CycleError(
                "graph contains a cycle",
                cycle=[n for n, d in indeg.items() if d > 0],
            )
        return order

    def is_acyclic(self) -> bool:
        try:
            self.topological_order()
        except CycleError:
            return False
        return True

    def check_acyclic(self) -> None:
        """Raise :class:`CycleError` if the graph has a cycle."""
        self.topological_order()

    def has_path(self, src: Node, dst: Node) -> bool:
        """DFS reachability (used by tests; hot paths use reachability bitsets)."""
        if src not in self._succ or dst not in self._succ:
            return False
        stack = [src]
        seen = set()
        while stack:
            node = stack.pop()
            if node == dst:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._succ[node])
        return False

    def descendants(self, node: Node) -> set:
        """All nodes reachable from ``node`` (excluding itself)."""
        stack = list(self._succ[node])
        seen = set()
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(self._succ[cur])
        return seen

    def ancestors(self, node: Node) -> set:
        """All nodes from which ``node`` is reachable (excluding itself)."""
        stack = list(self._pred[node])
        seen = set()
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(self._pred[cur])
        return seen

    # ------------------------------------------------------------------
    # conversion / copy
    # ------------------------------------------------------------------
    def copy(self) -> "Dag":
        clone = Dag()
        for node, attrs in self._node_attrs.items():
            clone.add_node(node, **attrs)
        for src, dst, weight in self.edges():
            clone.add_edge(src, dst, weight, **self._edge_attrs.get((src, dst), {}))
        return clone

    def to_networkx(self):
        """Return a :class:`networkx.DiGraph` copy (for analysis only)."""
        import networkx as nx

        graph = nx.DiGraph()
        for node, attrs in self._node_attrs.items():
            graph.add_node(node, **attrs)
        for src, dst, weight in self.edges():
            graph.add_edge(src, dst, weight=weight, **self._edge_attrs.get((src, dst), {}))
        return graph

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[Node, Node]],
        nodes: Optional[Iterable[Node]] = None,
    ) -> "Dag":
        """Build a DAG from ``(src, dst)`` pairs (weight 0) and extra nodes."""
        dag = cls()
        if nodes is not None:
            for node in nodes:
                dag.add_node(node)
        for src, dst in edges:
            dag.add_edge(src, dst)
        return dag

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Dag(nodes={len(self)}, edges={self.num_edges()})"


class NodeInterner:
    """Bidirectional mapping between hashable node keys and dense ids.

    The array-backed evaluation fast path
    (:class:`repro.mapping.engine.IncrementalEngine`) interns every
    search-graph node — task indices, ``(COMM_NODE, src, dst)`` tuples,
    ``(CONFIG_NODE, rc)`` tuples — to a dense integer once per problem
    instance, then runs Kahn's sort and the longest-path DP over flat
    lists indexed by those ids instead of dict-of-dicts keyed by tuples.

    Ids are allocated contiguously from 0 in first-intern order and are
    never recycled, so arrays indexed by id only ever grow.
    """

    __slots__ = ("_ids", "_keys")

    def __init__(self, keys: Optional[Iterable[Node]] = None) -> None:
        self._ids: Dict[Node, int] = {}
        self._keys: List[Node] = []
        if keys is not None:
            for key in keys:
                self.intern(key)

    def intern(self, key: Node) -> int:
        """Return the dense id of ``key``, allocating one if needed."""
        node_id = self._ids.get(key)
        if node_id is None:
            node_id = len(self._keys)
            self._ids[key] = node_id
            self._keys.append(key)
        return node_id

    def id_of(self, key: Node) -> int:
        """Dense id of an already-interned key (KeyError otherwise)."""
        return self._ids[key]

    def key_of(self, node_id: int) -> Node:
        """Original node key for a dense id."""
        return self._keys[node_id]

    def __contains__(self, key: Node) -> bool:
        return key in self._ids

    def __len__(self) -> int:
        return len(self._keys)

    def keys(self) -> List[Node]:
        """All interned keys, in id order (index == id)."""
        return list(self._keys)

    def copy(self) -> "NodeInterner":
        """Independent interner with the same id assignments.

        Engines intern configuration nodes on top of the compile pass's
        interner; each copies it, so several engines grow private
        regions without ever disagreeing on the shared prefix."""
        clone = NodeInterner()
        clone._ids = dict(self._ids)
        clone._keys = list(self._keys)
        return clone
