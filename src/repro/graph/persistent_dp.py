"""Longest path of a DAG under small edits, over one persistent order.

Between two candidate mappings only a few edges, durations and weights
of the search graph change (paper section 4.4).
:class:`PersistentLongestPath` keeps what makes the next longest path
cheap:

* one topological order of the base graph, repaired in place: one live
  linked edge that contradicts it gets one Pearce/Kelly insert, two or
  more one Kahn sort;
* the bus chain, the active transfers in ASAP order of the base graph
  (a stable sort of the caller's tie order by base start): one more
  pointer layer, whose contradicting edges are unlinked and re-inserted
  one at a time.  During an insert every other linked edge agrees with
  the positions, so a failed insert is an exact cycle verdict;
* the base DP values and the serialized (base + chain) finish times,
  re-run from the earliest position whose inputs changed: a node reads
  only earlier positions, so the suffix reproduces the full DP bit for bit.

The graph belongs to the caller: plain lists over dense node ids, edited
in place and reported through :meth:`~PersistentLongestPath.link`,
:meth:`~PersistentLongestPath.seed` and
:meth:`~PersistentLongestPath.grow`.  Ids ``lo + j`` (``j <
len(comm_src)``) are transfers: one static input ``comm_src[j]`` over
weight ``comm_w[j]`` (floored at 0), plus the bus chain.  Every other
node reads its ``pred_comms`` finish times, its processor predecessor
and its ``pred_seq`` ``(node, weight)`` edges; processor chains link
ids below ``lo``.  ``indeg`` counts every base edge into a node.
"""

from __future__ import annotations

import math
from operator import gt, le
from typing import List, Optional, Sequence, Tuple

from repro.errors import CycleError
from repro.graph.longest_path import kahn_order_indices
from repro.numeric import left_sum

class PersistentLongestPath:
    """The persistent order, bus chain and suffix DPs of one graph."""

    def __init__(
        self, *, lo: int, comm_src: Sequence[int], comm_w: Sequence[float],
        succ_static: Sequence[Sequence[int]],
        pred_comms: Sequence[Sequence[int]],
        succ_seq: Sequence[List[int]],
        pred_seq: Sequence[List[Tuple[int, float]]],
        proc_next: List[int], proc_prev: List[int],
        indeg: List[int], dur: List[float],
    ) -> None:
        self._lo = lo
        self._hi = lo + len(comm_src)
        self._comm_src = comm_src
        self._comm_w = comm_w
        self._succ_static = succ_static
        self._pred_comms = pred_comms
        self._succ_seq = succ_seq
        self._pred_seq = pred_seq
        self._proc_next = proc_next
        self._proc_prev = proc_prev
        self._indeg = indeg
        self._dur = dur
        n = len(dur)
        #: The order and each node's position in it (``None`` until the
        #: first sort, and again after :meth:`grow`).
        self.order: Optional[List[int]] = None
        self.pos: List[int] = []
        #: The bus chain as transfer ids, and the same chain as pointer
        #: arrays (``-1`` off the chain).  ``_no_chain`` stands in for
        #: them wherever the base graph alone is walked.
        self.chain: List[int] = []
        self._chain_pred: List[int] = [-1] * n
        self._chain_next: List[int] = [-1] * n
        self._no_chain: List[int] = [-1] * n
        #: Base DP values (no bus chain) and serialized finish times.
        self.starts0: List[float] = [0.0] * n
        self.finish0: List[float] = [0.0] * n
        self.finish1: List[float] = [0.0] * n
        #: Whether the serialized values are current up to the seeds and
        #: the chain relink; if not, the next pass checks the whole chain.
        self._ser_valid = False
        #: Nodes whose inputs changed since the last DP run.
        self._seeds: set = set()
        #: Linked edges that contradict the stored order; the order is
        #: topological exactly when this is empty.
        self._pending: List[Tuple[int, int]] = []
        #: One-edge repairs, Kahn sorts and bus-chain repairs.
        self.repairs = 0
        self.rebuilds = 0
        self.chain_repairs = 0

    def link(self, a: int, b: int) -> None:
        """The caller linked the base edge ``a -> b``."""
        self._seeds.add(b)
        if self.order is not None and self.pos[a] >= self.pos[b]:
            self._pending.append((a, b))

    def seed(self, node: int) -> None:
        """The inputs of ``node`` changed (an edge into it removed, its
        duration or the weight of an edge into it written)."""
        self._seeds.add(node)

    def grow(self, n: int) -> None:
        """The caller's arrays now cover ``n`` ids: the next
        :meth:`evaluate` sorts and runs both DPs in full."""
        grow = n - len(self.starts0)
        for values in (self.starts0, self.finish0, self.finish1):
            values.extend([0.0] * grow)
        for ints in (self._chain_pred, self._chain_next, self._no_chain):
            ints.extend([-1] * grow)
        self.order = None
        self._pending.clear()

    def evaluate(
        self, active: Sequence[int]
    ) -> Tuple[float, float, Optional[CycleError]]:
        """Longest path with the transfer ids ``active`` (in the caller's
        tie order) serialized on the bus, as ``(makespan, comm_ms,
        cycle)``: the chain is their stable sort by base start, ``comm_ms``
        sums their durations (in chain order once there is a chain), and
        a cyclic graph gives ``(inf, comm_ms, CycleError)`` whose
        ``cycle`` lists node ids."""
        seeds = self._seeds
        full = self.order is None
        moved = False
        cycle = None
        pending = self._pending
        if pending:
            # Contradicting edges since removed stop mattering.
            proc_next = self._proc_next
            succ_seq = self._succ_seq
            pending[:] = [(a, b) for a, b in pending
                          if proc_next[a] == b or b in succ_seq[a]]
        if len(pending) == 1:
            a, b = pending[0]
            if self._insert(a, b, self._no_chain, self._no_chain):
                self.repairs += 1
                pending.clear()
                moved = True
            else:
                cycle = CycleError("realization contains a cycle", cycle=[b, a])
        elif full or pending:
            # No stored order, or two or more contradicting edges: one
            # Kahn over the base layers (a failed sort changes nothing).
            self.rebuilds += 1
            try:
                order = kahn_order_indices(
                    len(self._dur), self._indeg, self._succ_static, None,
                    self._succ_seq, self._proc_next,
                )
            except CycleError as exc:
                cycle = exc
            else:
                # The DP values depend on the graph, not on the order,
                # so the suffix DPs below still apply.
                pos = [0] * len(order)
                for idx, v in enumerate(order):
                    pos[v] = idx
                self.order, self.pos = order, pos
                pending.clear()
                moved = True
        dur = self._dur
        if cycle is not None:
            # No chain yet: the transfers are summed in index order.
            return math.inf, left_sum(map(dur.__getitem__, sorted(active))), cycle
        pos = self.pos

        starts0 = self.starts0
        finish0 = self.finish0
        if full:
            self._dp_range(0, self._no_chain, finish0, starts0)
        elif seeds:
            start = min(map(pos.__getitem__, seeds))
            self._dp_range(start, self._no_chain, finish0, starts0)
        if not active:
            seeds.clear()
            self._ser_valid = False
            return max(finish0), 0.0, None

        # The bus chain: ASAP order in the base graph, ties in the
        # caller's order (the sort is stable).
        chain = sorted(active, key=starts0.__getitem__)
        heads = self._relink(chain) if chain != self.chain else ()
        comm_ms = left_sum(map(dur.__getitem__, chain))
        later = chain[1:]

        # Keep the order topological over the serialized graph too.
        ser_full = full or not self._ser_valid
        if moved or heads or ser_full:
            positions = list(map(pos.__getitem__, chain))
            if any(map(gt, positions, positions[1:])):
                cycle = self._repair_chain([
                    (a, b) for a, b in zip(chain, later) if pos[a] > pos[b]])
                if cycle is not None:
                    # The base values are current, the serialized ones
                    # re-run in full.
                    seeds.clear()
                    self._ser_valid = False
                    return math.inf, comm_ms, cycle
                self.chain_repairs += 1

        finish1 = self.finish1
        if all(map(le, map(finish0.__getitem__, chain),
                   map(starts0.__getitem__, later))):
            # No chain edge binds: the serialized values are the base
            # values bit for bit (no chain candidate wins a max).
            finish1[:] = finish0
        elif ser_full:
            self._dp_range(0, self._chain_pred, finish1)
        elif seeds or heads:
            start = min(map(pos.__getitem__, [*seeds, *heads]))
            self._dp_range(start, self._chain_pred, finish1)
        seeds.clear()
        self._ser_valid = True
        return max(finish1), comm_ms, None

    def _relink(self, chain: List[int]) -> List[int]:
        """Write a new bus chain into the pointer arrays and return the
        transfer ids whose chain predecessor changed (they seed the
        serialized DP).  Transfers that left the chain are unlinked."""
        chain_pred = self._chain_pred
        chain_next = self._chain_next
        heads: List[int] = []
        members = set(chain)
        for c in self.chain:
            if c not in members:
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
        self.chain = chain
        return heads

    def _repair_chain(self, bad: List[Tuple[int, int]]) -> Optional[CycleError]:
        """Repair the order for the chain edges that contradict it: they
        are unlinked, then re-inserted one at a time, so each insert runs
        with every other linked edge position-consistent.  Returns the
        cycle verdict of the first that fails (``None`` when all went
        in); the edges are relinked either way."""
        chain_pred = self._chain_pred
        chain_next = self._chain_next
        pos = self.pos
        for a, b in bad:
            chain_next[a] = -1
            chain_pred[b] = -1
        failed = None
        for a, b in bad:
            if failed is None and pos[a] > pos[b] and not self._insert(
                a, b, chain_next, chain_pred
            ):
                failed = CycleError("realization contains a cycle", cycle=[b, a])
            chain_next[a] = b
            chain_pred[b] = a
        return failed

    def _insert(
        self, a: int, b: int, chain_next: List[int], chain_pred: List[int]
    ) -> bool:
        """Pearce/Kelly insert of one edge ``a -> b`` with ``pos[a] >=
        pos[b]``: the nodes ``b`` reaches and the nodes reaching ``a``
        within the region ``[pos[b], pos[a]]`` are remapped onto their
        own position pool, backward block first.  The bus chain is
        walked through ``chain_next``/``chain_pred`` (``_no_chain`` for
        the base graph alone).  Every other linked edge agrees with the
        positions, so the forward search alone finds any path back to
        ``a``: then it returns False, order and positions untouched."""
        order = self.order
        pos = self.pos
        lower = pos[b]
        upper = pos[a]
        lo = self._lo
        hi = self._hi
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
            # Processor chains link ids below ``lo``, the bus chain
            # transfer ids.
            y = proc_next[x] if x < lo else chain_next[x]
            if y >= 0 and pos[y] <= upper and y not in forward:
                if y == a:
                    return False
                forward.add(y)
                stack.append(y)
        comm_src = self._comm_src
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
                backward.add(y)
                stack.append(y)
            for y in preds:
                if pos[y] >= lower and y not in backward:
                    backward.add(y)
                    stack.append(y)
            for y, _w in pred_seq[x]:
                if pos[y] >= lower and y not in backward:
                    backward.add(y)
                    stack.append(y)
        # The affected nodes keep their position pool: the backward
        # block (everything that must precede ``a``, ``a`` included)
        # first, the forward block second, each in its relative order.
        affected = sorted(backward, key=pos.__getitem__)
        affected += sorted(forward, key=pos.__getitem__)
        pool = sorted(pos[v] for v in affected)
        for p, v in zip(pool, affected):
            pos[v] = p
            order[p] = v
        return True

    def _dp_range(
        self,
        start: int,
        chain: List[int],
        finish: List[float],
        starts: Optional[List[float]] = None,
    ) -> None:
        """The DP loop over ``order[start:]``, for the base values
        (``chain=_no_chain``, ``starts`` given) or the serialized finish
        times (``chain=_chain_pred``)."""
        lo = self._lo
        hi = self._hi
        comm_src = self._comm_src
        comm_w = self._comm_w
        pred_comms = self._pred_comms
        pred_seq = self._pred_seq
        proc_prev = self._proc_prev
        dur = self._dur
        for v in self.order[start:]:
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
            if starts is not None:
                starts[v] = best
            finish[v] = best + dur[v]
