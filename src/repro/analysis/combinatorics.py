"""Solution-space counting (paper section 5, last two paragraphs).

The paper sizes the search space of the 28-task example by counting

* the number of **total orders** (linear extensions) of the precedence
  graph — 1716 for the first 20 nodes, 3 for the 2-chain-vs-1-node
  fork, 3·C(21,7) = 348 840 in total; and
* the number of **context placements**: for a chain of N nodes, k
  changes of context give C(N, k) combinations (378 for k = 2,
  376 740 for k = 6 with N = 28);

multiplying to 131 861 520 combinations for 2 context changes and
7 142 499 000 for 4.  This module reproduces all of those numbers
exactly (``tests/analysis/test_combinatorics.py`` pins them), and
provides a general linear-extension counter usable on any application.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial
from typing import Dict, FrozenSet, Hashable, List, Sequence, Tuple

from repro.errors import GraphError
from repro.graph.dag import Dag


def count_linear_extensions(dag: Dag, limit_nodes: int = 40) -> int:
    """Exact number of linear extensions (total orders) of a DAG.

    Dynamic programming over down-sets: ``f(done) = sum over minimal
    next choices``.  Exponential in the antichain width, so the node
    count is guarded (the paper's graphs are chain bundles of width
    <= 3, where this is instantaneous).
    """
    nodes = list(dag.nodes())
    if len(nodes) > limit_nodes:
        raise GraphError(
            f"refusing linear-extension count on {len(nodes)} nodes "
            f"(limit {limit_nodes}); the DP is exponential in width"
        )
    dag.check_acyclic()
    preds: Dict[Hashable, FrozenSet[Hashable]] = {
        n: frozenset(dag.predecessors(n)) for n in nodes
    }
    all_nodes = frozenset(nodes)

    cache: Dict[FrozenSet[Hashable], int] = {}

    def extensions(done: FrozenSet[Hashable]) -> int:
        if done == all_nodes:
            return 1
        hit = cache.get(done)
        if hit is not None:
            return hit
        total = 0
        for node in all_nodes - done:
            if preds[node] <= done:
                total += extensions(done | {node})
        cache[done] = total
        return total

    return extensions(frozenset())


def chain_interleavings(chain_lengths: Sequence[int]) -> int:
    """Linear extensions of disjoint parallel chains: the multinomial
    ``(sum n_i)! / prod(n_i!)``."""
    if any(length < 0 for length in chain_lengths):
        raise GraphError("chain lengths must be >= 0")
    total = sum(chain_lengths)
    result = factorial(total)
    for length in chain_lengths:
        result //= factorial(length)
    return result


def context_placements(num_nodes: int, context_changes: int) -> int:
    """Number of ways to place ``context_changes`` context switches on a
    chain of ``num_nodes`` nodes — the paper's C(N, k) (it counts 378
    for N = 28, k = 2 and 376 740 for k = 6, i.e. C(28, k))."""
    if num_nodes < 0 or context_changes < 0:
        raise GraphError("arguments must be >= 0")
    return comb(num_nodes, context_changes)


class SolutionSpaceReport:
    """The paper's section-5 counting table for one application."""

    def __init__(
        self,
        total_orders: int,
        placements: Dict[int, int],
        combinations: Dict[int, int],
    ) -> None:
        #: Number of total orders (linear extensions) of the task graph.
        self.total_orders = total_orders
        #: context_changes -> C(N, k) placements.
        self.placements = placements
        #: context_changes -> total_orders * placements.
        self.combinations = combinations

    def rows(self) -> List[Tuple[int, int, int]]:
        return [
            (k, self.placements[k], self.combinations[k])
            for k in sorted(self.placements)
        ]

    def format_table(self) -> str:
        lines = [
            f"total orders (linear extensions): {self.total_orders:,}",
            f"{'k changes':>10} {'placements C(N,k)':>20} {'combinations':>18}",
        ]
        for k, placement, combo in self.rows():
            lines.append(f"{k:>10} {placement:>20,} {combo:>18,}")
        return "\n".join(lines)


def solution_space_report(
    application,
    context_changes: Sequence[int] = (2, 4, 6),
) -> SolutionSpaceReport:
    """Reproduce the paper's solution-space estimate for an application.

    Counts the linear extensions of the precedence graph and, for each
    requested number of context changes ``k``, the C(N, k) context
    placements and the product — the count of (total order, temporal
    partitioning) combinations assuming all processing on the RC, which
    is exactly the paper's accounting.
    """
    total_orders = count_linear_extensions(application.dag)
    n = len(application)
    placements = {k: context_placements(n, k) for k in context_changes}
    combinations = {k: total_orders * placements[k] for k in context_changes}
    return SolutionSpaceReport(total_orders, placements, combinations)
