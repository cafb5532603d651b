"""The application: a precedence graph of tasks with data-volume edges.

Paper section 3.1: ``G = <V, E>`` is acyclic; each node carries its
functionality, CLB counts and time estimates, and each edge ``e_ij``
carries the amount of data ``q_ij`` transferred.  The transfer *time* of
an edge is architecture-dependent (bus rate ``D``), so it lives in
:mod:`repro.arch.bus`, not here.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import CycleError, ModelError
from repro.graph.dag import Dag
from repro.graph.reachability import ReachabilityIndex
from repro.model.task import Implementation, Task
from repro.numeric import left_sum


class Application:
    """A named, validated application task graph."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._dag = Dag()
        self._tasks: Dict[int, Task] = {}
        self._names: Set[str] = set()
        self._reachability: Optional[ReachabilityIndex] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_task(self, task: Task) -> Task:
        if task.index in self._tasks:
            raise ModelError(f"duplicate task index {task.index}")
        if task.name in self._names:
            raise ModelError(f"duplicate task name {task.name!r}")
        self._tasks[task.index] = task
        self._names.add(task.name)
        self._dag.add_node(task.index)
        self._reachability = None
        return task

    def add_dependency(self, src: int, dst: int, data_kbytes: float = 0.0) -> None:
        """Add precedence edge ``src -> dst`` carrying ``q_ij`` kilobytes."""
        if src not in self._tasks or dst not in self._tasks:
            raise ModelError(f"dependency ({src}, {dst}) references unknown task")
        if data_kbytes < 0:
            raise ModelError("data_kbytes must be >= 0")
        self._dag.add_edge(src, dst, weight=data_kbytes)
        self._reachability = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, index: int) -> bool:
        return index in self._tasks

    def task(self, index: int) -> Task:
        try:
            return self._tasks[index]
        except KeyError:
            raise ModelError(f"no task with index {index}") from None

    def task_by_name(self, name: str) -> Task:
        for task in self._tasks.values():
            if task.name == name:
                return task
        raise ModelError(f"no task named {name!r}")

    def tasks(self) -> Iterator[Task]:
        return iter(self._tasks.values())

    def task_indices(self) -> List[int]:
        return list(self._tasks)

    def dependencies(self) -> Iterator[Tuple[int, int, float]]:
        """Yield ``(src, dst, q_ij_kbytes)`` for every precedence edge."""
        return self._dag.edges()

    def data_kbytes(self, src: int, dst: int) -> float:
        return self._dag.edge_weight(src, dst)

    def predecessors(self, index: int) -> List[int]:
        return list(self._dag.predecessors(index))

    def successors(self, index: int) -> List[int]:
        return list(self._dag.successors(index))

    def sources(self) -> List[int]:
        return self._dag.sources()

    def sinks(self) -> List[int]:
        return self._dag.sinks()

    @property
    def dag(self) -> Dag:
        """The underlying precedence DAG (edge weights are q_ij)."""
        return self._dag

    def topological_order(self) -> List[int]:
        return self._dag.topological_order()

    # ------------------------------------------------------------------
    # derived data
    # ------------------------------------------------------------------
    def reachability(self) -> ReachabilityIndex:
        """Static ancestor/descendant bitsets of the precedence graph.

        Cached; rebuilt after any task/dependency addition.  This is the
        move generator's hot path (paper section 4.3's O(1) precedence
        feasibility lookups): ``precedes`` answers through one
        shift-and-mask per query.
        """
        if self._reachability is None:
            self._reachability = ReachabilityIndex.from_dag(self._dag)
        return self._reachability

    def precedes(self, a: int, b: int) -> bool:
        """True when task ``a`` must finish before ``b`` starts."""
        index = self._reachability
        if index is None:
            index = self.reachability()
        return index.has_path(a, b)

    def total_sw_time_ms(self) -> float:
        """Execution time of the all-software, fully serialized mapping."""
        return left_sum(task.sw_time_ms for task in self._tasks.values())

    def hardware_capable_tasks(self) -> List[Task]:
        return [task for task in self._tasks.values() if task.hardware_capable]

    def validate(self) -> None:
        """Check acyclicity and model invariants; raise on violation."""
        if not self._tasks:
            raise ModelError(f"application {self.name!r} has no tasks")
        try:
            self._dag.check_acyclic()
        except CycleError as exc:
            raise ModelError(
                f"application {self.name!r} precedence graph is cyclic: "
                f"{exc.cycle}"
            ) from exc

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Application({self.name!r}, tasks={len(self._tasks)}, "
            f"edges={self._dag.num_edges()})"
        )
