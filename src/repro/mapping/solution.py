"""Candidate solution: assignment, orders, contexts, implementation picks.

The solution owns all mutable mapping state; resources stay immutable
descriptors.  Moves (:mod:`repro.sa.moves`) mutate a solution in place
and undo themselves by rolling its change journal back, which keeps the
annealing loop free of deep copies.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.arch.architecture import Architecture
from repro.arch.asic import Asic
from repro.arch.processor import Processor
from repro.arch.reconfigurable import ReconfigurableCircuit
from repro.arch.resource import Resource
from repro.errors import CapacityError, MappingError
from repro.model.application import Application

#: Journal length past which :meth:`Solution.journal_mark` starts a
#: fresh journal (positions stay absolute through a base offset).
JOURNAL_LIMIT = 4096


class Solution:
    """A complete mapping of an application onto an architecture.

    Invariants (enforced by :meth:`validate`):

    * every task is assigned to exactly one resource;
    * software orders are permutations of the tasks assigned to each
      processor;
    * contexts are non-empty and respect the CLB capacity;
    * implementation choices are valid indices for hardware tasks.

    Precedence consistency of the induced search graph is *not* an
    invariant — the evaluator detects cyclic realizations and reports
    them as infeasible, exactly as the paper rejects cycle-creating
    moves (section 4.3).

    Change journal: from the first :meth:`journal_mark` on (a move's
    apply, or an evaluation engine that starts following the solution),
    every mutation primitive appends invertible records to
    ``_journal``; before it, nothing is recorded:

    * ``("L", task, resource, k, i, sign)`` inserts (``sign`` 1) or
      deletes (``-1``) one list entry — at ``i`` in a processor order or
      ASIC list (``k = -1``), at ``i`` in context ``k``, or a whole
      one-task context at ``k`` (``i = -1``);
    * ``("I", task, old, new)`` changes an implementation pick
      (``None`` for no pick);
    * ``("R", resource, sign)`` attaches or detaches a resource.

    :meth:`journal_mark` returns an absolute position and
    :meth:`rollback` undoes everything after one, newest first, by
    journaling the inverse records (the journal is never truncated, so
    a reader that already consumed the forward records sees the undo
    too).  The stateful evaluation engine reads the records after its
    cursor to learn which tasks and resources to re-check.  Editing the
    lists returned by :meth:`software_order`, :meth:`contexts` or
    :meth:`asic_tasks` in place bypasses the journal: rollbacks and the
    engine's delta-sync would then miss the edit.
    """

    def __init__(self, application: Application, architecture: Architecture) -> None:
        self.application = application
        self.architecture = architecture
        self._resource_of: Dict[int, str] = {}
        self._sw_orders: Dict[str, List[int]] = {
            p.name: [] for p in architecture.processors()
        }
        self._contexts: Dict[str, List[List[int]]] = {
            rc.name: [] for rc in architecture.reconfigurable_circuits()
        }
        self._asic_tasks: Dict[str, List[int]] = {
            a.name: [] for a in architecture.asics()
        }
        # Sticky per-task implementation choice (kept when a task moves
        # back to software, so re-offloading restores the same variant).
        self._impl_choice: Dict[int, int] = {}
        self._journal: Optional[List[Tuple]] = None
        self._journal_base = 0

    # ------------------------------------------------------------------
    # change journal
    # ------------------------------------------------------------------
    def journal_mark(self) -> int:
        """Start or continue the journal; returns the absolute position
        to :meth:`rollback` to later.  A journal longer than
        :data:`JOURNAL_LIMIT` is replaced by a fresh one first: a reader
        behind the new base re-checks everything, and older marks can
        no longer be rolled back to."""
        journal = self._journal
        if journal is None or len(journal) > JOURNAL_LIMIT:
            if journal is not None:
                self._journal_base += len(journal)
            self._journal = journal = []
        return self._journal_base + len(journal)

    def rollback(self, mark: int) -> None:
        """Undo every change after ``mark``, newest first."""
        journal = self._journal
        start = mark - self._journal_base
        if journal is None or start < 0:
            raise MappingError(f"journal mark {mark} predates the journal")
        for idx in range(len(journal) - 1, start - 1, -1):
            record = journal[idx]
            tag = record[0]
            if tag == "L":
                _, task, name, k, i, sign = record
                self._edit(task, name, k, i, -sign)
            elif tag == "I":
                self._set_impl(record[1], record[2])
            elif record[2] > 0:
                self.detach_resource(record[1].name)
            else:
                self.attach_resource(record[1])

    def _edit(self, task: int, name: str, k: int, i: int, sign: int) -> None:
        """Insert or delete one list entry (see the class docstring)
        and journal it; the assignment follows the entry."""
        if k < 0:
            seq = self._sw_orders.get(name)
            if seq is None:
                seq = self._asic_tasks[name]
            at, item = i, task
        elif i < 0:
            seq, at, item = self._contexts[name], k, [task]
        else:
            seq, at, item = self._contexts[name][k], i, task
        if sign > 0:
            seq.insert(at, item)
            self._resource_of[task] = name
        else:
            del seq[at]
            del self._resource_of[task]
        if self._journal is not None:
            self._journal.append(("L", task, name, k, i, sign))

    def _set_impl(self, task_index: int, choice: Optional[int]) -> None:
        old = self._impl_choice.get(task_index)
        if old == choice:
            return
        if choice is None:
            del self._impl_choice[task_index]
        else:
            self._impl_choice[task_index] = choice
        if self._journal is not None:
            self._journal.append(("I", task_index, old, choice))

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    def resource_name_of(self, task_index: int) -> str:
        try:
            return self._resource_of[task_index]
        except KeyError:
            raise MappingError(f"task {task_index} is not assigned") from None

    def resource_of(self, task_index: int) -> Resource:
        return self.architecture.resource(self.resource_name_of(task_index))

    def is_assigned(self, task_index: int) -> bool:
        return task_index in self._resource_of

    def assigned_tasks(self) -> List[int]:
        return list(self._resource_of)

    def software_order(self, processor_name: str) -> List[int]:
        try:
            return self._sw_orders[processor_name]
        except KeyError:
            raise MappingError(f"no processor named {processor_name!r}") from None

    def contexts(self, rc_name: str) -> List[List[int]]:
        try:
            return self._contexts[rc_name]
        except KeyError:
            raise MappingError(f"no reconfigurable circuit named {rc_name!r}") from None

    def asic_tasks(self, asic_name: str) -> List[int]:
        try:
            return self._asic_tasks[asic_name]
        except KeyError:
            raise MappingError(f"no ASIC named {asic_name!r}") from None

    def context_of(self, task_index: int) -> Optional[Tuple[str, int]]:
        """``(rc_name, context_index)`` if the task is on a DRLC."""
        name = self._resource_of.get(task_index)
        if name is None or name not in self._contexts:
            return None
        for k, members in enumerate(self._contexts[name]):
            if task_index in members:
                return (name, k)
        raise MappingError(
            f"task {task_index} assigned to DRLC {name!r} but in no context"
        )

    def num_contexts(self, rc_name: Optional[str] = None) -> int:
        if rc_name is not None:
            return len(self.contexts(rc_name))
        return sum(len(ctxs) for ctxs in self._contexts.values())

    def software_tasks(self) -> List[int]:
        return [t for order in self._sw_orders.values() for t in order]

    def hardware_tasks(self) -> List[int]:
        tasks = [
            t
            for contexts in self._contexts.values()
            for members in contexts
            for t in members
        ]
        tasks.extend(t for members in self._asic_tasks.values() for t in members)
        return tasks

    # ------------------------------------------------------------------
    # implementation choices
    # ------------------------------------------------------------------
    def implementation_choice(self, task_index: int) -> int:
        return self._impl_choice.get(task_index, 0)

    def set_implementation_choice(self, task_index: int, choice: int) -> None:
        task = self.application.task(task_index)
        task.implementation(choice)  # validates the index
        self._set_impl(task_index, choice)

    def task_clbs(self, task_index: int) -> int:
        """CLBs of the task's currently selected implementation."""
        task = self.application.task(task_index)
        return task.implementation(self.implementation_choice(task_index)).clbs

    def context_clbs(self, rc_name: str, context_index: int) -> int:
        members = self._context(rc_name, context_index)
        # Implementation choices are validated when set.
        task = self.application.task
        choice = self._impl_choice.get
        return sum(task(t).implementations[choice(t, 0)].clbs for t in members)

    def _context(self, rc_name: str, context_index: int) -> List[int]:
        contexts = self.contexts(rc_name)
        if not 0 <= context_index < len(contexts):
            raise MappingError(
                f"DRLC {rc_name!r} has no context {context_index} "
                f"(0..{len(contexts) - 1})"
            )
        return contexts[context_index]

    # ------------------------------------------------------------------
    # context boundary nodes (paper section 3.3)
    # ------------------------------------------------------------------
    def context_initial_nodes(self, rc_name: str, context_index: int) -> List[int]:
        """Nodes whose immediate predecessors are all outside the context."""
        members = self._context(rc_name, context_index)
        inside = set(members)
        return [
            t
            for t in members
            if not any(p in inside for p in self.application.predecessors(t))
        ]

    def context_terminal_nodes(self, rc_name: str, context_index: int) -> List[int]:
        """Nodes whose immediate successors are all outside the context."""
        members = self._context(rc_name, context_index)
        inside = set(members)
        return [
            t
            for t in members
            if not any(s in inside for s in self.application.successors(t))
        ]

    # ------------------------------------------------------------------
    # mutation primitives (used by moves and initial-solution builders)
    # ------------------------------------------------------------------
    def unassign(self, task_index: int) -> None:
        """Detach the task from its resource (an emptied context is
        deleted)."""
        name = self._resource_of.get(task_index)
        if name is None:
            return
        contexts = self._contexts.get(name)
        if contexts is None:
            seq = self._sw_orders.get(name)
            if seq is None:
                seq = self._asic_tasks[name]
            self._edit(task_index, name, -1, seq.index(task_index), -1)
            return
        for k, members in enumerate(contexts):
            if task_index in members:
                i = members.index(task_index) if len(members) > 1 else -1
                self._edit(task_index, name, k, i, -1)
                return

    def assign_to_processor(
        self,
        task_index: int,
        processor_name: str,
        position: Optional[int] = None,
    ) -> None:
        """Place the task on a processor at ``position`` in the total
        order (append when ``position`` is None)."""
        self.application.task(task_index)  # validates the index
        if processor_name not in self._sw_orders:
            raise MappingError(f"no processor named {processor_name!r}")
        self.unassign(task_index)
        order = self._sw_orders[processor_name]
        if position is None:
            position = len(order)
        elif not 0 <= position <= len(order):
            raise MappingError(
                f"position {position} out of range 0..{len(order)}"
            )
        self._edit(task_index, processor_name, -1, position, 1)

    def assign_to_context(
        self,
        task_index: int,
        rc_name: str,
        context_index: int,
        enforce_capacity: bool = True,
    ) -> None:
        """Place the task inside an existing context of a DRLC."""
        task = self.application.task(task_index)
        if not task.hardware_capable:
            raise MappingError(f"task {task.name!r} cannot run in hardware")
        rc = self.architecture.resource(rc_name)
        if not isinstance(rc, ReconfigurableCircuit):
            raise MappingError(f"{rc_name!r} is not a reconfigurable circuit")
        members = self._context(rc_name, context_index)
        if enforce_capacity:
            needed = self.task_clbs(task_index)
            used = sum(self.task_clbs(t) for t in members if t != task_index)
            if not rc.fits(used, needed):
                raise CapacityError(
                    f"context {context_index} of {rc_name!r} cannot host task "
                    f"{task.name!r}: {used} + {needed} > {rc.n_clbs} CLBs"
                )
        self.unassign(task_index)
        # Re-resolve: unassign may have pruned an emptied context.
        contexts = self._contexts[rc_name]
        if context_index >= len(contexts):
            self._edit(task_index, rc_name, len(contexts), -1, 1)
        else:
            members = contexts[context_index]
            self._edit(task_index, rc_name, context_index, len(members), 1)

    def spawn_context(
        self,
        task_index: int,
        rc_name: str,
        position: Optional[int] = None,
    ) -> int:
        """Create a new context holding exactly ``task_index``.

        ``position`` is the index of the new context in the DRLC's
        ordered list (append when None).  Returns the actual position.
        This is the move-realization rule of section 4.3: a context is
        spawned when the destination context cannot fit the task.
        """
        task = self.application.task(task_index)
        if not task.hardware_capable:
            raise MappingError(f"task {task.name!r} cannot run in hardware")
        rc = self.architecture.resource(rc_name)
        if not isinstance(rc, ReconfigurableCircuit):
            raise MappingError(f"{rc_name!r} is not a reconfigurable circuit")
        needed = self.task_clbs(task_index)
        if not rc.fits(0, needed):
            raise CapacityError(
                f"task {task.name!r} needs {needed} CLBs but {rc_name!r} "
                f"only has {rc.n_clbs}"
            )
        self.unassign(task_index)
        contexts = self._contexts[rc_name]
        if position is None or position > len(contexts):
            position = len(contexts)
        self._edit(task_index, rc_name, position, -1, 1)
        return position

    def assign_to_asic(self, task_index: int, asic_name: str) -> None:
        task = self.application.task(task_index)
        if not task.hardware_capable:
            raise MappingError(f"task {task.name!r} cannot run in hardware")
        if asic_name not in self._asic_tasks:
            raise MappingError(f"no ASIC named {asic_name!r}")
        self.unassign(task_index)
        members = self._asic_tasks[asic_name]
        self._edit(task_index, asic_name, -1, len(members), 1)

    # ------------------------------------------------------------------
    # resource-set mutation (architecture exploration, moves m3/m4)
    # ------------------------------------------------------------------
    def attach_resource(self, resource: Resource) -> None:
        """Register a newly created resource (move m4)."""
        self.architecture.add_resource(resource)
        if isinstance(resource, Processor):
            self._sw_orders[resource.name] = []
        elif isinstance(resource, ReconfigurableCircuit):
            self._contexts[resource.name] = []
        elif isinstance(resource, Asic):
            self._asic_tasks[resource.name] = []
        else:  # pragma: no cover - defensive
            raise MappingError(f"unknown resource type {type(resource).__name__}")
        if self._journal is not None:
            self._journal.append(("R", resource, 1))

    def detach_resource(self, name: str) -> Resource:
        """Remove an *empty* resource from the system (move m3)."""
        if name in self._sw_orders:
            if self._sw_orders[name]:
                raise MappingError(f"processor {name!r} still has tasks")
            del self._sw_orders[name]
        elif name in self._contexts:
            if self._contexts[name]:
                raise MappingError(f"DRLC {name!r} still has contexts")
            del self._contexts[name]
        elif name in self._asic_tasks:
            if self._asic_tasks[name]:
                raise MappingError(f"ASIC {name!r} still has tasks")
            del self._asic_tasks[name]
        else:
            raise MappingError(f"no resource named {name!r}")
        resource = self.architecture.remove_resource(name)
        if self._journal is not None:
            self._journal.append(("R", resource, -1))
        return resource

    # ------------------------------------------------------------------
    # validation / copying
    # ------------------------------------------------------------------
    def validate(self) -> None:
        app_tasks = set(self.application.task_indices())
        assigned = set(self._resource_of)
        if assigned != app_tasks:
            missing = sorted(app_tasks - assigned)
            extra = sorted(assigned - app_tasks)
            raise MappingError(
                f"assignment mismatch: missing={missing}, unknown={extra}"
            )
        seen: Set[int] = set()
        for name, order in self._sw_orders.items():
            for t in order:
                if self._resource_of.get(t) != name:
                    raise MappingError(f"task {t} in order of {name!r} but not assigned to it")
                if t in seen:
                    raise MappingError(f"task {t} appears on several resources")
                seen.add(t)
        for name, contexts in self._contexts.items():
            rc = self.architecture.resource(name)
            for k, members in enumerate(contexts):
                if not members:
                    raise MappingError(f"context {k} of {name!r} is empty")
                used = sum(self.task_clbs(t) for t in members)
                if used > rc.n_clbs:
                    raise MappingError(
                        f"context {k} of {name!r} uses {used} CLBs > "
                        f"capacity {rc.n_clbs}"
                    )
                for t in members:
                    if self._resource_of.get(t) != name:
                        raise MappingError(
                            f"task {t} in context of {name!r} but not assigned to it"
                        )
                    if t in seen:
                        raise MappingError(f"task {t} appears on several resources")
                    seen.add(t)
        for name, members in self._asic_tasks.items():
            for t in members:
                if self._resource_of.get(t) != name:
                    raise MappingError(f"task {t} on ASIC {name!r} but not assigned to it")
                if t in seen:
                    raise MappingError(f"task {t} appears on several resources")
                seen.add(t)
        for t, choice in self._impl_choice.items():
            task = self.application.task(t)
            if task.hardware_capable:
                task.implementation(choice)

    def copy(self) -> "Solution":
        """Deep copy of the mapping state, without a journal.

        The application is shared (immutable here); the architecture is
        snapshot-copied so that subsequent resource creation/removal
        moves (m3/m4) on the live solution cannot invalidate the copy.
        """
        clone = Solution.__new__(Solution)
        clone.application = self.application
        clone.architecture = self.architecture.snapshot()
        clone._resource_of = dict(self._resource_of)
        clone._sw_orders = {k: list(v) for k, v in self._sw_orders.items()}
        clone._contexts = {
            k: [list(c) for c in v] for k, v in self._contexts.items()
        }
        clone._asic_tasks = {k: list(v) for k, v in self._asic_tasks.items()}
        clone._impl_choice = dict(self._impl_choice)
        clone._journal = None
        clone._journal_base = 0
        return clone

    def summary(self) -> str:
        """One-line description used by traces and examples."""
        parts = []
        for name, order in self._sw_orders.items():
            parts.append(f"{name}:{len(order)}sw")
        for name, contexts in self._contexts.items():
            sizes = "/".join(str(len(c)) for c in contexts) or "-"
            parts.append(f"{name}:{len(contexts)}ctx[{sizes}]")
        for name, members in self._asic_tasks.items():
            parts.append(f"{name}:{len(members)}hw")
        return " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Solution({self.summary()})"


def random_initial_solution(
    application: Application,
    architecture: Architecture,
    rng: random.Random,
    hw_fraction: Optional[float] = None,
) -> Solution:
    """The paper's initial solution (section 5).

    "The initial solution is generated with a random hardware/software
    partition.  A random number of tasks are moved, one by one, to the
    reconfigurable circuit.  A new context is created when the capacity
    of the last context is exceeded."

    Tasks are placed following one random topological order of the
    application, which guarantees the initial realization is acyclic
    (context order and software order both respect precedence).

    ``hw_fraction`` forces the expected fraction of hardware-capable
    tasks moved to hardware; None draws the count uniformly as in the
    paper.
    """
    application.validate()
    architecture.validate()
    solution = Solution(application, architecture)
    order = _random_topological_order(application, rng)

    processors = architecture.processors()
    rcs = architecture.reconfigurable_circuits()

    # Random implementation choice per hardware-capable task (the paper
    # lets annealing pick among the 5-6 synthesized variants).
    for task in application.tasks():
        if task.hardware_capable:
            solution.set_implementation_choice(
                task.index, rng.randrange(task.num_implementations)
            )

    hw_candidates = [
        t for t in order if application.task(t).hardware_capable
    ] if rcs else []
    if hw_fraction is None:
        count = rng.randint(0, len(hw_candidates))
    else:
        count = round(hw_fraction * len(hw_candidates))
    chosen = set(rng.sample(hw_candidates, count)) if count else set()

    for t in order:
        if t in chosen:
            rc = rcs[rng.randrange(len(rcs))]
            contexts = solution.contexts(rc.name)
            placed = False
            if contexts:
                used = solution.context_clbs(rc.name, len(contexts) - 1)
                if rc.fits(used, solution.task_clbs(t)):
                    solution.assign_to_context(t, rc.name, len(contexts) - 1)
                    placed = True
            if not placed:
                if rc.fits(0, solution.task_clbs(t)):
                    solution.spawn_context(t, rc.name)
                else:
                    # Device cannot host even the smallest variant of
                    # this task with the chosen implementation; try the
                    # smallest one, else fall back to software.
                    task = application.task(t)
                    smallest = task.smallest_implementation()
                    if rc.fits(0, smallest.clbs):
                        solution.set_implementation_choice(
                            t, task.implementations.index(smallest)
                        )
                        solution.spawn_context(t, rc.name)
                    else:
                        proc = processors[rng.randrange(len(processors))]
                        solution.assign_to_processor(t, proc.name)
        else:
            proc = processors[rng.randrange(len(processors))]
            solution.assign_to_processor(t, proc.name)

    solution.validate()
    return solution


def _random_topological_order(
    application: Application, rng: random.Random
) -> List[int]:
    """Kahn's algorithm with uniformly random tie-breaking."""
    indeg = {t: len(application.predecessors(t)) for t in application.task_indices()}
    ready = [t for t, d in indeg.items() if d == 0]
    order: List[int] = []
    while ready:
        pick = ready.pop(rng.randrange(len(ready)))
        order.append(pick)
        for succ in application.successors(pick):
            indeg[succ] -= 1
            if indeg[succ] == 0:
                ready.append(succ)
    if len(order) != len(indeg):
        raise MappingError("application graph is cyclic")
    return order
