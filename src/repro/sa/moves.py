"""The paper's annealing moves (section 4.2) and their realization (4.3).

A move is selected by drawing a source index and a destination index in
``[0, N]``; 0 requests a resource creation/removal, anything else names
a task.  Four move types result:

* **m1** — source and destination on the same *processor*: modify the
  total software order (move the source right before the destination,
  clamped to the precedence-feasible window).
* **m2** — different resources (contexts of a DRLC count as resources):
  reassign the source task to the destination's resource; when the
  destination context cannot fit the task, a new context is spawned
  right after it.
* **m3** — source draw is 0: remove a resource hosting a single task,
  reassigning that task to the destination's resource.
* **m4** — destination draw is 0: create a new resource from the
  architecture catalog and move the source task onto it.

We add two moves beyond the paper's numbered four:

* **mImpl** — the paper's experimental section states the annealer
  "chooses for each node implemented in hardware one of its
  implementations", so this move re-draws the area/time variant of a
  hardware task.
* **mOffload** — moves a hardware-capable task onto a DRLC even when
  the device is *empty*.  This is strictly necessary for ergodicity
  with a fixed architecture: m2 can only target resources that already
  host a task, so once a random walk empties the FPGA the paper's move
  set (with the m4 creation move disabled, as in the paper's
  experiments) could never repopulate it.  The paper's general mode
  repairs this through m4; with the architecture pinned we keep a small
  probability of direct offloading instead.

Moves mutate the solution in place.  A move marks the solution's change
journal before mutating and undoes itself by rolling the journal back
to that mark, so undo costs only what the move changed and the
annealing loop never deep-copies solutions.

Feasibility: obviously precedence-violating realizations are rejected
*before* mutation using the application's static transitive closure
(the paper's closure-matrix test): the task's ancestor and descendant
bitmasks are read once and each resident task costs one bit test.
Cross-resource cycles that survive the precheck are caught by the
evaluator's topological sort and reported as infeasible moves.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.arch.asic import Asic
from repro.arch.processor import Processor
from repro.arch.reconfigurable import ReconfigurableCircuit
from repro.arch.resource import Resource
from repro.errors import CapacityError, ConfigurationError, InfeasibleMoveError
from repro.mapping.solution import Solution
from repro.model.application import Application

class Move(ABC):
    """A reversible in-place mutation of a solution."""

    name: str = "abstract"

    def __init__(self) -> None:
        self._mark: Optional[int] = None

    def apply(self, solution: Solution) -> None:
        """Perform the move; raises :class:`InfeasibleMoveError` (leaving
        the solution unchanged) when the realization is impossible."""
        mark = solution.journal_mark()
        try:
            self._realize(solution)
        except (InfeasibleMoveError, CapacityError):
            solution.rollback(mark)
            raise
        self._mark = mark

    def undo(self, solution: Solution) -> None:
        if self._mark is None:
            raise InfeasibleMoveError("nothing to undo: move was not applied")
        solution.rollback(self._mark)
        self._mark = None

    @abstractmethod
    def _realize(self, solution: Solution) -> None:
        ...


# ----------------------------------------------------------------------
# shared realization helpers
# ----------------------------------------------------------------------
def _precedence_window(
    application: Application, order: Sequence[int], task: int
) -> Tuple[int, int]:
    """The precedence-feasible insertion window ``(lo, hi)`` of ``task``.

    ``order`` must not contain ``task``.  Position ``p`` is feasible when
    every ancestor of ``task`` sits before ``p`` and every descendant at
    or after ``p``.
    """
    index = application.reachability()
    ancestors = index.ancestors_mask(task)
    descendants = index.descendants_mask(task)
    bit = index.positions
    lo, hi = 0, len(order)
    for pos, other in enumerate(order):
        b = bit[other]
        if ancestors >> b & 1:
            lo = pos + 1
        elif descendants >> b & 1 and pos < hi:
            hi = pos
    if lo > hi:
        raise InfeasibleMoveError(
            f"task {task} has no feasible position in the software order"
        )
    return lo, hi


def _contexts_ok(
    solution: Solution, rc_name: str, task: int, before: int, after: int
) -> bool:
    """True when contexts ``[0, before)`` of the DRLC hold no descendant
    of ``task`` and contexts ``[after, end)`` no ancestor (section 3.3:
    every node of a context precedes every node of the following ones).
    Joining context ``k`` needs ``(k, k + 1)``, spawning a context at
    ``p`` needs ``(p, p)``."""
    index = solution.application.reachability()
    ancestors = index.ancestors_mask(task)
    descendants = index.descendants_mask(task)
    bit = index.positions
    for j, members in enumerate(solution.contexts(rc_name)):
        if j < before:
            mask = descendants
        elif j >= after:
            mask = ancestors
        else:
            continue
        for m in members:
            if mask >> bit[m] & 1:
                return False
    return True


def _place_on_destination(
    solution: Solution, task: int, dest_task: int, rng: random.Random
) -> str:
    """Reassign ``task`` to the resource currently hosting ``dest_task``.

    Shared by m2 and m3.  The task is detached first so all indices are
    computed on the post-removal layout.  Returns a short realization
    tag for statistics.
    """
    app = solution.application
    dest_resource_name = solution.resource_name_of(dest_task)
    dest_resource = solution.architecture.resource(dest_resource_name)

    if isinstance(dest_resource, Processor):
        solution.unassign(task)
        order = solution.software_order(dest_resource_name)
        target = order.index(dest_task)
        lo, hi = _precedence_window(app, order, task)
        position = min(max(target, lo), hi)
        solution.assign_to_processor(task, dest_resource_name, position)
        return "to_sw"

    if isinstance(dest_resource, ReconfigurableCircuit):
        if not app.task(task).hardware_capable:
            raise InfeasibleMoveError(
                f"task {task} has no hardware implementation"
            )
        solution.unassign(task)
        where = solution.context_of(dest_task)
        assert where is not None, "destination task must sit in a context"
        _, k = where
        clbs = solution.task_clbs(task)
        used = solution.context_clbs(dest_resource_name, k)
        if dest_resource.fits(used, clbs):
            if not _contexts_ok(solution, dest_resource_name, task, k, k + 1):
                raise InfeasibleMoveError(
                    f"task {task} cannot join context {k}: order violation"
                )
            solution.assign_to_context(task, dest_resource_name, k)
            return "to_ctx"
        # Section 4.3: spawn a new context when the destination context
        # cannot host the task; it is inserted right after it.
        if not dest_resource.fits(0, clbs):
            raise InfeasibleMoveError(
                f"task {task} does not fit device {dest_resource_name!r}"
            )
        spawn_at = k + 1
        if not _contexts_ok(solution, dest_resource_name, task, spawn_at, spawn_at):
            raise InfeasibleMoveError(
                f"task {task} cannot spawn a context at {spawn_at}: order violation"
            )
        solution.spawn_context(task, dest_resource_name, spawn_at)
        return "spawn_ctx"

    if isinstance(dest_resource, Asic):
        if not app.task(task).hardware_capable:
            raise InfeasibleMoveError(
                f"task {task} has no hardware implementation"
            )
        solution.unassign(task)
        solution.assign_to_asic(task, dest_resource_name)
        return "to_asic"

    raise InfeasibleMoveError(
        f"unsupported destination resource {dest_resource_name!r}"
    )


# ----------------------------------------------------------------------
# concrete moves
# ----------------------------------------------------------------------
class ReorderMove(Move):
    """m1: move a software task right before the destination task."""

    name = "m1_reorder"

    def __init__(self, task: int, dest_task: int) -> None:
        super().__init__()
        self.task = task
        self.dest_task = dest_task

    def _realize(self, solution: Solution) -> None:
        proc_name = solution.resource_name_of(self.task)
        if solution.resource_name_of(self.dest_task) != proc_name:
            raise InfeasibleMoveError("m1 requires both tasks on one processor")
        order = solution.software_order(proc_name)
        current = order.index(self.task)
        reduced = order[:current] + order[current + 1:]
        target = reduced.index(self.dest_task)
        lo, hi = _precedence_window(solution.application, reduced, self.task)
        position = min(max(target, lo), hi)
        if position == current:
            # The clamp landed back on the current position: take the
            # nearest feasible different one instead, so chain-heavy
            # graphs do not waste most m1 draws.
            if lo == hi:
                raise InfeasibleMoveError(
                    "m1: the precedence window admits a single position"
                )
            position = current + 1 if current + 1 <= hi else current - 1
        solution.assign_to_processor(self.task, proc_name, position)


class ReassignMove(Move):
    """m2: move the source task to the destination task's resource."""

    name = "m2_reassign"

    def __init__(self, task: int, dest_task: int, rng: random.Random) -> None:
        super().__init__()
        self.task = task
        self.dest_task = dest_task
        self._rng = rng

    def _realize(self, solution: Solution) -> None:
        src = solution.resource_name_of(self.task)
        dst = solution.resource_name_of(self.dest_task)
        src_ctx = solution.context_of(self.task)
        dst_ctx = solution.context_of(self.dest_task)
        if src == dst and src_ctx == dst_ctx:
            raise InfeasibleMoveError("m2 requires different (context) resources")
        _place_on_destination(solution, self.task, self.dest_task, self._rng)


class ImplementationMove(Move):
    """mImpl: re-draw the area/time variant of a hardware task."""

    name = "m_impl"

    def __init__(self, task: int, new_choice: int) -> None:
        super().__init__()
        self.task = task
        self.new_choice = new_choice

    def _realize(self, solution: Solution) -> None:
        where = solution.context_of(self.task)
        on_asic = isinstance(solution.resource_of(self.task), Asic)
        if where is None and not on_asic:
            raise InfeasibleMoveError("mImpl applies to hardware tasks only")
        if solution.implementation_choice(self.task) == self.new_choice:
            raise InfeasibleMoveError("mImpl drew the current implementation")
        task = solution.application.task(self.task)
        new_impl = task.implementation(self.new_choice)
        if where is not None:
            rc_name, k = where
            rc = solution.architecture.resource(rc_name)
            others = solution.context_clbs(rc_name, k) - solution.task_clbs(self.task)
            if not rc.fits(others, new_impl.clbs):
                raise InfeasibleMoveError(
                    f"implementation {new_impl.name!r} overflows context {k}"
                )
        solution.set_implementation_choice(self.task, self.new_choice)


class OffloadMove(Move):
    """mOffload: place a hardware-capable task on a DRLC directly.

    Joins a random existing context (capacity and precedence allowing)
    or spawns a new context at a random precedence-feasible position.
    Keeps the hardware side reachable even when it is empty.
    """

    name = "m_offload"

    def __init__(self, task: int, rc_name: str, rng: random.Random) -> None:
        super().__init__()
        self.task = task
        self.rc_name = rc_name
        self._rng = rng
        # Decision cached on first realization so apply/undo/apply
        # replays the exact same mutation (needed by tabu search).
        self._decision: Optional[Tuple[str, int]] = None

    def _realize(self, solution: Solution) -> None:
        app = solution.application
        if not app.task(self.task).hardware_capable:
            raise InfeasibleMoveError(f"task {self.task} cannot run in hardware")
        rc = solution.architecture.resource(self.rc_name)
        if not isinstance(rc, ReconfigurableCircuit):
            raise InfeasibleMoveError(f"{self.rc_name!r} is not a DRLC")
        solution.unassign(self.task)
        if self._decision is None:
            self._decision = self._decide(solution, rc)
        action, index = self._decision
        if action == "join":
            solution.assign_to_context(self.task, self.rc_name, index)
        else:
            solution.spawn_context(self.task, self.rc_name, index)

    def _candidates(
        self, solution: Solution, rc: ReconfigurableCircuit
    ) -> Tuple[List[int], List[int]]:
        """The contexts the task can join and the positions it can spawn
        a context at (post-unassign state; no spawn position when the
        task does not fit an empty device).

        One pass over the contexts finds ``first_desc``, the first
        context holding a descendant of the task (``len`` if none), and
        ``last_anc``, the last one holding an ancestor (-1 if none): by
        :func:`_contexts_ok`, joining ``k`` is order-feasible exactly for
        ``last_anc <= k <= first_desc`` and spawning at ``p`` for
        ``last_anc < p <= first_desc``."""
        clbs = solution.task_clbs(self.task)
        contexts = solution.contexts(self.rc_name)
        index = solution.application.reachability()
        ancestors = index.ancestors_mask(self.task)
        descendants = index.descendants_mask(self.task)
        bit = index.positions
        first_desc = len(contexts)
        last_anc = -1
        for k, members in enumerate(contexts):
            mask = 0
            for m in members:
                mask |= 1 << bit[m]
            if ancestors & mask:
                last_anc = k
            if descendants & mask and first_desc == len(contexts):
                first_desc = k
        join = [
            k
            for k in range(max(last_anc, 0), min(first_desc + 1, len(contexts)))
            if rc.fits(solution.context_clbs(self.rc_name, k), clbs)
        ]
        if not rc.fits(0, clbs):
            return join, []
        return join, list(range(last_anc + 1, first_desc + 1))

    def _decide(
        self, solution: Solution, rc: ReconfigurableCircuit
    ) -> Tuple[str, int]:
        """Pick join-vs-spawn and the target index (post-unassign state)."""
        join_candidates, spawn_candidates = self._candidates(solution, rc)
        if join_candidates and self._rng.random() < 0.5:
            return ("join", join_candidates[self._rng.randrange(len(join_candidates))])
        if spawn_candidates:
            return (
                "spawn",
                spawn_candidates[self._rng.randrange(len(spawn_candidates))],
            )
        if join_candidates:
            return ("join", join_candidates[self._rng.randrange(len(join_candidates))])
        raise InfeasibleMoveError(
            f"no feasible context position for task {self.task}"
        )


class RemoveResourceMove(Move):
    """m3: drop a single-task resource, rehoming its task."""

    name = "m3_remove_resource"

    def __init__(self, dest_task: int, rng: random.Random) -> None:
        super().__init__()
        self.dest_task = dest_task
        self._rng = rng
        self._picked: Optional[Tuple[str, int]] = None  # replay determinism
        self._arch_order: Optional[List[str]] = None

    def _singleton_resources(
        self, solution: Solution
    ) -> List[Tuple[str, Optional[int]]]:
        """Removable resources: hosting exactly one task (paired with
        that task) or none at all (paired with ``None``).  Empty
        resources are removable directly — without this, a resource
        drained by m2 moves could never leave the system and
        architecture exploration would only ever grow."""
        arch = solution.architecture
        found: List[Tuple[str, Optional[int]]] = []
        keep_processor = len(arch.processors()) <= 1
        for proc in arch.processors():
            order = solution.software_order(proc.name)
            if len(order) == 0 and not keep_processor:
                found.append((proc.name, None))
            elif len(order) == 1 and not keep_processor:
                found.append((proc.name, order[0]))
        for rc in arch.reconfigurable_circuits():
            tasks = [t for ctx in solution.contexts(rc.name) for t in ctx]
            if len(tasks) == 0:
                found.append((rc.name, None))
            elif len(tasks) == 1:
                found.append((rc.name, tasks[0]))
        for asic in arch.asics():
            tasks = solution.asic_tasks(asic.name)
            if len(tasks) == 0:
                found.append((asic.name, None))
            elif len(tasks) == 1:
                found.append((asic.name, tasks[0]))
        return found

    def _realize(self, solution: Solution) -> None:
        candidates = self._singleton_resources(solution)
        candidates = [
            (name, task)
            for name, task in candidates
            if solution.resource_name_of(self.dest_task) != name
        ]
        if not candidates:
            raise InfeasibleMoveError("m3 found no removable resource")
        if self._picked is None or self._picked not in candidates:
            self._picked = candidates[self._rng.randrange(len(candidates))]
        name, task = self._picked
        self._arch_order = solution.architecture.resource_names()
        if task is not None:
            _place_on_destination(solution, task, self.dest_task, self._rng)
        solution.detach_resource(name)

    def undo(self, solution: Solution) -> None:
        super().undo(solution)
        # Resource enumeration order is observable (proposal draws
        # iterate it): the rollback re-attaches the removed resource
        # last, so put it back where it was — apply + undo is then
        # side-effect-free and a rejected move leaves the next
        # proposal's draws unchanged.
        solution.architecture.restore_resource_order(self._arch_order)


class CreateResourceMove(Move):
    """m4: instantiate a catalog resource and move the task onto it.

    The new resource's name is drawn from the move's own RNG on first
    realization and cached, so apply/undo/apply replays the exact same
    mutation (tabu relies on that) and a rejected creation leaves **no
    trace** in the architecture — unlike a shared counter, whose advance
    by discarded candidates would leak into later names.  Names stay
    unique across a run (different moves draw different tokens), which
    the delta-patching engine's caches assume.
    Without an RNG the move falls back to the architecture's
    counter-based ``fresh_name``.
    """

    name = "m4_create_resource"

    def __init__(
        self,
        task: int,
        factory: Callable[[str], Resource],
        prefix: str = "res",
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__()
        self.task = task
        self.factory = factory
        self.prefix = prefix
        self._rng = rng
        self._name: Optional[str] = None

    def _pick_name(self, solution: Solution) -> str:
        arch = solution.architecture
        if self._name is not None and self._name not in arch:
            return self._name
        if self._rng is None:
            self._name = arch.fresh_name(self.prefix)
            return self._name
        while True:
            candidate = f"{self.prefix}_{self._rng.getrandbits(48):012x}"
            if candidate not in arch:
                self._name = candidate
                return candidate

    def _realize(self, solution: Solution) -> None:
        resource = self.factory(self._pick_name(solution))
        task = solution.application.task(self.task)
        if not isinstance(resource, Processor) and not task.hardware_capable:
            raise InfeasibleMoveError(
                f"task {task.name!r} cannot run on hardware resource"
            )
        # Attaching is journaled: a rollback detaches the resource again.
        solution.attach_resource(resource)
        if isinstance(resource, Processor):
            solution.unassign(self.task)
            solution.assign_to_processor(self.task, resource.name)
        elif isinstance(resource, ReconfigurableCircuit):
            if not resource.fits(0, solution.task_clbs(self.task)):
                raise InfeasibleMoveError(
                    f"task {task.name!r} does not fit new device {resource.name!r}"
                )
            solution.unassign(self.task)
            solution.spawn_context(self.task, resource.name)
        elif isinstance(resource, Asic):
            solution.unassign(self.task)
            solution.assign_to_asic(self.task, resource.name)
        else:  # pragma: no cover - defensive
            raise InfeasibleMoveError(
                f"catalog produced unsupported resource {type(resource).__name__}"
            )


# ----------------------------------------------------------------------
# generation
# ----------------------------------------------------------------------
class MoveStats:
    """Per-move-type proposal/acceptance counters."""

    def __init__(self) -> None:
        self.proposed: Dict[str, int] = {}
        self.infeasible: Dict[str, int] = {}
        self.accepted: Dict[str, int] = {}
        self.rejected: Dict[str, int] = {}

    def _bump(self, table: Dict[str, int], name: str) -> None:
        table[name] = table.get(name, 0) + 1

    def record_proposed(self, name: str) -> None:
        self._bump(self.proposed, name)

    def record_infeasible(self, name: str) -> None:
        self._bump(self.infeasible, name)

    def record_accepted(self, name: str) -> None:
        self._bump(self.accepted, name)

    def record_rejected(self, name: str) -> None:
        self._bump(self.rejected, name)

    def summary(self) -> str:
        names = sorted(
            set(self.proposed) | set(self.infeasible)
            | set(self.accepted) | set(self.rejected)
        )
        parts = []
        for name in names:
            parts.append(
                f"{name}: proposed={self.proposed.get(name, 0)} "
                f"infeasible={self.infeasible.get(name, 0)} "
                f"accepted={self.accepted.get(name, 0)} "
                f"rejected={self.rejected.get(name, 0)}"
            )
        return "\n".join(parts)


class MoveGenerator:
    """Draws moves following the paper's selection rule.

    ``p_zero`` is the probability of drawing the special index 0 for
    the source (m3) or destination (m4); the paper sets it to 0 when the
    architecture is fixed.  ``p_impl`` is the probability of proposing
    an implementation re-draw instead of a task move.
    """

    def __init__(
        self,
        application: Application,
        p_zero: float = 0.0,
        p_impl: float = 0.15,
        p_offload: float = 0.10,
        catalog: Optional[Sequence[Callable[[str], Resource]]] = None,
    ) -> None:
        if not 0.0 <= p_zero < 1.0:
            raise ConfigurationError("p_zero must lie in [0, 1)")
        if not 0.0 <= p_impl < 1.0:
            raise ConfigurationError("p_impl must lie in [0, 1)")
        if not 0.0 <= p_offload < 1.0:
            raise ConfigurationError("p_offload must lie in [0, 1)")
        if p_zero > 0.0 and not catalog:
            raise ConfigurationError(
                "architecture moves (p_zero > 0) need a resource catalog"
            )
        self.application = application
        self.p_zero = p_zero
        self.p_impl = p_impl
        self.p_offload = p_offload
        self.catalog = list(catalog) if catalog else []
        self._tasks = sorted(application.task_indices())
        self._hw_capable = [
            t.index for t in application.tasks() if t.hardware_capable
        ]

    # ------------------------------------------------------------------
    def propose(self, solution: Solution, rng: random.Random) -> Move:
        """Draw one move; raises :class:`InfeasibleMoveError` when the
        draw denotes "no move" (e.g. both tasks in one context)."""
        special = rng.random()
        if special < self.p_impl:
            return self._propose_impl(solution, rng)
        if special < self.p_impl + self.p_offload:
            return self._propose_offload(solution, rng)

        source = 0 if rng.random() < self.p_zero else self._draw_task(rng)
        dest = 0 if rng.random() < self.p_zero else self._draw_task(rng)

        if source == 0 and dest == 0:
            raise InfeasibleMoveError("drew 0 for both source and destination")
        if source == 0:
            return RemoveResourceMove(dest_task=dest - 1, rng=rng)
        if dest == 0:
            factory = self.catalog[rng.randrange(len(self.catalog))]
            return CreateResourceMove(task=source - 1, factory=factory, rng=rng)

        vs, vd = source - 1, dest - 1
        if vs == vd:
            raise InfeasibleMoveError("source equals destination")
        src_name = solution.resource_name_of(vs)
        dst_name = solution.resource_name_of(vd)
        if src_name == dst_name:
            src_ctx = solution.context_of(vs)
            if src_ctx is None and isinstance(
                solution.architecture.resource(src_name), Processor
            ):
                return ReorderMove(task=vs, dest_task=vd)
            if src_ctx is not None and src_ctx != solution.context_of(vd):
                return ReassignMove(task=vs, dest_task=vd, rng=rng)
            # Same context or same ASIC: the paper performs no move.
            raise InfeasibleMoveError("tasks share a partial-order resource")
        return ReassignMove(task=vs, dest_task=vd, rng=rng)

    def _draw_task(self, rng: random.Random) -> int:
        """1-based task draw (0 is reserved for resource moves)."""
        return 1 + self._tasks[rng.randrange(len(self._tasks))]

    def _propose_offload(self, solution: Solution, rng: random.Random) -> Move:
        rcs = solution.architecture.reconfigurable_circuits()
        if not rcs or not self._hw_capable:
            raise InfeasibleMoveError("no DRLC or no hardware-capable task")
        task = self._hw_capable[rng.randrange(len(self._hw_capable))]
        rc = rcs[rng.randrange(len(rcs))]
        return OffloadMove(task=task, rc_name=rc.name, rng=rng)

    def _propose_impl(self, solution: Solution, rng: random.Random) -> Move:
        on_hw = set(solution.hardware_tasks())
        hw_tasks = [t for t in self._hw_capable if t in on_hw]
        if not hw_tasks:
            raise InfeasibleMoveError("no hardware task for mImpl")
        task_index = hw_tasks[rng.randrange(len(hw_tasks))]
        task = self.application.task(task_index)
        if task.num_implementations < 2:
            raise InfeasibleMoveError("task has a single implementation")
        current = solution.implementation_choice(task_index)
        choice = rng.randrange(task.num_implementations - 1)
        if choice >= current:
            choice += 1
        return ImplementationMove(task=task_index, new_choice=choice)
