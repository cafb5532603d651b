"""Outside-in span tracer for the benchmark's traced run.

The tracer never edits the program: :meth:`Tracer.install` replaces
the public functions and methods of each layer (plus the store's one
atomic-write helper, to count bytes written) with thin wrappers that
record a span per call, and :meth:`Tracer.uninstall` puts the originals
back.  A span is ``[name id, start, end, parent index, request id]``;
spans stay in memory until :meth:`Tracer.write` dumps them at the end of
the run.  A layer's *self* time is its span's duration minus the time
covered by its child spans; *busy* time counts only the outermost span
of a name, so a subclass method that calls its base method is not
counted twice.

Only the benchmark's own process is traced.  Service workers run in
spawned processes; their layer figures come from the timestamps and
telemetry every ``JobRecord`` carries (see ``workloads.Runner._drain``).
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

perf_counter = time.perf_counter


class Tracer:
    """Span recorder plus the wrapper table of every traced layer."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.spans: List[list] = []
        self.tags: Dict[int, str] = {}
        self.stack: List[int] = []
        self.request = 0
        #: While set, wrappers call straight through (the benchmark's
        #: own correctness checks are not attributed to any layer).
        self.paused = False
        self.counters: Dict[str, float] = {}
        self.engine_counters: Dict[str, int] = {}
        self._engines: Dict[int, Any] = {}
        self._cross_members: set = set()
        self._patches: List[Tuple[Any, str, Any]] = []
        self.missing: List[str] = []

    # -- recording -----------------------------------------------------
    def name_id(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
        return index

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextlib.contextmanager
    def pause(self):
        """Run the enclosed block untraced."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def span(self, name: str):
        """Context manager recording one span (the benchmark's own
        request and phase boundaries)."""
        return _Span(self, self.name_id(name))

    def wrapped(
        self,
        original: Callable,
        name: str,
        errors: Tuple[type, ...] = (),
        on_result: Optional[Callable] = None,
        on_call: Optional[Callable] = None,
    ) -> Callable:
        """``original`` wrapped in a span named ``name``.

        ``errors`` are exception types counted as ``<name>.errors``;
        ``on_result(span index, result, args)`` runs after the span has
        closed, inside a ``bench.trace_hook`` span of its own so its
        cost is not charged to the caller; ``on_call(args)`` runs before
        the span opens (used to remember engine objects)."""
        tracer = self
        name_id = self.name_id(name)
        error_key = f"{name}.errors"

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return original(*args, **kwargs)
            if on_call is not None:
                on_call(args)
            spans = tracer.spans
            stack = tracer.stack
            index = len(spans)
            record = [name_id, 0.0, 0.0, stack[-1] if stack else -1,
                      tracer.request]
            spans.append(record)
            stack.append(index)
            record[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            except errors:
                record[2] = perf_counter()
                stack.pop()
                tracer.count(error_key)
                raise
            except BaseException:
                record[2] = perf_counter()
                stack.pop()
                raise
            record[2] = perf_counter()
            stack.pop()
            if on_result is not None:
                with tracer.span("bench.trace_hook"):
                    on_result(index, result, args)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def patch(self, owner: Any, attr: str, name: str, **options) -> None:
        """Wrap ``owner.attr``; a target the program no longer has is
        listed in :attr:`missing` and its layer reads 0 (``owner`` is
        ``None`` when :meth:`lookup` has listed it already)."""
        if owner is None:
            return
        namespace = owner.__dict__ if isinstance(owner, type) else vars(owner)
        if attr not in namespace:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        original = namespace[attr]
        setattr(owner, attr, self.wrapped(original, name, **options))
        self._patches.append((owner, attr, original))

    def lookup(self, module: str, name: Optional[str] = None) -> Any:
        """The program's module ``module``, or its attribute ``name``;
        ``None``, listed in :attr:`missing`, when the program no longer
        has it."""
        try:
            found = importlib.import_module(module)
        except ImportError:
            self.missing.append(module)
            return None
        if name is not None:
            found = getattr(found, name, None)
            if found is None:
                self.missing.append(f"{module}.{name}")
        return found

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- the layer table -----------------------------------------------
    def install(self) -> None:
        """Wrap the public entry points of every layer the benchmark
        attributes time to.  Every owner is looked up by name (the
        tracer is loaded before the program's path is known), so a
        layer a change deletes is listed as not traced instead of
        failing the run."""
        lookup = self.lookup
        facade = lookup("repro.api.facade")
        engine = lookup("repro.mapping.engine")
        store = lookup("repro.service.store")
        result_store = lookup("repro.service.store", "ResultStore")
        infeasible = lookup("repro.errors", "InfeasibleMoveError")
        move_errors = (infeasible,) if infeasible is not None else ()
        cross = lookup("repro.mapping.engine", "CrossChainEvaluator")
        service = lookup("repro.service.service", "ExplorationService")

        self.patch(facade, "explore", "api.facade.explore")
        self.patch(lookup("repro.api.facade", "ExplorationResponse"),
                   "to_json", "api.facade.to_json",
                   on_result=self._envelope_bytes)
        self.patch(facade, "resolve_request", "api.resolve.resolve_request")
        self.patch(facade, "run_search_jobs",
                   "search.runner.run_search_jobs")
        self.patch(lookup("repro.api.resolve"), "resolve_application",
                   "api.resolve.resolve_application")
        self.patch(lookup("repro.api.specs", "ExplorationRequest"),
                   "content_hash", "api.specs.content_hash")
        self.patch(store, "instance_info_for",
                   "service.store.instance_info_for")
        for method in ("create_record", "load_record", "write_record",
                       "put_response", "response_text"):
            self.patch(result_store, method, f"service.store.{method}",
                       on_result=self._created_bytes
                       if method == "create_record" else None)
        self.patch(result_store, "_atomic_write",
                   "service.store.atomic_write", on_result=self._written_bytes)
        self.patch(os, "fsync", "service.store.fsync")
        self.patch(service, "submit", "service.service.submit",
                   on_result=self._submit_status)
        self.patch(service, "result", "service.service.result")
        self.patch(lookup("repro.sa.explorer", "DesignSpaceExplorer"),
                   "search", "sa.explorer.search")
        self.patch(lookup("repro.sa.annealer", "SimulatedAnnealing"),
                   "search", "sa.annealer.search")
        self.patch(lookup("repro.sa.population", "PopulationAnnealer"),
                   "search", "sa.population.search")
        self.patch(lookup("repro.sa.moves", "MoveGenerator"), "propose",
                   "sa.moves.propose", errors=move_errors)
        for cls in _subclasses(lookup("repro.sa.moves", "Move")):
            for method in ("apply", "undo"):
                if method in cls.__dict__:
                    self.patch(cls, method, f"sa.moves.{method}",
                               errors=move_errors)
        self.patch(engine, "compile_instance",
                   "mapping.compiled.compile_instance")
        for cls in _subclasses(lookup("repro.mapping.engine", "EvaluationEngine")):
            if "evaluate" in cls.__dict__ and not getattr(
                cls.__dict__["evaluate"], "__isabstractmethod__", False
            ):
                self.patch(cls, "evaluate", "mapping.engine.evaluate",
                           on_call=self._remember_engine)
        self.patch(cross, "propose_moves", "mapping.engine.propose_moves",
                   on_call=self._remember_cross)
        self.patch(cross, "resolve", "mapping.engine.resolve")

    # -- hooks ---------------------------------------------------------
    def _envelope_bytes(self, index: int, text: str, args) -> None:
        self.count("api.facade.envelope_bytes", len(text.encode("utf-8")))
        self.count("api.facade.envelopes")

    def _written_bytes(self, index: int, result, args) -> None:
        """Every store write but row creation goes through one atomic
        write of a text (records, envelopes, instance documents)."""
        self.count("service.store.bytes_written", len(args[2].encode("utf-8")))

    def _created_bytes(self, index: int, result, args) -> None:
        """Row creation writes the new record's JSON directly; its size
        is recomputed from the record (serialization is deterministic)."""
        record, created = result
        if created:
            self.count("service.store.bytes_written", len(
                json.dumps(record.to_dict(), indent=2).encode("utf-8")))

    def _submit_status(self, index: int, outcome, args) -> None:
        status = outcome.status
        if status == "queued":
            status = "warm" if outcome.record.warm_start else "miss"
        self.tags[index] = status

    def _remember_engine(self, args) -> None:
        self._engines[id(args[0])] = args[0]

    def _remember_cross(self, args) -> None:
        cross = args[0]
        self._engines[id(cross)] = cross
        self._cross_members.update(
            id(member) for member in getattr(cross, "engines", ()))

    def harvest_engines(self) -> None:
        """Add the public ``telemetry_counters()`` of every engine seen
        since the last harvest to the run totals (engines of a
        cross-chain evaluator are read through the evaluator, once)."""
        for key, engine in self._engines.items():
            if key in self._cross_members:
                continue
            counters = getattr(engine, "telemetry_counters", dict)()
            for name, value in counters.items():
                self.engine_counters[name] = (
                    self.engine_counters.get(name, 0) + value
                )
        self._engines.clear()
        self._cross_members.clear()

    # -- aggregation ---------------------------------------------------
    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``/``busy_s`` over outermost spans of
        the name, ``self_s`` over all of them."""
        spans = self.spans
        child = [0.0] * len(spans)
        for record in spans:
            parent = record[3]
            if parent >= 0:
                child[parent] += record[2] - record[1]
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
            for name in self.names
        }
        for index, record in enumerate(spans):
            entry = out[self.names[record[0]]]
            duration = record[2] - record[1]
            entry["self_s"] += duration - child[index]
            if not self._nested_in_same(index):
                entry["calls"] += 1
                entry["busy_s"] += duration
        return out

    def _nested_in_same(self, index: int) -> bool:
        spans = self.spans
        name = spans[index][0]
        parent = spans[index][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    def self_by_status(self, name: str) -> Dict[str, float]:
        """``self_s`` of the spans named ``name`` split by their tag."""
        name_id = self._ids.get(name)
        out: Dict[str, float] = {}
        if name_id is None:
            return out
        child: Dict[int, float] = {}
        for record in self.spans:
            parent = record[3]
            if parent >= 0 and self.spans[parent][0] == name_id:
                child[parent] = child.get(parent, 0.0) + record[2] - record[1]
        for index, record in enumerate(self.spans):
            if record[0] != name_id:
                continue
            tag = self.tags.get(index, "other")
            out[tag] = out.get(tag, 0.0) + (
                record[2] - record[1] - child.get(index, 0.0)
            )
        return out

    def children_named(self, parent_name: str, child_name: str) -> Dict[str, int]:
        """Count of ``child_name`` spans below each tagged
        ``parent_name`` span, summed per tag."""
        parent_id = self._ids.get(parent_name)
        child_id = self._ids.get(child_name)
        out: Dict[str, int] = {}
        if parent_id is None or child_id is None:
            return out
        for record in self.spans:
            if record[0] != child_id:
                continue
            parent = record[3]
            while parent >= 0 and self.spans[parent][0] != parent_id:
                parent = self.spans[parent][3]
            if parent >= 0:
                tag = self.tags.get(parent, "other")
                out[tag] = out.get(tag, 0) + 1
        return out

    def request_self_sums(self, root_name: str) -> List[Tuple[float, float]]:
        """Per root span: ``(sum of the self times of the layer spans
        below it, root duration)``.  The root's own self time and the
        tracer's hooks are left out, so the two agree only when the
        traced layers account for the whole request."""
        root_id = self._ids.get(root_name)
        if root_id is None:
            return []
        skip = {root_id, self._ids.get("bench.trace_hook")}
        spans = self.spans
        child = [0.0] * len(spans)
        for record in spans:
            if record[3] >= 0:
                child[record[3]] += record[2] - record[1]
        root_of = [-1] * len(spans)
        sums: Dict[int, float] = {}
        for index, record in enumerate(spans):
            if record[0] == root_id:
                root_of[index] = index
            elif record[3] >= 0:
                root_of[index] = root_of[record[3]]
            root = root_of[index]
            if root >= 0 and record[0] not in skip:
                sums[root] = sums.get(root, 0.0) + (
                    record[2] - record[1] - child[index]
                )
        return [
            (total, spans[root][2] - spans[root][1])
            for root, total in sorted(sums.items())
        ]

    # -- output --------------------------------------------------------
    def write(self, path: str) -> None:
        """Dump every span as one JSON line
        ``{"name", "start", "end", "parent", "request"}``."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            for record in self.spans:
                out.write(json.dumps({
                    "name": names[record[0]],
                    "start": record[1],
                    "end": record[2],
                    "parent": record[3],
                    "request": record[4],
                }))
                out.write("\n")


class _Span:
    __slots__ = ("tracer", "name_id", "record")

    def __init__(self, tracer: Tracer, name_id: int) -> None:
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self) -> int:
        tracer = self.tracer
        index = len(tracer.spans)
        self.record = [self.name_id, 0.0, 0.0,
                       tracer.stack[-1] if tracer.stack else -1,
                       tracer.request]
        tracer.spans.append(self.record)
        tracer.stack.append(index)
        self.record[1] = perf_counter()
        return index

    def __exit__(self, *exc: Any) -> bool:
        self.record[2] = perf_counter()
        self.tracer.stack.pop()
        return False


def _subclasses(cls: Optional[type]) -> List[type]:
    if cls is None:
        return []
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out
