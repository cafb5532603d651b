"""Run-scoped telemetry: counters, gauges, timers and structured events.

One :class:`Telemetry` recorder accompanies a run (a strategy search, a
runner job, a façade request).  Layers feed it three kinds of data:

* **events** — append-only structured records (``{"ts": ..., "kind":
  ..., **payload}``) with monotonic timestamps, serialized as JSONL;
* **counters / gauges** — cheap integers and scalars (engine memo hits,
  order repairs, delta sizes);
* **timers** — per-phase wall-clock accumulators fed by
  :meth:`Telemetry.phase` spans (``propose`` / ``evaluate`` /
  ``accept`` ...).

Determinism contract: *every* wall-clock quantity lives either under the
reserved ``ts`` key or under a key ending in ``_s``.  :func:`strip_times`
removes exactly those keys (recursively), so a fixed-seed event stream is
byte-identical across runs and across ``jobs=N`` once stripped — pinned
by ``tests/obs/test_telemetry.py``.

The disabled path is :data:`NULL`, a shared :class:`NullTelemetry`
singleton whose methods are allocation-free no-ops; hot loops guard
payload construction with ``if telemetry.enabled:`` so a disabled run
does no extra work at all.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional, Sequence, TextIO

from repro.errors import TelemetryError

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "NULL",
    "NullTelemetry",
    "Telemetry",
    "canonical_stream",
    "format_summary_table",
    "load_events",
    "strip_times",
    "summarize_events",
    "validate_events",
]

#: Version stamp written in the ``run_header`` event of every JSONL
#: stream; bump when the envelope (header/summary framing, reserved
#: keys) changes shape.
EVENT_SCHEMA_VERSION = 1

#: Keys every event record must carry.
_REQUIRED_KEYS = ("ts", "kind")

#: Keys an event may not use for payload data (reserved by the merge
#: and framing layers).
_RESERVED_KEYS = ("ts", "kind", "job", "tag")


class _NullSpan:
    """Reusable no-op context manager (one shared instance, no state)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """Disabled recorder: every method is an allocation-free no-op.

    ``enabled`` is ``False`` so instrumented code can skip payload
    construction entirely (``if telemetry.enabled: telemetry.event(...)``).
    Use the module-level :data:`NULL` singleton; there is no reason to
    construct more instances.
    """

    __slots__ = ()

    enabled = False

    def event(self, kind: str, **payload: Any) -> None:
        pass

    def count(self, name: str, value: int = 1) -> None:
        pass

    def counts(self, values: Dict[str, int], prefix: str = "") -> None:
        pass

    def gauge(self, name: str, value: Any) -> None:
        pass

    def phase(self, name: str) -> _NullSpan:
        return _NULL_SPAN


#: The shared disabled recorder.  Strategies and engines default to it.
NULL = NullTelemetry()


class _PhaseSpan:
    """Accumulates elapsed wall-clock into ``telemetry.timers[name]``."""

    __slots__ = ("_telemetry", "_name", "_start")

    def __init__(self, telemetry: "Telemetry", name: str) -> None:
        self._telemetry = telemetry
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_PhaseSpan":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> bool:
        elapsed = time.perf_counter() - self._start
        timers = self._telemetry.timers
        key = self._name
        timers[key] = timers.get(key, 0.0) + elapsed
        return False


class Telemetry:
    """Run-scoped recorder for events, counters, gauges and phase timers.

    Parameters
    ----------
    label:
        Human-readable run label written in the ``run_header`` event.
    step_interval:
        Strategies emit a ``step`` event every ``step_interval``
        iterations (plus the first and last); 0 disables step sampling
        while keeping begin/end events.
    """

    enabled = True

    def __init__(self, label: Optional[str] = None, step_interval: int = 100) -> None:
        self.label = label
        self.step_interval = int(step_interval)
        self.events: List[Dict[str, Any]] = []
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, Any] = {}
        #: Phase name -> accumulated seconds.  Keys are suffixed ``_s``
        #: by :meth:`phase` so :func:`strip_times` drops them wholesale.
        self.timers: Dict[str, float] = {}

    # -- recording -----------------------------------------------------
    def event(self, kind: str, **payload: Any) -> None:
        """Append a structured event stamped with a monotonic time."""
        rec: Dict[str, Any] = {"ts": time.monotonic(), "kind": kind}
        rec.update(payload)
        self.events.append(rec)

    def count(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def counts(self, values: Dict[str, int], prefix: str = "") -> None:
        """Merge a counter dict (e.g. an engine's ``telemetry_counters()``)."""
        counters = self.counters
        for name, value in values.items():
            key = prefix + name
            counters[key] = counters.get(key, 0) + value

    def gauge(self, name: str, value: Any) -> None:
        self.gauges[name] = value

    def phase(self, name: str) -> _PhaseSpan:
        """Context manager timing one phase; accumulates ``<name>_s``."""
        return _PhaseSpan(self, name + "_s")

    # -- export / merge ------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Counters/gauges/timers as one JSON-safe dict."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "timers": dict(sorted(self.timers.items())),
        }

    def export(self) -> Dict[str, Any]:
        """Picklable payload for crossing a process boundary."""
        out = self.snapshot()
        out["label"] = self.label
        out["events"] = list(self.events)
        return out

    def job_config(self) -> Dict[str, Any]:
        """Plain-dict config a worker uses to build its own recorder."""
        return {"step_interval": self.step_interval}

    def absorb(
        self,
        index: int,
        tag: Any,
        payload: Optional[Dict[str, Any]],
    ) -> None:
        """Merge one job's exported stream into this recorder.

        Events are re-emitted tagged with ``job`` (submission index) and
        ``tag``; counters and timers are summed; gauges are last-write
        in absorb order.  Callers absorb jobs in index order, which
        makes the merged stream deterministic regardless of how many
        workers raced.
        """
        if not payload:
            return
        for ev in payload.get("events", ()):
            rec = dict(ev)
            rec["job"] = index
            if tag is not None:
                rec.setdefault("tag", tag)
            self.events.append(rec)
        self.counts(payload.get("counters", {}))
        for name, value in payload.get("timers", {}).items():
            self.timers[name] = self.timers.get(name, 0.0) + value
        self.gauges.update(payload.get("gauges", {}))

    # -- serialization -------------------------------------------------
    def header_record(self) -> Dict[str, Any]:
        return {
            "ts": time.monotonic(),
            "kind": "run_header",
            "schema_version": EVENT_SCHEMA_VERSION,
            "label": self.label,
            "step_interval": self.step_interval,
        }

    def summary_record(self) -> Dict[str, Any]:
        rec: Dict[str, Any] = {"ts": time.monotonic(), "kind": "run_summary"}
        rec.update(self.snapshot())
        return rec

    def write_jsonl(self, stream: TextIO) -> int:
        """Write header + events + summary as JSONL; returns line count."""
        records = [self.header_record()]
        records.extend(self.events)
        records.append(self.summary_record())
        for rec in records:
            stream.write(json.dumps(rec, sort_keys=True))
            stream.write("\n")
        return len(records)

    def write_jsonl_path(self, path: str) -> int:
        with open(path, "w", encoding="utf-8") as handle:
            return self.write_jsonl(handle)


# ----------------------------------------------------------------------
# Stream utilities: load / validate / strip / summarize.
# ----------------------------------------------------------------------
def load_events(path: str) -> List[Dict[str, Any]]:
    """Parse a telemetry JSONL file into a list of event dicts."""
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError as exc:
                raise TelemetryError(f"{path}:{lineno}: invalid JSON: {exc}")
            events.append(rec)
    return events


def validate_events(events: Sequence[Dict[str, Any]]) -> None:
    """Check a stream against the event schema; raises TelemetryError.

    Rules: every record is a JSON object with a numeric ``ts`` and a
    non-empty string ``kind``; the first record is a ``run_header``
    carrying a known ``schema_version``; all values are JSON-safe.
    """
    if not events:
        raise TelemetryError("empty telemetry stream")
    for pos, rec in enumerate(events):
        if not isinstance(rec, dict):
            raise TelemetryError(f"event {pos}: not a JSON object")
        for key in _REQUIRED_KEYS:
            if key not in rec:
                raise TelemetryError(f"event {pos}: missing required key {key!r}")
        if not isinstance(rec["ts"], (int, float)) or isinstance(rec["ts"], bool):
            raise TelemetryError(f"event {pos}: 'ts' must be a number")
        kind = rec["kind"]
        if not isinstance(kind, str) or not kind:
            raise TelemetryError(f"event {pos}: 'kind' must be a non-empty string")
        try:
            json.dumps(rec)
        except (TypeError, ValueError) as exc:
            raise TelemetryError(f"event {pos}: not JSON-serializable: {exc}")
    head = events[0]
    if head["kind"] != "run_header":
        raise TelemetryError("stream must start with a 'run_header' event")
    if head.get("schema_version") != EVENT_SCHEMA_VERSION:
        raise TelemetryError(
            "unknown schema_version "
            f"{head.get('schema_version')!r} (expected {EVENT_SCHEMA_VERSION})"
        )


def strip_times(obj: Any) -> Any:
    """Drop every wall-clock field: ``ts`` keys and keys ending ``_s``.

    Applied recursively; what survives must be byte-identical across
    fixed-seed runs (the determinism contract of this module).
    """
    if isinstance(obj, dict):
        return {
            key: strip_times(value)
            for key, value in obj.items()
            if key != "ts" and not key.endswith("_s")
        }
    if isinstance(obj, (list, tuple)):
        return [strip_times(value) for value in obj]
    return obj


def canonical_stream(events: Sequence[Dict[str, Any]]) -> str:
    """Timestamp-stripped, key-sorted JSONL — the comparison form used
    by the determinism tests and CI smoke."""
    return "\n".join(
        json.dumps(strip_times(rec), sort_keys=True) for rec in events
    )


def summarize_events(events: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate a loaded stream into per-kind counts, merged counters
    and timers, and per-job search outcomes."""
    kinds: Dict[str, int] = {}
    counters: Dict[str, int] = {}
    timers: Dict[str, float] = {}
    jobs: Dict[str, Dict[str, Any]] = {}
    label = None
    for rec in events:
        kind = rec.get("kind", "?")
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind == "run_header":
            label = rec.get("label")
        elif kind == "run_summary":
            for name, value in rec.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
            for name, value in rec.get("timers", {}).items():
                timers[name] = timers.get(name, 0.0) + value
        elif kind == "search_end":
            job_key = _job_key(rec)
            jobs[job_key] = {
                "strategy": rec.get("strategy"),
                "best_cost": rec.get("best_cost"),
                "iterations": rec.get("iterations"),
                "evaluations": rec.get("evaluations"),
                "runtime_s": rec.get("runtime_s"),
            }
    return {
        "label": label,
        "events": len(events),
        "kinds": dict(sorted(kinds.items())),
        "counters": dict(sorted(counters.items())),
        "timers": dict(sorted(timers.items())),
        "jobs": jobs,
    }


def _job_key(rec: Dict[str, Any]) -> str:
    parts = []
    if "job" in rec:
        parts.append(f"job{rec['job']}")
    if "tag" in rec:
        parts.append(str(rec["tag"]))
    return ":".join(parts) if parts else "run"


def format_summary_table(summary: Dict[str, Any]) -> str:
    """Render :func:`summarize_events` output as an aligned text table."""
    lines = [f"telemetry summary — {summary.get('label') or 'unlabeled run'}"]
    lines.append(f"events: {summary['events']}")
    lines.append(f"{'kind':<24} {'count':>8}")
    for kind, count in summary["kinds"].items():
        lines.append(f"{kind:<24} {count:>8}")
    if summary["jobs"]:
        lines.append("")
        lines.append(
            f"{'job':<20} {'strategy':<14} {'best cost':>12} "
            f"{'iters':>8} {'evals':>9} {'time (s)':>9}"
        )
        for key, row in summary["jobs"].items():
            best = row.get("best_cost")
            runtime = row.get("runtime_s")
            best_text = "-" if best is None else format(best, ".3f")
            runtime_text = "-" if runtime is None else format(runtime, ".2f")
            lines.append(
                f"{key:<20} {str(row.get('strategy') or '?'):<14} "
                f"{best_text:>12} "
                f"{row.get('iterations') or 0:>8} "
                f"{row.get('evaluations') or 0:>9} "
                f"{runtime_text:>9}"
            )
    if summary["counters"]:
        lines.append("")
        lines.append(f"{'counter':<40} {'value':>12}")
        for name, value in summary["counters"].items():
            lines.append(f"{name:<40} {value:>12}")
    if summary["timers"]:
        lines.append("")
        lines.append(f"{'phase':<40} {'seconds':>12}")
        for name, value in summary["timers"].items():
            lines.append(f"{name:<40} {value:>12.4f}")
    return "\n".join(lines)
