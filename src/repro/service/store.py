"""Content-addressed result store: persisted envelopes + record rows.

The store is the persistence layer of the exploration service.  Its
unit of identity is the **cache key**

    sha256(request.content_hash() + ":" + instance_hash)

where :meth:`~repro.api.specs.ExplorationRequest.content_hash` is the
SHA-256 of the canonical request JSON and ``instance_hash`` is the
SHA-256 of the *resolved* problem instance's canonical bundled document
(:func:`repro.io.content_digest`, the same digest
:func:`repro.bench.corpus.scenario_hash` assigns to corpus
scenarios).  The request hash alone would miss path-referencing
specs whose file content changed underneath the path; composing it with
the materialized instance binds the key to what would actually run.

On-disk layout (JSON files + atomic rename, no external database)::

    <root>/
      records/<key>.json    one JobRecord row per key (status, probe
                            history, timestamps, attempts, environment);
                            a ``running`` row is the job's claim
      results/<key>.json    the ExplorationResponse envelope, written
                            once when a job completes
      queue/<key>.ticket    pending work, an empty file (claiming
                            unlinks it)
      hits/<key>            the cache-hit log: one byte appended per hit
                            (created on first use)
      instances/<hash>.json the resolved instance document
      near/<structure>/<key> warm-start index marker: empty while the
                            job is unfinished, the record's instance
                            hash once a donor-kind job completes

Rows, instance documents and envelopes are written without ``indent``
(so CPython's C encoder writes them); readers parse any layout, so the
indented files of earlier versions still load, and a cache hit serves
an earlier version's indented envelope byte for byte.  Every write is
append-safe: new content goes to a uniquely named temp file in the same
directory and is atomically renamed over the target, so readers never
observe a torn record and two racing writers resolve to one winner.
Record *creation* publishes the complete row with ``os.link``, which
fails with ``EEXIST`` when the row exists: the store's one point of
mutual exclusion — exactly one of N racing submitters creates the row,
everyone else observes it (the dedupe guarantee of the service).  A row
is born complete: a cache miss files its instance document and near
marker and picks its warm-start donor first, so the published row
already carries ``structure_hash`` and ``warm_start`` and is not
rewritten before a worker claims it.  When a ``single``/``batch`` job
completes, its near marker is filled with the record's instance hash,
so the donor scan (:meth:`ResultStore.near_donors`) takes it without
reading its row.  A cache hit never rewrites its row: it appends to
``hits/<key>`` with ``O_APPEND``, so racing hits lose no count and a
hit racing ``gc`` cannot republish a deleted row.  A row's hit count
is its ``hits`` field (what earlier versions counted in place) plus
the log's length.  A ``claims/`` directory left by an earlier version
is never read and may be deleted.  Only this module touches files
under the root; the queue and the front door keep their policies.
The record/probe-history idiom follows the persistent mirror records of
Launchpad's ``distributionmirror.py`` (see SNIPPETS.md #3): each row
keeps its full state-transition history next to the current freshness
state.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import uuid
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.api.specs import (
    ExplorationRequest,
    ExplorationResponse,
    environment_stamp,
)
from repro.errors import ConfigurationError, ServiceError

__all__ = [
    "RECORD_FORMAT",
    "RECORD_SCHEMA_VERSION",
    "RECORD_STATES",
    "InstanceInfo",
    "JobRecord",
    "ResultStore",
    "compose_cache_key",
    "embed_files",
    "instance_hash_for",
    "instance_info_for",
]

RECORD_FORMAT = "exploration-record"
RECORD_SCHEMA_VERSION = 1

#: Record lifecycle: ``pending`` (queued, unclaimed) → ``running``
#: (claimed by a worker) → ``done`` (envelope persisted) or ``failed``
#: (error captured).  A stale ``running`` record is requeued back to
#: ``pending`` by :meth:`repro.service.jobs.JobQueue.requeue_stale`.
RECORD_STATES = ("pending", "running", "done", "failed")

#: Request kinds whose records can donate/receive warm-start seeds (one
#: fixed instance per run, so the best solution maps onto a near
#: instance; sweeps and portfolios vary the platform per job).
WARM_KINDS = ("single", "batch")

_HEX_DIGITS = frozenset("0123456789abcdef")


@dataclass(frozen=True)
class InstanceInfo:
    """Everything one resolution of a request's problem instance yields:
    the content digest (cache-key component), the structure-only digest
    (warm-start near-index key) and the canonical bundled document."""

    instance_hash: str
    structure_hash: str
    document: Dict[str, Any]


def instance_info_for(request: ExplorationRequest) -> InstanceInfo:
    """Resolve the request's problem instance once and digest it twice.

    ``instance_hash`` is :func:`repro.io.content_digest` of the
    canonical document (service cache keys and bench corpus identities
    share one digest vocabulary);
    ``structure_hash`` is :func:`repro.io.structure_digest` — topology
    plus resource kinds only, ignoring every numeric field — the key of
    the warm-start ``near/`` secondary index.  For sweep requests (whose
    per-cell platforms are derived from ``sizes``) both bind the base
    problem; the grid itself is covered by the request hash.
    """
    from repro.api.resolve import resolve_application, resolve_architecture
    from repro.io import (
        ProblemInstance,
        content_digest,
        instance_to_dict,
        structure_digest,
    )

    problem = resolve_application(request.application)
    architecture = resolve_architecture(
        request.architecture, bundled=problem.architecture
    )
    deadline = request.deadline_ms
    if deadline is None:
        deadline = problem.deadline_ms
    instance = ProblemInstance(
        application=problem.application,
        architecture=architecture,
        deadline_ms=deadline,
    )
    document = instance_to_dict(instance)
    return InstanceInfo(
        instance_hash=content_digest(document),
        structure_hash=structure_digest(document),
        document=document,
    )


def instance_hash_for(request: ExplorationRequest) -> str:
    """SHA-256 of the request's *resolved* problem instance (the
    cache-key component; see :func:`instance_info_for`)."""
    return instance_info_for(request).instance_hash


def embed_files(request: ExplorationRequest) -> ExplorationRequest:
    """``request`` with each file it names read once and embedded: an
    ``ApplicationSpec.path`` or ``ArchitectureSpec.path`` becomes that
    spec's ``document``.  The service stores and runs this form, so a
    job runs the bytes its key hashed wherever it is drained.  A request
    that names no file is returned as it is."""
    from repro.api.resolve import load_json_document

    specs = {}
    for name in ("application", "architecture"):
        spec = getattr(request, name)
        if spec is not None and spec.path is not None:
            specs[name] = replace(
                spec, path=None, document=load_json_document(spec.path, name)
            )
    return replace(request, **specs) if specs else request


def compose_cache_key(request_hash: str, instance_hash: str) -> str:
    """The store key: SHA-256 over both component digests."""
    return hashlib.sha256(
        f"{request_hash}:{instance_hash}".encode("ascii")
    ).hexdigest()


# ----------------------------------------------------------------------
# the record row
# ----------------------------------------------------------------------
@dataclass
class JobRecord:
    """One persisted row per cache key: state, provenance, history.

    ``history`` is the append-only probe log — every transition appends
    ``{"ts", "status", "worker"?, "error"?}``, so a record tells the
    whole story of its job (submitted, claimed, requeued after a crash,
    completed) without consulting any other file.
    """

    key: str
    request_hash: str
    instance_hash: str
    request: Dict[str, Any]
    status: str = "pending"
    created_ts: float = 0.0
    claimed_ts: Optional[float] = None
    completed_ts: Optional[float] = None
    attempts: int = 0
    hits: int = 0
    worker: Optional[str] = None
    error: Optional[str] = None
    environment: Dict[str, Any] = field(default_factory=environment_stamp)
    #: Counters/timers snapshot of the job's own telemetry recorder,
    #: absorbed at completion (``None`` until then).
    telemetry: Optional[Dict[str, Any]] = None
    #: Structure-only digest of the resolved instance (the ``near/``
    #: secondary-index key this record is filed under).
    structure_hash: Optional[str] = None
    #: Warm-start provenance, set when submit seeded this job from a
    #: donor record: ``{"donor", "delta", "repairs"}``.
    warm_start: Optional[Dict[str, Any]] = None
    history: List[Dict[str, Any]] = field(default_factory=list)

    def transition(
        self,
        status: str,
        worker: Optional[str] = None,
        error: Optional[str] = None,
        now: Optional[float] = None,
    ) -> None:
        """Move to ``status`` and append the probe-history entry."""
        if status not in RECORD_STATES:
            raise ConfigurationError(
                f"unknown record status {status!r}; "
                f"known: {list(RECORD_STATES)}"
            )
        now = time.time() if now is None else now
        self.status = status
        if status == "running":
            self.claimed_ts = now
            self.attempts += 1
            self.worker = worker
            self.error = None
        elif status in ("done", "failed"):
            self.completed_ts = now
            self.error = error
        else:  # pending (initial creation or requeue)
            self.worker = None
            self.error = error
        entry: Dict[str, Any] = {"ts": now, "status": status}
        if worker is not None:
            entry["worker"] = worker
        if error is not None:
            entry["error"] = error
        self.history.append(entry)

    # -- (de)serialization ---------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": RECORD_FORMAT,
            "schema_version": RECORD_SCHEMA_VERSION,
            "key": self.key,
            "request_hash": self.request_hash,
            "instance_hash": self.instance_hash,
            "status": self.status,
            "created_ts": self.created_ts,
            "claimed_ts": self.claimed_ts,
            "completed_ts": self.completed_ts,
            "attempts": self.attempts,
            "hits": self.hits,
            "worker": self.worker,
            "error": self.error,
            "environment": dict(self.environment),
            "telemetry": self.telemetry,
            "structure_hash": self.structure_hash,
            "warm_start": self.warm_start,
            "history": list(self.history),
            "request": self.request,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobRecord":
        if data.get("format") != RECORD_FORMAT:
            raise ServiceError(
                f"expected a {RECORD_FORMAT!r} document, "
                f"got {data.get('format')!r}"
            )
        version = data.get("schema_version")
        if not isinstance(version, int) or version > RECORD_SCHEMA_VERSION:
            raise ServiceError(
                f"unsupported record schema_version {version!r} "
                f"(this library understands <= {RECORD_SCHEMA_VERSION})"
            )
        status = data.get("status")
        if status not in RECORD_STATES:
            raise ServiceError(
                f"record {data.get('key')!r} has unknown status {status!r}"
            )
        return cls(
            key=data["key"],
            request_hash=data["request_hash"],
            instance_hash=data["instance_hash"],
            request=dict(data["request"]),
            status=status,
            created_ts=data.get("created_ts", 0.0),
            claimed_ts=data.get("claimed_ts"),
            completed_ts=data.get("completed_ts"),
            attempts=data.get("attempts", 0),
            hits=data.get("hits", 0),
            worker=data.get("worker"),
            error=data.get("error"),
            environment=dict(data.get("environment", {})),
            telemetry=data.get("telemetry"),
            structure_hash=data.get("structure_hash"),
            warm_start=data.get("warm_start"),
            history=list(data.get("history", [])),
        )


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
def _unlink_quietly(path: str) -> bool:
    """Unlink ``path``; False if it was already gone."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        return False
    return True


def _create_empty(path: str) -> bool:
    """Create an empty file at ``path``; False if one exists."""
    try:
        os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return False
    return True


def _compact_json(document: Any, sort_keys: bool = False) -> str:
    """The one encoding of rows and instance documents.  Without
    ``indent`` CPython runs its C encoder (any ``indent`` falls back to
    the pure-Python one), and compact separators keep rows small."""
    return json.dumps(document, separators=(",", ":"), sort_keys=sort_keys)


class ResultStore:
    """Filesystem-backed content-addressed store (records + envelopes).

    All methods are safe to call from any number of processes sharing
    ``root``: reads parse whole files (atomic-rename writes mean no torn
    state), record creation is ``os.link``-exclusive, and taking a queue
    ticket is a single ``unlink`` with exactly one winner.
    """

    RECORDS_DIR = "records"
    RESULTS_DIR = "results"
    QUEUE_DIR = "queue"
    #: Warm-start support: ``instances/<instance_hash>.json`` holds the
    #: resolved instance document; ``near/<structure_hash>/<key>``
    #: marker files index records by structure-only digest, so a submit
    #: can find completed runs on structurally-identical instances
    #: without scanning every record.
    INSTANCES_DIR = "instances"
    NEAR_DIR = "near"
    #: ``hits/<key>`` logs one byte per cache hit; created on the first
    #: hit, so stores written by earlier versions need no migration.
    HITS_DIR = "hits"

    def __init__(self, root: str, create: bool = True) -> None:
        self.root = os.path.abspath(root)
        if create:
            # records/ last: its presence means the layout is complete,
            # so a crash part-way leaves a root create=False refuses.
            for name in (
                self.RESULTS_DIR, self.QUEUE_DIR, self.INSTANCES_DIR,
                self.NEAR_DIR, self.RECORDS_DIR,
            ):
                os.makedirs(os.path.join(self.root, name), exist_ok=True)
        elif not os.path.isdir(os.path.join(self.root, self.RECORDS_DIR)):
            raise ServiceError(
                f"no exploration store at {self.root!r} "
                f"(missing {self.RECORDS_DIR}/)"
            )

    # -- paths ---------------------------------------------------------
    def record_path(self, key: str) -> str:
        return os.path.join(self.root, self.RECORDS_DIR, f"{key}.json")

    def result_path(self, key: str) -> str:
        return os.path.join(self.root, self.RESULTS_DIR, f"{key}.json")

    def queue_ticket(self, key: str) -> str:
        return os.path.join(self.root, self.QUEUE_DIR, f"{key}.ticket")

    def instance_path(self, instance_hash: str) -> str:
        return os.path.join(
            self.root, self.INSTANCES_DIR, f"{instance_hash}.json"
        )

    def near_marker(self, structure_hash: str, key: str) -> str:
        return os.path.join(self.root, self.NEAR_DIR, structure_hash, key)

    def hit_log(self, key: str) -> str:
        return os.path.join(self.root, self.HITS_DIR, key)

    # -- keys ----------------------------------------------------------
    def cache_key_info(
        self, request: ExplorationRequest
    ) -> Tuple[str, str, InstanceInfo, ExplorationRequest]:
        """``(key, request_hash, instance info, runnable request)`` — one
        pass reads the request's files (:func:`embed_files`) and
        resolves its instance, yielding the cache key, the warm-start
        index inputs and the request to store.  The key keeps the
        client's request hash, not the embedded request's."""
        request_hash = request.content_hash()
        runnable = embed_files(request)
        info = instance_info_for(runnable)
        key = compose_cache_key(request_hash, info.instance_hash)
        return key, request_hash, info, runnable

    def cache_key(self, request: ExplorationRequest) -> Tuple[str, str, str]:
        """``(key, request_hash, instance_hash)`` for a request."""
        key, request_hash, info, _ = self.cache_key_info(request)
        return key, request_hash, info.instance_hash

    # -- atomic write --------------------------------------------------
    @staticmethod
    def _write_temp(path: str, text: str) -> str:
        """Write ``text`` to a new, uniquely named temp file next to
        ``path`` and fsync it; returns the temp path.  The name is unique
        per call, so threads of one process never share a temp file, and
        it does not end in ``.json``, so scans never list it as a row."""
        tmp = f"{path}.{uuid.uuid4().hex}.tmp"
        try:
            with open(tmp, "x", encoding="utf-8") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
        except BaseException:
            _unlink_quietly(tmp)
            raise
        return tmp

    def _atomic_write(self, path: str, text: str) -> None:
        tmp = self._write_temp(path, text)
        try:
            os.replace(tmp, path)
        except BaseException:
            _unlink_quietly(tmp)
            raise

    # -- records -------------------------------------------------------
    def create_record(
        self, key: str, request_hash: str, instance_hash: str,
        request: ExplorationRequest,
        structure_hash: Optional[str] = None,
        warm_start: Optional[Dict[str, Any]] = None,
        request_document: Optional[Dict[str, Any]] = None,
    ) -> Tuple[JobRecord, bool]:
        """Create the row for ``key`` if absent; ``(record, created)``.

        A row that already exists is read without building or writing
        anything (the cache-hit and in-flight path): ``request`` is
        converted to its document only for a new row, and only when no
        ``request_document`` (a warm-start rewrite of it) is given.
        The complete row — ``structure_hash`` and ``warm_start``
        included — is written to a temp file first and published
        with ``os.link``, which is atomic and exclusive: exactly one of N
        racing creators wins, and losers (``EEXIST``) re-read the
        winner's row, which is complete the moment it exists.  The row
        is born ``pending`` with its first probe-history entry, and with
        no hits: a hit log left by a hit that raced the deletion of an
        earlier row is dropped.
        """
        path = self.record_path(key)
        if os.path.exists(path):
            return self.load_record(key), False
        record = JobRecord(
            key=key,
            request_hash=request_hash,
            instance_hash=instance_hash,
            request=(
                request.to_dict() if request_document is None
                else request_document
            ),
            created_ts=time.time(),
            structure_hash=structure_hash,
            warm_start=warm_start,
        )
        record.transition("pending", now=record.created_ts)
        tmp = self._write_temp(path, _compact_json(record.to_dict()))
        try:
            os.link(tmp, path)
        except FileExistsError:
            pass
        else:
            _unlink_quietly(self.hit_log(key))
            return record, True
        finally:
            _unlink_quietly(tmp)
        return self.load_record(key), False

    def load_record(self, key: str) -> JobRecord:
        path = self.record_path(key)
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except FileNotFoundError:
            raise ServiceError(f"no record for key {key!r}") from None
        except json.JSONDecodeError as exc:
            raise ServiceError(
                f"record {path!r} is not valid JSON: {exc}"
            ) from None
        return JobRecord.from_dict(data)

    def has_record(self, key: str) -> bool:
        return os.path.exists(self.record_path(key))

    def write_record(self, record: JobRecord) -> None:
        self._atomic_write(
            self.record_path(record.key), _compact_json(record.to_dict())
        )

    def _names(self, *parts: str) -> List[str]:
        """The entries of a directory under the root ([] if absent)."""
        try:
            return os.listdir(os.path.join(self.root, *parts))
        except (FileNotFoundError, NotADirectoryError):
            return []

    def list_keys(self) -> List[str]:
        return sorted(
            name[: -len(".json")]
            for name in self._names(self.RECORDS_DIR)
            if name.endswith(".json")
        )

    def iter_records(self) -> Iterator[JobRecord]:
        for key in self.list_keys():
            yield self.load_record(key)

    def delete_record(self, key: str) -> None:
        structure_hash = None
        try:
            structure_hash = self.load_record(key).structure_hash
        except ServiceError:
            pass
        paths = [
            self.record_path(key), self.result_path(key),
            self.queue_ticket(key), self.hit_log(key),
        ]
        if structure_hash is not None:
            paths.append(self.near_marker(structure_hash, key))
        for path in paths:
            _unlink_quietly(path)

    # -- queue tickets -------------------------------------------------
    def put_ticket(self, key: str) -> bool:
        """Create the empty ``queue/<key>.ticket``; False if it is
        already there (the exclusive create is the dedupe)."""
        return _create_empty(self.queue_ticket(key))

    def take_ticket(self, key: str) -> bool:
        """Unlink ``key``'s ticket; True only for the one caller that
        removed it (a claim's single winner among racing workers)."""
        return _unlink_quietly(self.queue_ticket(key))

    def ticket_keys(self) -> List[str]:
        """Queued keys, oldest ticket first (FIFO-ish claim order)."""
        entries = []
        for name in self._names(self.QUEUE_DIR):
            if not name.endswith(".ticket"):
                continue
            key = name[: -len(".ticket")]
            try:
                entries.append((os.path.getmtime(self.queue_ticket(key)), key))
            except OSError:
                continue  # taken between the listing and the stat
        return [key for _, key in sorted(entries)]

    def result_count(self) -> int:
        """Envelopes in ``results/``."""
        return sum(
            1 for name in self._names(self.RESULTS_DIR)
            if name.endswith(".json")
        )

    def prune_orphans(
        self, now: float, temp_older_than_s: float
    ) -> Dict[str, int]:
        """Remove the files whose record row is gone (half-states from
        crashes, manual deletion or a hit racing a deletion; a submit in
        flight keeps its own): queue tickets and near markers count as
        ``orphan_tickets``, envelopes and hit logs as ``orphan_results``,
        as do the ``*.tmp`` files of killed writers older than
        ``temp_older_than_s``."""
        removed = {"orphan_tickets": 0, "orphan_results": 0}
        # A submit can run while this pass does, so a key missing from
        # the snapshot is checked against its row again just before the
        # unlink.  Tickets, envelopes and hit logs are written after
        # their row, so that check is exact for them.
        keys = set(self.list_keys())
        for subdir, suffix, bucket in (
            (self.QUEUE_DIR, ".ticket", "orphan_tickets"),
            (self.RESULTS_DIR, ".json", "orphan_results"),
            (self.HITS_DIR, "", "orphan_results"),
        ):
            for name in self._names(subdir):
                key = name[: len(name) - len(suffix)]
                if not name.endswith(suffix) or key in keys:
                    continue
                if not self.has_record(key) and _unlink_quietly(
                    os.path.join(self.root, subdir, name)
                ):
                    removed[bucket] += 1
        # Near markers (near/<structure_hash>/<key>).  A miss files its
        # marker before its row, so a row published between the check
        # and the unlink gets its marker filed again.
        for structure_hash in self._names(self.NEAR_DIR):
            for key in self._names(self.NEAR_DIR, structure_hash):
                if key in keys or self.has_record(key):
                    continue
                if not _unlink_quietly(self.near_marker(structure_hash, key)):
                    continue
                if self.has_record(key):
                    self.index_near(structure_hash, key)
                else:
                    removed["orphan_tickets"] += 1
        # A temp file is renamed or linked the moment it is written, so
        # only a killed writer leaves an old one; a fresh one may belong
        # to a writer in flight.
        for subdir in (self.RECORDS_DIR, self.RESULTS_DIR, self.INSTANCES_DIR):
            for name in self._names(subdir):
                if not name.endswith(".tmp"):
                    continue
                path = os.path.join(self.root, subdir, name)
                try:
                    age_s = now - os.stat(path).st_mtime
                except FileNotFoundError:
                    continue
                if age_s > temp_older_than_s and _unlink_quietly(path):
                    removed["orphan_results"] += 1
        return removed

    # -- cache-hit log -------------------------------------------------
    def log_hit(self, key: str) -> int:
        """Append one byte to ``hits/<key>``; returns the log's length.

        ``O_APPEND`` writes land one after another however many
        processes append at once, so no hit is lost.  The append is not
        fsync'd: the count is best effort across a power loss (rows,
        envelopes and tickets keep their fsyncs)."""
        path = self.hit_log(key)
        flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT
        try:
            fd = os.open(path, flags, 0o644)
        except FileNotFoundError:  # the store's first hit
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd = os.open(path, flags, 0o644)
        try:
            os.write(fd, b"+")
            return os.fstat(fd).st_size
        finally:
            os.close(fd)

    def logged_hits(self, key: str) -> int:
        """Hits logged for ``key`` (add the row's own ``hits`` field)."""
        try:
            return os.stat(self.hit_log(key)).st_size
        except FileNotFoundError:
            return 0

    # -- warm-start index ----------------------------------------------
    def put_instance(
        self, instance_hash: str, document: Dict[str, Any]
    ) -> None:
        """Persist the resolved instance document (content-addressed:
        an existing file is already byte-equivalent, skip the write)."""
        path = self.instance_path(instance_hash)
        if os.path.exists(path):
            return
        os.makedirs(os.path.dirname(path), exist_ok=True)
        self._atomic_write(path, _compact_json(document, sort_keys=True))

    def instance_document(self, instance_hash: str) -> Optional[Dict[str, Any]]:
        try:
            with open(self.instance_path(instance_hash), encoding="utf-8") as handle:
                return json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError):
            return None

    def index_near(self, structure_hash: str, key: str) -> None:
        """File ``key`` under the structure-only digest (idempotent)."""
        marker = self.near_marker(structure_hash, key)
        os.makedirs(os.path.dirname(marker), exist_ok=True)
        _create_empty(marker)

    def fill_near(self, record: JobRecord) -> None:
        """Write a completed donor-kind record's instance hash into its
        existing near marker, so :meth:`near_donors` takes it without
        reading the row.

        Call it after the ``done`` row is written.  The write is an
        index hint, not fsync'd (a lost fill only costs the scan a row
        read), and it opens the marker without ``O_CREAT``: a marker
        that :meth:`delete_record` or ``gc`` removed stays removed."""
        if (
            record.structure_hash is None
            or record.request.get("kind") not in WARM_KINDS
        ):
            return
        marker = self.near_marker(record.structure_hash, record.key)
        try:
            fd = os.open(marker, os.O_WRONLY)
        except FileNotFoundError:
            return
        try:
            os.write(fd, record.instance_hash.encode("ascii"))
        finally:
            os.close(fd)

    def near_keys(self, structure_hash: str) -> List[str]:
        """Record keys filed under ``structure_hash``, sorted."""
        return sorted(self._names(self.NEAR_DIR, structure_hash))

    def near_donors(self, structure_hash: str) -> Iterator[Tuple[str, str]]:
        """``(key, instance_hash)`` of every completed ``single``/``batch``
        record filed under ``structure_hash`` whose envelope exists, in
        key order: the warm-start donor candidates.

        A key without an envelope (pending, running or failed) is
        skipped without reading anything else.  A marker holding 64 hex
        characters (:meth:`fill_near`) names a completed donor, whose row
        is not read.  Any other marker — a store written by an earlier
        version, or a fill that was lost — costs one row read, and the
        row's status and request kind decide."""
        for key in self.near_keys(structure_hash):
            if not self.has_response(key):
                continue
            marker = self.near_marker(structure_hash, key)
            try:
                with open(marker, encoding="ascii", errors="replace") as handle:
                    instance_hash = handle.read()
            except FileNotFoundError:
                continue  # deleted since the listing
            if len(instance_hash) != 64 or not _HEX_DIGITS.issuperset(
                instance_hash
            ):
                try:
                    record = self.load_record(key)
                except ServiceError:
                    continue
                if (
                    record.status != "done"
                    or record.request.get("kind") not in WARM_KINDS
                ):
                    continue
                instance_hash = record.instance_hash
            yield key, instance_hash

    # -- envelopes -----------------------------------------------------
    def put_response(self, key: str, response: ExplorationResponse) -> str:
        """Persist the envelope; returns the exact text written (the
        bytes a later cache hit serves back)."""
        text = response.to_json()
        self._atomic_write(self.result_path(key), text)
        return text

    def response_text(self, key: str) -> str:
        try:
            with open(self.result_path(key), encoding="utf-8") as handle:
                return handle.read()
        except FileNotFoundError:
            raise ServiceError(f"no result envelope for key {key!r}") from None

    def get_response(self, key: str) -> ExplorationResponse:
        return ExplorationResponse.from_json(self.response_text(key))

    def has_response(self, key: str) -> bool:
        return os.path.exists(self.result_path(key))
