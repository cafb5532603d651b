"""Crash sweep: every filesystem mutation of one service flow is a crash point.

The flow — submit A, drain, hit A, submit B (A's instance with one task
drifted, so B is warm-started from A), drain, ``gc`` — runs once while
its mutations are counted: renames, replaces, links, unlinks, fsyncs,
``os.write`` calls, opens for writing and directory creations.  The
points are discovered, not listed, so a new write is swept without an
edit here.  Then, for each point, the flow runs again on a fresh store
and the process "dies" there: that mutation and every later one raise
:class:`Crash`, which no ``except Exception`` handler catches.  Recovery
is what the next run of the service does: ``requeue_stale`` with no
grace period, a drain, and a resubmit of both requests.
"""

import builtins
import copy
import os
import sys

import pytest

from repro.api.facade import ExplorationResponse
from repro.api.specs import ApplicationSpec, BudgetSpec, ExplorationRequest
from repro.bench.corpus import get_scenario
from repro.service import ExplorationService, run_workers


class Crash(BaseException):
    """The simulated death of the process at a mutation point."""


_MUTATIONS = (
    "rename", "replace", "link", "unlink", "fsync", "write", "makedirs",
)
_WRITE_FLAGS = os.O_WRONLY | os.O_RDWR | os.O_CREAT | os.O_APPEND


class Mutations:
    """Counts the mutations made under ``root`` while installed (an
    ``fsync`` or ``write`` on any descriptor counts); from point
    ``crash_at`` on, each one raises :class:`Crash` instead of running
    (the process is dead: not even a cleanup handler gets to write)."""

    def __init__(self, patch, root, crash_at=None):
        self.count = 0
        self.crash_at = crash_at
        self.site = None

        def under_root(path, *args, **kwargs):
            path = os.fspath(path)
            return path == root or path.startswith(root + os.sep)

        for name in _MUTATIONS:
            patch.setattr(os, name, self._wrap(
                name, getattr(os, name),
                None if name in ("fsync", "write") else under_root,
            ))
        patch.setattr(os, "open", self._wrap(
            "os.open", os.open,
            lambda path, flags, *args, **kwargs: under_root(path)
            and flags & _WRITE_FLAGS,
        ))
        patch.setattr(builtins, "open", self._wrap(
            "open", builtins.open,
            lambda file, mode="r", *args, **kwargs: under_root(file)
            and any(flag in mode for flag in "wxa+"),
        ))

    def _wrap(self, name, real, mutates):
        def wrapper(*args, **kwargs):
            if mutates is None or mutates(*args, **kwargs):
                if self.crash_at is not None and self.count >= self.crash_at:
                    if self.site is None:
                        self.site = _site(name)
                    raise Crash(name)
                self.count += 1
            return real(*args, **kwargs)

        return wrapper


def _site(name):
    """``name`` and the three calling functions, innermost first."""
    frame = sys._getframe(2)
    callers = []
    while frame is not None and len(callers) < 3:
        callers.append(frame.f_code.co_name)
        frame = frame.f_back
    return f"{name} in {' < '.join(callers)}"


def bundled(document):
    return ExplorationRequest(
        kind="single",
        application=ApplicationSpec(kind="bundled", document=document),
        budget=BudgetSpec(iterations=60, warmup_iterations=10),
        seed=1,
    )


@pytest.fixture(scope="module")
def requests():
    base = get_scenario("motion/2000").document()
    drifted = copy.deepcopy(base)
    drifted["application"]["tasks"][0]["sw_time_ms"] *= 1.05
    return bundled(base), bundled(drifted)


def flow(root, a, b):
    service = ExplorationService(root)
    assert service.submit(a).status == "queued"
    assert run_workers(root, workers=1) == 1
    assert service.submit(a).status == "hit"
    assert service.submit(b).record.warm_start is not None
    assert run_workers(root, workers=1) == 1
    service.gc()


def recover(root, requests):
    """The next run after a crash; returns the service and the
    resubmits' outcomes.  A request whose row the crash prevented is a
    fresh miss on the first resubmit, so it is drained and resubmitted
    once more."""
    service = ExplorationService(root)
    service.queue.requeue_stale(stale_after_s=0)
    service.run_local()
    outcomes = [service.submit(request) for request in requests]
    if any(outcome.status != "hit" for outcome in outcomes):
        service.run_local()
        outcomes = [service.submit(request) for request in requests]
    return service, outcomes


def assert_store_invariants(store):
    """The store's health: no row is torn, every ``done`` row has a
    parseable envelope, no queue ticket is left, every near marker
    names a row, and no ``claims/`` directory exists."""
    for key in store.list_keys():
        record = store.load_record(key)  # raises on a torn row
        if record.status == "done":
            ExplorationResponse.from_json(store.response_text(key))
    assert store.ticket_keys() == []
    near = os.path.join(store.root, store.NEAR_DIR)
    for structure_hash in os.listdir(near):
        for key in store.near_keys(structure_hash):
            assert store.has_record(key), f"near marker {key} has no row"
    assert not os.path.exists(os.path.join(store.root, "claims"))


def test_every_crash_point_recovers(tmp_path, monkeypatch, requests):
    counted = str(tmp_path / "counted")
    with monkeypatch.context() as patch:
        counter = Mutations(patch, counted)
        flow(counted, *requests)
    points = counter.count
    assert points >= 40, points  # the flow really was counted
    keys = [ExplorationService(counted).key_of(r) for r in requests]

    failures = []
    for point in range(points):
        root = str(tmp_path / f"crash{point}")
        with monkeypatch.context() as patch:
            crash = Mutations(patch, root, crash_at=point)
            with pytest.raises(Crash):
                flow(root, *requests)
        durable = [
            os.path.exists(os.path.join(root, "results", f"{key}.json"))
            for key in keys
        ]
        try:
            service, outcomes = recover(root, requests)
            assert_store_invariants(service.store)
            assert [o.status for o in outcomes] == ["hit", "hit"]
            assert [service.status(k).status for k in keys] == ["done"] * 2
            for key, was_durable in zip(keys, durable):
                if was_durable:
                    assert service.status(key).attempts == 1, "re-run"
            assert service.stats()["queue"] == {"queued": 0, "claimed": 0}
        except Exception as exc:
            failures.append(f"point {point} ({crash.site}): {exc!r:.300}")
    assert failures == [], "\n".join(failures)
