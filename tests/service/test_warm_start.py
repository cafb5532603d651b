"""Warm-started and anytime serving through the service front door.

The PR contract: a cache miss whose instance is structurally identical
to a completed record's gets its queued job rewritten to anneal from
the donor's best solution (warmup skipped), under the *original*
request's cache key; ``submit_anytime`` serves a deadline-capped
best-so-far envelope while the full job stays queued.
"""

import copy
import json
import os
import threading
import time

import pytest

import repro.io
from repro.api.facade import explore
from repro.api.specs import (
    ApplicationSpec,
    BudgetSpec,
    ExplorationRequest,
    StrategySpec,
)
from repro.bench.corpus import get_scenario
from repro.errors import ServiceError
from repro.io import ProblemInstance, instance_to_dict
from repro.obs.telemetry import Telemetry
from repro.service import ExplorationService
from repro.service.store import JobRecord, ResultStore, instance_info_for
from tests.conftest import assert_racers_stopped_early


@pytest.fixture
def instance_doc(small_app, small_arch):
    return instance_to_dict(
        ProblemInstance(small_app, small_arch, deadline_ms=40.0)
    )


def bundled_request(document, **overrides):
    base = dict(
        kind="single",
        application=ApplicationSpec(kind="bundled", document=document),
        strategy=StrategySpec("sa", {"keep_trace": False}),
        budget=BudgetSpec(iterations=60, warmup_iterations=10),
        seed=3,
    )
    base.update(overrides)
    return ExplorationRequest(**base)


def perturb(document, factor=1.1):
    """A param-only drift: same structure digest, new instance hash."""
    drifted = copy.deepcopy(document)
    task = drifted["application"]["tasks"][0]
    task["sw_time_ms"] = task["sw_time_ms"] * factor
    return drifted


@pytest.fixture
def service(tmp_path):
    return ExplorationService(str(tmp_path / "store"))


def completed(service, request):
    """Submit ``request`` and drain the queue: a finished donor."""
    outcome = service.submit(request)
    service.run_local()
    assert service.status(outcome.key).status == "done"
    return outcome


def record_loads(monkeypatch):
    """Keys passed to ``ResultStore.load_record`` from now on."""
    loaded = []
    real = ResultStore.load_record

    def spy(self, key):
        loaded.append(key)
        return real(self, key)

    monkeypatch.setattr(ResultStore, "load_record", spy)
    return loaded


class TestNearIndexStore:
    def test_submit_registers_instance_and_near_marker(
        self, service, instance_doc
    ):
        request = bundled_request(instance_doc)
        info = instance_info_for(request)
        outcome = service.submit(request)
        record = service.status(outcome.key)
        assert record.structure_hash == info.structure_hash
        assert service.store.near_keys(info.structure_hash) == [outcome.key]
        assert (
            service.store.instance_document(info.instance_hash)
            == info.document
        )

    def test_near_bucket_collects_structure_mates(
        self, service, instance_doc
    ):
        first = service.submit(bundled_request(instance_doc))
        second = service.submit(bundled_request(perturb(instance_doc)))
        assert first.key != second.key
        info = instance_info_for(bundled_request(instance_doc))
        assert sorted([first.key, second.key]) == service.store.near_keys(
            info.structure_hash
        )

    def test_delete_record_unlinks_near_marker(self, service, instance_doc):
        outcome = service.submit(bundled_request(instance_doc))
        info = instance_info_for(bundled_request(instance_doc))
        service.store.delete_record(outcome.key)
        assert service.store.near_keys(info.structure_hash) == []

    def test_resubmit_after_delete_registers_its_instance_again(
        self, service, instance_doc
    ):
        """Once the row and the instance document are gone, a re-submit
        files the instance again."""
        request = bundled_request(instance_doc)
        info = instance_info_for(request)
        key = service.submit(request).key
        service.store.delete_record(key)
        os.unlink(service.store.instance_path(info.instance_hash))
        again = service.submit(request)
        assert again.status == "queued" and again.key == key
        assert service.status(key).structure_hash == info.structure_hash
        assert service.store.near_keys(info.structure_hash) == [key]
        assert (
            service.store.instance_document(info.instance_hash)
            == info.document
        )

    def test_index_near_is_idempotent(self, service):
        service.store.index_near("s" * 64, "k" * 64)
        service.store.index_near("s" * 64, "k" * 64)
        assert service.store.near_keys("s" * 64) == ["k" * 64]

    def test_record_round_trips_warm_fields(self, service, instance_doc):
        outcome = service.submit(bundled_request(instance_doc))
        record = service.status(outcome.key)
        record.warm_start = {"donor": "d", "delta": {}, "repairs": 2}
        service.store.write_record(record)
        reloaded = service.status(outcome.key)
        assert reloaded.structure_hash == record.structure_hash
        assert reloaded.warm_start == {
            "donor": "d", "delta": {}, "repairs": 2,
        }


class TestWarmStartSubmit:
    def _donor(self, service, instance_doc):
        donor = service.submit(bundled_request(instance_doc))
        assert service.run_local() == 1
        return donor

    def test_perturbed_resubmit_is_warm_started(
        self, service, instance_doc
    ):
        donor = self._donor(service, instance_doc)
        warm = service.submit(bundled_request(perturb(instance_doc)))
        assert warm.status == "queued"
        record = service.status(warm.key)
        assert record.warm_start is not None
        assert record.warm_start["donor"] == donor.key
        assert record.warm_start["delta"]["kind"] == "param"
        assert record.warm_start["delta"]["size"] == 1
        strategy = record.request["strategy"]
        assert strategy["initial_solution"]["format"] == "solution"
        assert record.request["budget"]["warmup_iterations"] == 0
        # the rewritten job still executes and completes
        assert service.run_local() == 1
        assert service.status(warm.key).status == "done"

    def test_indented_instance_document_still_donates(
        self, service, instance_doc
    ):
        donor = self._donor(service, instance_doc)
        path = service.store.instance_path(
            instance_info_for(bundled_request(instance_doc)).instance_hash
        )
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == json.dumps(
                instance_doc, sort_keys=True, separators=(",", ":")
            )
        with open(path, "w", encoding="utf-8") as handle:
            # the layout earlier versions wrote
            json.dump(instance_doc, handle, sort_keys=True, indent=2)
        warm = service.submit(bundled_request(perturb(instance_doc)))
        assert service.status(warm.key).warm_start["donor"] == donor.key

    def test_cache_key_is_the_original_requests(
        self, service, instance_doc
    ):
        self._donor(service, instance_doc)
        perturbed_request = bundled_request(perturb(instance_doc))
        warm = service.submit(perturbed_request)
        assert warm.key == service.key_of(perturbed_request)
        service.run_local()
        hit = service.submit(perturbed_request)
        assert hit.status == "hit"

    def test_no_donor_no_warm_start(self, service, instance_doc):
        outcome = service.submit(bundled_request(instance_doc))
        assert service.status(outcome.key).warm_start is None

    def test_pending_donor_does_not_seed(self, service, instance_doc):
        service.submit(bundled_request(instance_doc))  # never executed
        warm = service.submit(bundled_request(perturb(instance_doc)))
        assert service.status(warm.key).warm_start is None

    def test_non_warm_strategy_is_skipped(self, service, instance_doc):
        self._donor(service, instance_doc)
        outcome = service.submit(
            bundled_request(
                perturb(instance_doc),
                strategy=StrategySpec("random", {}),
                budget=BudgetSpec(iterations=60),
            )
        )
        assert service.status(outcome.key).warm_start is None

    def test_client_seed_is_not_overwritten(self, service, instance_doc):
        donor = self._donor(service, instance_doc)
        envelope = service.result(donor.key)
        seed_doc = envelope.best["solution"]
        outcome = service.submit(
            bundled_request(
                perturb(instance_doc),
                strategy=StrategySpec(
                    "sa", {"keep_trace": False},
                    initial_solution=seed_doc,
                ),
            )
        )
        record = service.status(outcome.key)
        assert record.warm_start is None
        assert (
            record.request["strategy"]["initial_solution"] == seed_doc
        )

    def test_smallest_delta_donor_wins(self, service, instance_doc):
        self._donor(service, instance_doc)
        far = service.submit(bundled_request(perturb(instance_doc, 3.0)))
        service.run_local()
        # both donors are done; the new submit differs from the original
        # by 1 field and from `far` by 2 -> the original wins
        near_doc = copy.deepcopy(instance_doc)
        near_doc["deadline_ms"] = 41.0
        warm = service.submit(bundled_request(near_doc))
        record = service.status(warm.key)
        assert record.warm_start is not None
        assert record.warm_start["donor"] != far.key
        assert record.warm_start["delta"]["size"] == 1

    def test_donor_without_envelope_is_skipped(self, service, instance_doc):
        """The nearer donor lost its envelope (pruned by hand, or left
        by a hit racing gc): the next donor seeds the job instead of
        the warm start being cancelled."""
        near = completed(service, bundled_request(instance_doc))
        far = completed(service, bundled_request(perturb(instance_doc, 3.0)))
        os.unlink(service.store.result_path(near.key))
        near_doc = copy.deepcopy(instance_doc)
        near_doc["deadline_ms"] = 41.0
        warm = service.submit(bundled_request(near_doc))
        record = service.status(warm.key)
        assert record.warm_start is not None
        assert record.warm_start["donor"] == far.key
        assert record.warm_start["delta"]["size"] == 2

    def test_warm_run_is_deterministic(self, tmp_path, instance_doc):
        from repro.obs.telemetry import strip_times

        envelopes = []
        for name in ("a", "b"):
            service = ExplorationService(str(tmp_path / name))
            service.submit(bundled_request(instance_doc))
            service.run_local()
            warm = service.submit(bundled_request(perturb(instance_doc)))
            assert service.status(warm.key).warm_start is not None
            service.run_local()
            envelopes.append(
                strip_times(
                    json.loads(service.store.response_text(warm.key))
                )
            )
        assert envelopes[0] == envelopes[1]

    def test_stats_and_telemetry_count_warm_starts(
        self, tmp_path, instance_doc
    ):
        telemetry = Telemetry(label="svc")
        service = ExplorationService(
            str(tmp_path / "store"), telemetry=telemetry
        )
        service.submit(bundled_request(instance_doc))
        service.run_local()
        service.submit(bundled_request(perturb(instance_doc)))
        stats = service.stats()
        assert stats["warm_start_hits"] == 1
        assert stats["warm_start_repairs"] >= 0
        assert telemetry.counters["warm_start_hit"] == 1

    def test_warm_run_pays_off_on_motion(self, service):
        """README's payoff claim: on motion/2000 with one task 5% slower
        and a quarter of a 2,000-iteration budget as warm-up, the run
        re-seeded from the donor (seed 7) ends below cold runs on other
        seeds.  The donor's own seed shows nothing: a cold run on it
        ends on the donor's solution."""
        document = get_scenario("motion/2000").document()
        drifted = perturb(document, factor=1.05)
        budget = BudgetSpec(iterations=2000, warmup_iterations=500)
        completed(service, bundled_request(document, budget=budget, seed=7))
        warm = service.submit(bundled_request(drifted, budget=budget, seed=7))
        assert service.status(warm.key).warm_start is not None
        assert service.run_local() == 1
        best = service.result(warm.key).results[0]["best_cost"]
        for seed in (1, 2, 3):
            cold = explore(bundled_request(drifted, budget=budget, seed=seed))
            assert best < cold.results[0]["best_cost"]

    def test_gc_prunes_orphan_near_markers(self, service, instance_doc):
        outcome = service.submit(bundled_request(instance_doc))
        record = service.status(outcome.key)
        marker = service.store.near_marker(
            record.structure_hash, "f" * 64
        )
        with open(marker, "w"):
            pass
        removed = service.gc(failed=False)
        assert removed["orphan_tickets"] == 1
        info = instance_info_for(bundled_request(instance_doc))
        assert service.store.near_keys(info.structure_hash) == [outcome.key]


class TestGcRacingSubmit:
    """``gc``'s orphan pass while a cache miss is in flight: the miss's
    queue ticket and near marker survive, a drain runs the job, and the
    finished job then donates to a drifted submit."""

    @staticmethod
    def _assert_served(service, instance_doc, key):
        info = instance_info_for(bundled_request(instance_doc))
        assert service.queue.pending_keys() == [key]
        assert service.store.near_keys(info.structure_hash) == [key]
        assert service.run_local() == 1
        warm = service.submit(bundled_request(perturb(instance_doc)))
        assert service.status(warm.key).warm_start["donor"] == key

    @staticmethod
    def _paused_submit(service, request, monkeypatch):
        """Start ``submit(request)`` in a thread that stops once the
        instance document and the near marker are filed, before the row
        is published; returns ``(thread, resume, outcomes)``."""
        filed, resume = threading.Event(), threading.Event()
        real = ResultStore.create_record

        def create_record(store, *args, **kwargs):
            filed.set()
            assert resume.wait(30)
            return real(store, *args, **kwargs)

        monkeypatch.setattr(ResultStore, "create_record", create_record)
        outcomes = []
        thread = threading.Thread(
            target=lambda: outcomes.append(service.submit(request))
        )
        thread.start()
        assert filed.wait(30)
        return thread, resume, outcomes

    def test_submit_after_the_orphan_snapshot(
        self, service, instance_doc, monkeypatch
    ):
        request = bundled_request(instance_doc)
        real = service.store.list_keys
        listings, outcomes = [], []

        def list_keys():
            keys = real()
            listings.append(keys)
            if len(listings) == 2:  # the orphan pass's snapshot
                outcomes.append(service.submit(request))
            return keys

        monkeypatch.setattr(service.store, "list_keys", list_keys)
        assert service.gc(failed=False) == {
            "failed": 0, "done": 0, "orphan_tickets": 0,
            "orphan_results": 0,
        }
        (outcome,) = outcomes
        assert outcome.status == "queued"
        self._assert_served(service, instance_doc, outcome.key)

    def test_gc_between_marker_and_row(
        self, service, instance_doc, monkeypatch
    ):
        thread, resume, outcomes = self._paused_submit(
            service, bundled_request(instance_doc), monkeypatch
        )
        try:
            # The marker has no row yet: gc prunes it as an orphan.
            assert service.gc(failed=False)["orphan_tickets"] == 1
        finally:
            resume.set()
            thread.join(30)
        assert not thread.is_alive()
        (outcome,) = outcomes
        assert outcome.status == "queued"
        self._assert_served(service, instance_doc, outcome.key)

    def test_row_published_at_the_marker_unlink(
        self, service, instance_doc, monkeypatch
    ):
        request = bundled_request(instance_doc)
        info = instance_info_for(request)
        marker = service.store.near_marker(
            info.structure_hash, service.key_of(request)
        )
        thread, resume, outcomes = self._paused_submit(
            service, request, monkeypatch
        )
        real_unlink = os.unlink

        def unlink(path, *args, **kwargs):
            if path == marker and thread.is_alive():
                # gc found no row; the submit now publishes its row and
                # ticket before the marker goes.
                resume.set()
                thread.join(30)
            return real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(os, "unlink", unlink)
        try:
            removed = service.gc(failed=False)
        finally:
            resume.set()
            thread.join(30)
        assert not thread.is_alive()
        assert removed["orphan_tickets"] == 0
        (outcome,) = outcomes
        assert outcome.status == "queued"
        self._assert_served(service, instance_doc, outcome.key)


class TestMissCosts:
    """What a cache miss reads and writes."""

    @staticmethod
    def _published_rows(monkeypatch, store):
        """Every row written under ``records/``, as first read back."""
        records_dir = os.path.join(store.root, store.RECORDS_DIR)
        rows = []

        def watching(real):
            def write(src, dst, *args, **kwargs):
                real(src, dst, *args, **kwargs)
                if os.path.dirname(dst) == records_dir:
                    with open(dst, encoding="utf-8") as handle:
                        rows.append(json.load(handle))
            return write

        monkeypatch.setattr(os, "link", watching(os.link))
        monkeypatch.setattr(os, "replace", watching(os.replace))
        return rows

    def test_cold_miss_writes_its_row_once(
        self, service, instance_doc, monkeypatch
    ):
        request = bundled_request(instance_doc)
        rows = self._published_rows(monkeypatch, service.store)
        outcome = service.submit(request)
        assert outcome.status == "queued"
        assert len(rows) == 1
        assert rows[0]["key"] == outcome.key
        assert (
            rows[0]["structure_hash"]
            == instance_info_for(request).structure_hash
        )
        assert rows[0]["warm_start"] is None

    def test_warm_miss_writes_its_row_once(
        self, service, instance_doc, monkeypatch
    ):
        donor = completed(service, bundled_request(instance_doc))
        request = bundled_request(perturb(instance_doc))
        rows = self._published_rows(monkeypatch, service.store)
        outcome = service.submit(request)
        assert len(rows) == 1
        assert rows[0]["key"] == outcome.key
        assert (
            rows[0]["structure_hash"]
            == instance_info_for(request).structure_hash
        )
        assert rows[0]["warm_start"]["donor"] == donor.key
        assert rows[0]["request"]["strategy"]["initial_solution"] is not None
        assert outcome.record.to_dict() == rows[0]

    def test_completion_fills_the_marker_with_the_instance_hash(
        self, service, instance_doc
    ):
        request = bundled_request(instance_doc)
        info = instance_info_for(request)
        outcome = service.submit(request)
        marker = service.store.near_marker(info.structure_hash, outcome.key)
        assert os.path.getsize(marker) == 0
        service.run_local()
        with open(marker, encoding="ascii") as handle:
            assert handle.read() == info.instance_hash

    def test_fill_never_recreates_a_removed_marker(
        self, service, instance_doc
    ):
        request = bundled_request(instance_doc)
        info = instance_info_for(request)
        outcome = service.submit(request)
        marker = service.store.near_marker(info.structure_hash, outcome.key)
        os.unlink(marker)  # what gc or delete_record does
        assert service.run_local() == 1
        assert not os.path.exists(marker)

    def test_scan_reads_no_pending_or_filled_rows(
        self, service, instance_doc, monkeypatch
    ):
        donor = completed(service, bundled_request(instance_doc))
        pending = service.submit(bundled_request(perturb(instance_doc, 2.0)))
        assert service.status(pending.key).status == "pending"
        loaded = record_loads(monkeypatch)
        warm = service.submit(bundled_request(perturb(instance_doc, 1.5)))
        assert loaded == []
        monkeypatch.undo()
        assert service.status(warm.key).warm_start["donor"] == donor.key

    def test_one_diff_per_donor_instance(
        self, service, instance_doc, monkeypatch
    ):
        keys = [
            service.submit(bundled_request(instance_doc, seed=seed)).key
            for seed in (3, 4, 5)
        ]
        assert service.run_local() == 3
        documents, diffs = [], []
        real_document = ResultStore.instance_document
        real_diff = repro.io.diff_instances

        def document_spy(self, instance_hash):
            documents.append(instance_hash)
            return real_document(self, instance_hash)

        def diff_spy(a, b):
            diffs.append(1)
            return real_diff(a, b)

        monkeypatch.setattr(ResultStore, "instance_document", document_spy)
        monkeypatch.setattr(repro.io, "diff_instances", diff_spy)
        warm = service.submit(bundled_request(perturb(instance_doc)))
        assert len(documents) == 1 and len(diffs) == 1
        record = service.status(warm.key)
        assert record.warm_start["donor"] == min(keys)
        assert record.warm_start["delta"]["size"] == 1

    def test_unfilled_markers_still_donate(
        self, service, instance_doc, monkeypatch
    ):
        """Earlier versions left every marker empty: the scan reads the
        row of each key with an envelope and picks the same donor and
        delta as from filled markers."""
        near = completed(service, bundled_request(instance_doc))
        far = completed(service, bundled_request(perturb(instance_doc, 3.0)))
        service.submit(bundled_request(perturb(instance_doc, 2.0)))
        near_doc = copy.deepcopy(instance_doc)
        near_doc["deadline_ms"] = 41.0
        request = bundled_request(near_doc)
        info = instance_info_for(request)
        key = service.key_of(request)
        from_filled = service._best_donor(key, info)
        bucket = service.store.near_keys(info.structure_hash)
        assert len(bucket) == 3
        for candidate in bucket:
            with open(
                service.store.near_marker(info.structure_hash, candidate), "w"
            ):
                pass
        loaded = record_loads(monkeypatch)
        warm = service.submit(request)
        assert loaded == sorted([near.key, far.key])
        monkeypatch.undo()
        record = service.status(warm.key)
        assert record.warm_start["donor"] == near.key == from_filled[0]
        assert record.warm_start["delta"] == from_filled[1].to_dict()
        assert record.warm_start["delta"]["size"] == 1


def _inject(monkeypatch, call, directory):
    """Make ``os.<call>`` raise for every path under ``directory``."""
    real = getattr(os, call)
    prefix = directory + os.sep

    def failing(*args, **kwargs):
        target = args[1] if call in ("link", "replace") else args[0]
        if os.fspath(target).startswith(prefix):
            raise OSError(f"injected {call} failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(os, call, failing)


def _assert_rows_whole(store):
    """Only complete rows under ``records/``, no temp file anywhere."""
    for subdir in (store.RECORDS_DIR, store.INSTANCES_DIR):
        names = os.listdir(os.path.join(store.root, subdir))
        assert all(name.endswith(".json") for name in names), names
    for key in store.list_keys():
        with open(store.record_path(key), encoding="utf-8") as handle:
            assert JobRecord.from_dict(json.load(handle)).key == key


class TestMissFaults:
    """A warm miss writes the instance document, the near marker, the
    row, the queue ticket and the marker again, in that order;
    completion then fills the marker.  A failure at any of them leaves
    whole rows and a state that a resubmit, ``requeue_stale`` or ``gc``
    heals."""

    @pytest.mark.parametrize(
        "call, subdir, published, orphan_marker",
        [
            ("replace", ResultStore.INSTANCES_DIR, False, False),
            ("open", ResultStore.NEAR_DIR, False, False),
            ("link", ResultStore.RECORDS_DIR, False, True),
            ("open", ResultStore.QUEUE_DIR, True, False),
        ],
        ids=["instance-document", "near-marker", "row-publish",
             "queue-ticket"],
    )
    def test_failed_write(
        self, service, instance_doc, monkeypatch,
        call, subdir, published, orphan_marker,
    ):
        donor = completed(service, bundled_request(instance_doc))
        request = bundled_request(perturb(instance_doc))
        info = instance_info_for(request)
        key = service.key_of(request)
        with monkeypatch.context() as patch:
            _inject(patch, call, os.path.join(service.store.root, subdir))
            with pytest.raises(OSError, match="injected"):
                service.submit(request)
        _assert_rows_whole(service.store)
        assert service.store.has_record(key) is published
        bucket = service.store.near_keys(info.structure_hash)
        assert (key in bucket) is (orphan_marker or published)
        if orphan_marker:
            assert service.gc()["orphan_tickets"] == 1
            assert service.store.near_keys(info.structure_hash) == [donor.key]
        if published:
            assert service.submit(request).status == "inflight"
            assert service.queue.pending_keys() == []
            service.queue.requeue_stale(stale_after_s=0)
            assert service.queue.pending_keys() == [key]
        else:
            assert service.submit(request).status == "queued"
        assert service.status(key).warm_start["donor"] == donor.key
        assert service.run_local() == 1
        assert service.status(key).status == "done"
        _assert_rows_whole(service.store)

    def test_failed_second_marker_filing_leaves_a_runnable_job(
        self, service, instance_doc, monkeypatch
    ):
        donor = completed(service, bundled_request(instance_doc))
        request = bundled_request(perturb(instance_doc))
        info = instance_info_for(request)
        key = service.key_of(request)
        ticket = service.store.queue_ticket(key)
        near_dir = os.path.join(service.store.root, ResultStore.NEAR_DIR)
        real_open = os.open

        def failing(path, *args, **kwargs):
            # Only the filing after the ticket: the first one succeeds.
            if path.startswith(near_dir + os.sep) and os.path.exists(ticket):
                raise OSError("injected open failure")
            return real_open(path, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(os, "open", failing)
            with pytest.raises(OSError, match="injected"):
                service.submit(request)
        _assert_rows_whole(service.store)
        assert service.queue.pending_keys() == [key]
        assert service.store.near_keys(info.structure_hash) == sorted(
            [donor.key, key])
        assert service.status(key).warm_start["donor"] == donor.key
        assert service.run_local() == 1
        assert service.status(key).status == "done"

    def test_failed_marker_fill_leaves_the_job_done(
        self, service, instance_doc, monkeypatch
    ):
        first = service.submit(bundled_request(instance_doc))
        second = service.submit(bundled_request(instance_doc, seed=4))
        info = instance_info_for(bundled_request(instance_doc))
        with monkeypatch.context() as patch:
            _inject(patch, "open", os.path.join(
                service.store.root, service.store.NEAR_DIR))
            assert service.run_local() == 2  # the worker kept draining
        for outcome in (first, second):
            assert service.status(outcome.key).status == "done"
            marker = service.store.near_marker(
                info.structure_hash, outcome.key)
            assert os.path.getsize(marker) == 0
        warm = service.submit(bundled_request(perturb(instance_doc)))
        assert service.status(warm.key).warm_start["donor"] == min(
            first.key, second.key)


class TestSubmitAnytime:
    def test_rejects_non_positive_deadline(self, service, instance_doc):
        with pytest.raises(ServiceError, match="deadline_s"):
            service.submit_anytime(
                bundled_request(instance_doc), deadline_s=0.0
            )

    def test_miss_returns_partial_and_record_stays_pending(
        self, service, instance_doc
    ):
        request = bundled_request(instance_doc, budget=BudgetSpec(
            iterations=200_000, warmup_iterations=0,
        ))
        outcome = service.submit_anytime(request, deadline_s=0.3)
        assert outcome.status == "partial"
        assert outcome.response.summary["partial"] is True
        assert outcome.response.best is not None
        assert outcome.response_text is None  # live-only, never cached
        record = service.status(outcome.key)
        assert record.status == "pending"
        with pytest.raises(ServiceError, match="no result"):
            service.result(outcome.key)
        # the envelope is well-formed JSON end to end
        json.loads(outcome.response.to_json())

    def test_portfolio_partial_caps_every_racer(self, service, instance_doc):
        request = bundled_request(
            instance_doc, kind="portfolio",
            budget=BudgetSpec(iterations=100_000, warmup_iterations=0),
        )
        outcome = service.submit_anytime(request, deadline_s=0.1)
        assert outcome.status == "partial"
        assert outcome.response.summary["partial"] is True
        assert_racers_stopped_early(outcome.response.results, 100_000)

    @pytest.mark.parametrize("overrides", [
        {"kind": "portfolio"}, {"kind": "batch", "runs": 4},
    ])
    def test_deadline_caps_the_answer_not_each_run(
        self, service, instance_doc, overrides
    ):
        request = bundled_request(
            instance_doc,
            budget=BudgetSpec(iterations=200_000, warmup_iterations=0),
            **overrides,
        )
        started = time.perf_counter()
        outcome = service.submit_anytime(request, deadline_s=0.5)
        elapsed = time.perf_counter() - started
        assert outcome.status == "partial"
        assert len(outcome.response.results) > 1
        assert elapsed < 2 * 0.5

    def test_full_job_still_completes_after_partial(
        self, service, instance_doc
    ):
        request = bundled_request(instance_doc)
        partial = service.submit_anytime(request, deadline_s=5.0)
        assert partial.status == "partial"
        assert service.run_local() == 1
        hit = service.submit_anytime(request, deadline_s=5.0)
        assert hit.status == "hit"
        assert hit.response_text is not None

    def test_partial_runs_the_warm_rewritten_job(
        self, service, instance_doc
    ):
        service.submit(bundled_request(instance_doc))
        service.run_local()
        outcome = service.submit_anytime(
            bundled_request(perturb(instance_doc)), deadline_s=5.0
        )
        assert outcome.status == "partial"
        assert service.status(outcome.key).warm_start is not None

    def test_miss_reads_no_row(self, service, instance_doc, monkeypatch):
        loaded = record_loads(monkeypatch)
        outcome = service.submit_anytime(
            bundled_request(instance_doc), deadline_s=5.0
        )
        assert outcome.status == "partial"
        assert outcome.record.status == "pending"
        assert loaded == []

    def test_counts_anytime_partial(self, tmp_path, instance_doc):
        telemetry = Telemetry(label="svc")
        service = ExplorationService(
            str(tmp_path / "store"), telemetry=telemetry
        )
        service.submit_anytime(
            bundled_request(instance_doc), deadline_s=5.0
        )
        assert telemetry.counters["anytime_partial"] == 1
