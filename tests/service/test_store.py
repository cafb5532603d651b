"""Store layer: cache keys, record rows, atomic persistence."""

import hashlib
import json
import os
import sys
import threading

import pytest

from repro.api.specs import (
    ApplicationSpec,
    BudgetSpec,
    ExplorationRequest,
)
from repro.bench.corpus import get_scenario
from repro.errors import ConfigurationError, ServiceError
from repro.io import application_to_dict
from repro.model.generator import GeneratorConfig, random_application
from repro.service.store import (
    JobRecord,
    ResultStore,
    compose_cache_key,
    instance_hash_for,
)


def small_request(**overrides):
    base = dict(
        kind="single",
        budget=BudgetSpec(iterations=60, warmup_iterations=10),
        seed=1,
    )
    base.update(overrides)
    return ExplorationRequest(**base)


@pytest.fixture
def store(tmp_path):
    return ResultStore(str(tmp_path / "store"))


class TestCacheKey:
    def test_key_composes_both_digests(self, store):
        request = small_request()
        key, request_hash, instance_hash = store.cache_key(request)
        assert request_hash == request.content_hash()
        assert instance_hash == instance_hash_for(request)
        assert key == compose_cache_key(request_hash, instance_hash)
        assert key == hashlib.sha256(
            f"{request_hash}:{instance_hash}".encode("ascii")
        ).hexdigest()

    def test_identical_requests_share_a_key(self, store):
        assert store.cache_key(small_request())[0] == \
            store.cache_key(small_request())[0]

    def test_different_seed_different_key(self, store):
        assert store.cache_key(small_request(seed=1))[0] != \
            store.cache_key(small_request(seed=2))[0]

    def test_file_content_change_changes_the_key(self, store, tmp_path):
        # The request hash alone cannot see through a path reference;
        # the composed instance hash must.  Same path, different bytes
        # underneath -> different cache key.
        path = str(tmp_path / "application.json")
        app_a = random_application(GeneratorConfig(num_tasks=6), seed=1)
        app_b = random_application(GeneratorConfig(num_tasks=6), seed=2)
        request = small_request(
            application=ApplicationSpec(kind="inline", path=path)
        )
        with open(path, "w") as handle:
            json.dump(application_to_dict(app_a), handle)
        key_a = store.cache_key(request)
        with open(path, "w") as handle:
            json.dump(application_to_dict(app_b), handle)
        key_b = store.cache_key(request)
        assert key_a[1] == key_b[1]  # same request hash...
        assert key_a[2] != key_b[2]  # ...different instance hash
        assert key_a[0] != key_b[0]

    def test_instance_hash_is_pinned(self):
        """Cache keys stay byte-identical across releases: the instance
        digest of a bundled motion/2000 request is pinned."""
        request = small_request(
            application=ApplicationSpec(
                kind="bundled",
                document=get_scenario("motion/2000").document(),
            )
        )
        assert instance_hash_for(request) == (
            "842a941cf9024eaa50c3de37bd5d39a0ffb40a393949ce7b7870a3fe2d215c16"
        )

    def test_sweep_requests_get_keys(self, store):
        request = small_request(
            kind="sweep", sizes=(200, 400), runs=2, seed=3
        )
        key, _, _ = store.cache_key(request)
        assert len(key) == 64


class TestJobRecord:
    def _record(self):
        return JobRecord(
            key="k" * 64, request_hash="r" * 64, instance_hash="i" * 64,
            request=small_request().to_dict(), created_ts=100.0,
        )

    def test_lifecycle_transitions(self):
        record = self._record()
        record.transition("pending", now=100.0)
        record.transition("running", worker="w0", now=101.0)
        assert record.attempts == 1
        assert record.claimed_ts == 101.0
        assert record.worker == "w0"
        record.transition("done", worker="w0", now=102.0)
        assert record.completed_ts == 102.0
        assert [h["status"] for h in record.history] == \
            ["pending", "running", "done"]

    def test_requeue_keeps_attempts_and_history(self):
        record = self._record()
        record.transition("running", worker="w0", now=1.0)
        record.transition("pending", error="requeued", now=2.0)
        assert record.attempts == 1
        assert record.worker is None
        assert record.history[-1]["error"] == "requeued"

    def test_unknown_status_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown record"):
            self._record().transition("paused")

    def test_dict_round_trip(self):
        record = self._record()
        record.transition("running", worker="w0", now=1.0)
        record.transition("failed", error="boom", now=2.0)
        clone = JobRecord.from_dict(record.to_dict())
        assert clone.to_dict() == record.to_dict()

    def test_compact_row_loads_like_an_indented_row(self, store):
        """Rows are written compact now; an indented row (how earlier
        versions wrote them) with the same content loads identically."""
        record = self._record()
        record.transition("running", worker="w0", now=101.0)
        record.transition("done", worker="w0", now=102.0)
        record.hits = 2
        record.telemetry = {"counters": {"x": 1.5}, "label": "job"}
        record.structure_hash = "s" * 64
        record.warm_start = {"donor": "d" * 64, "delta": {}, "repairs": 1}
        store.write_record(record)
        with open(store.record_path(record.key), encoding="utf-8") as handle:
            compact = handle.read()
        indented = json.dumps(record.to_dict(), indent=2)
        assert "\n" not in compact and len(compact) < len(indented)
        assert JobRecord.from_dict(json.loads(compact)) == \
            JobRecord.from_dict(json.loads(indented)) == record

    def test_wrong_format_rejected(self):
        with pytest.raises(ServiceError, match="exploration-record"):
            JobRecord.from_dict({"format": "exploration-response"})

    def test_unknown_disk_status_rejected(self):
        data = self._record().to_dict()
        data["status"] = "paused"
        with pytest.raises(ServiceError, match="unknown status"):
            JobRecord.from_dict(data)

    def test_future_schema_rejected(self):
        data = self._record().to_dict()
        data["schema_version"] = 99
        with pytest.raises(ServiceError, match="schema_version"):
            JobRecord.from_dict(data)


class TestResultStore:
    def test_create_record_is_exclusive(self, store):
        request = small_request()
        key, rh, ih = store.cache_key(request)
        first, created = store.create_record(key, rh, ih, request)
        assert created
        assert first.status == "pending"
        second, created_again = store.create_record(key, rh, ih, request)
        assert not created_again
        assert second.key == first.key

    def test_load_missing_record(self, store):
        with pytest.raises(ServiceError, match="no record"):
            store.load_record("0" * 64)

    def test_corrupt_record_is_a_service_error(self, store):
        key = "1" * 64
        with open(store.record_path(key), "w") as handle:
            handle.write("{not json")
        with pytest.raises(ServiceError, match="not valid JSON"):
            store.load_record(key)

    def test_write_then_load(self, store):
        request = small_request()
        key, rh, ih = store.cache_key(request)
        record, _ = store.create_record(key, rh, ih, request)
        record.transition("running", worker="w0")
        store.write_record(record)
        assert store.load_record(key).status == "running"
        assert store.list_keys() == [key]

    def test_missing_store_without_create(self, tmp_path):
        with pytest.raises(ServiceError, match="no exploration store"):
            ResultStore(str(tmp_path / "absent"), create=False)

    def test_crash_part_way_through_creation_is_refused(
        self, tmp_path, monkeypatch
    ):
        # A crash at any directory creation, the last one being every
        # directory but records/, leaves a root that create=False
        # refuses and that create=True completes.
        layout = sorted(os.listdir(ResultStore(str(tmp_path / "full")).root))
        makedirs = os.makedirs
        for crash_at in range(len(layout)):
            root = str(tmp_path / f"crash{crash_at}")
            made = []

            def crashing_makedirs(path, *args, **kwargs):
                if len(made) == crash_at:
                    raise OSError("crashed")
                made.append(path)
                makedirs(path, *args, **kwargs)

            monkeypatch.setattr(os, "makedirs", crashing_makedirs)
            with pytest.raises(OSError, match="crashed"):
                ResultStore(root)
            monkeypatch.setattr(os, "makedirs", makedirs)
            with pytest.raises(ServiceError, match="no exploration store"):
                ResultStore(root, create=False)
            ResultStore(root)
            assert sorted(os.listdir(root)) == layout
            ResultStore(root, create=False)

    def test_response_bytes_round_trip(self, store):
        from repro.api.facade import explore

        response = explore(small_request())
        key = "2" * 64
        written = store.put_response(key, response)
        assert store.response_text(key) == written
        assert store.get_response(key).to_json() == written

    def test_missing_response(self, store):
        with pytest.raises(ServiceError, match="no result envelope"):
            store.response_text("3" * 64)

    def test_delete_record_removes_all_files(self, store):
        request = small_request()
        key, rh, ih = store.cache_key(request)
        store.create_record(key, rh, ih, request)
        for path in (store.queue_ticket(key), store.result_path(key)):
            with open(path, "w") as handle:
                handle.write("x")
        store.delete_record(key)
        assert not store.has_record(key)
        assert not os.path.exists(store.queue_ticket(key))
        assert not os.path.exists(store.result_path(key))

    def test_gc_removes_only_stale_temp_files(self, store):
        """A writer killed between its temp write and its rename or link
        leaves ``<name>.<hex>.tmp`` behind; gc removes those once stale
        and keeps fresh ones, whose writer may still be in flight."""
        from repro.service.jobs import DEFAULT_STALE_AFTER_S
        from repro.service.service import ExplorationService

        key = "5" * 64
        stale = [
            store._write_temp(path, "{}") for path in (
                store.record_path(key), store.result_path(key),
                store.instance_path("6" * 64),
            )
        ]
        fresh = store._write_temp(store.record_path(key), "{}")
        now = os.stat(fresh).st_mtime + 1.0
        old = now - DEFAULT_STALE_AFTER_S - 1.0
        for path in stale:
            os.utime(path, (old, old))
        removed = ExplorationService(store.root).gc(now=now)
        assert removed["orphan_results"] == len(stale)
        assert not any(os.path.exists(path) for path in stale)
        assert os.path.exists(fresh)


class TestHitLog:
    def test_log_counts_appends_and_starts_its_directory(self, store):
        key = "5" * 64
        assert not os.path.exists(os.path.dirname(store.hit_log(key)))
        assert store.logged_hits(key) == 0
        assert store.log_hit(key) == 1
        assert store.log_hit(key) == 2
        assert store.logged_hits(key) == 2

    def test_delete_record_removes_the_log(self, store):
        key = "6" * 64
        store.create_record(key, "r" * 64, "i" * 64, small_request())
        store.log_hit(key)
        store.delete_record(key)
        assert not os.path.exists(store.hit_log(key))

    def test_new_row_drops_a_stale_log(self, store):
        # a hit that raced the deletion of an earlier row for this key
        key = "7" * 64
        store.log_hit(key)
        store.create_record(key, "r" * 64, "i" * 64, small_request())
        assert store.logged_hits(key) == 0

    def test_existing_row_is_read_without_converting_the_request(
        self, store, monkeypatch
    ):
        request = small_request()
        key, rh, ih = store.cache_key(request)
        store.create_record(key, rh, ih, request)
        conversions = []
        real = ExplorationRequest.to_dict

        def counting(self):
            conversions.append(self)
            return real(self)

        monkeypatch.setattr(ExplorationRequest, "to_dict", counting)
        record, created = store.create_record(key, rh, ih, request)
        assert not created and record.request == real(request)
        assert conversions == []


class TestCreateRecordRace:
    RACES = 200
    THREADS = 8

    def test_racing_creators_see_only_complete_rows(self, store):
        """Losers of a creation race re-read the winner's row, which must
        be complete the moment it is visible: no racer may raise, and
        each key has exactly one creator."""
        request = small_request()
        errors = []
        created = [[False] * self.THREADS for _ in range(self.RACES)]

        def racer(barrier, race, index):
            key = f"{race:064x}"
            barrier.wait(timeout=30)
            try:
                record, won = store.create_record(
                    key, "r" * 64, "i" * 64, request
                )
                assert record.key == key
                created[race][index] = won
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for race in range(self.RACES):
                barrier = threading.Barrier(self.THREADS)
                threads = [
                    threading.Thread(target=racer, args=(barrier, race, i))
                    for i in range(self.THREADS)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert all(sum(row) == 1 for row in created)
        records_dir = os.path.dirname(store.record_path("0" * 64))
        assert sorted(os.listdir(records_dir)) == sorted(
            f"{race:064x}.json" for race in range(self.RACES)
        )

    def test_failed_publish_leaves_no_row_and_no_temp_file(
        self, store, monkeypatch
    ):
        key = "4" * 64
        real_link = os.link
        calls = []

        def failing_link(src, dst):
            calls.append(dst)
            if len(calls) == 1:
                raise OSError("simulated crash before publish")
            return real_link(src, dst)

        monkeypatch.setattr(os, "link", failing_link)
        with pytest.raises(OSError, match="simulated crash"):
            store.create_record(key, "r" * 64, "i" * 64, small_request())
        records_dir = os.path.dirname(store.record_path(key))
        assert os.listdir(records_dir) == []
        record, created = store.create_record(
            key, "r" * 64, "i" * 64, small_request()
        )
        assert created and record.status == "pending"
        assert os.listdir(records_dir) == [f"{key}.json"]
