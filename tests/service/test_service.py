"""Front door: cache-first submit, dedupe guarantees, stats, gc.

The acceptance contract of the service lives here: a byte-identical
request submitted twice performs exactly one computation — sequentially
*and* when the submits race — and the cache-served envelope is
byte-identical to the computed one.
"""

import json
import os
import sys
import threading

import pytest

from repro.api.specs import BudgetSpec, ExplorationRequest, StrategySpec
from repro.errors import ConfigurationError, ServiceError
from repro.obs.telemetry import Telemetry
from repro.service import ExplorationService
from repro.service.service import STATS_FORMAT, STATS_SCHEMA_VERSION


def small_request(**overrides):
    base = dict(
        kind="single",
        budget=BudgetSpec(iterations=60, warmup_iterations=10),
        seed=1,
    )
    base.update(overrides)
    return ExplorationRequest(**base)


@pytest.fixture
def service(tmp_path):
    return ExplorationService(str(tmp_path / "store"))


class TestSequentialDedupe:
    def test_one_computation_then_cache_hits(self, service):
        request = small_request()
        first = service.submit(request)
        assert first.status == "queued"
        again = service.submit(request)
        assert again.status == "inflight"
        assert again.key == first.key

        assert service.run_local() == 1

        hit = service.submit(request)
        assert hit.status == "hit"
        assert hit.cached
        record = service.status(first.key)
        assert record.attempts == 1  # exactly one computation
        assert record.hits == 1

    def test_cached_envelope_is_byte_identical_to_computed(self, service):
        request = small_request()
        key = service.submit(request).key
        # compute through the worker path, keeping the live response
        assert service.queue.claim("w0") == key
        computed = service.queue.execute(key)
        hit = service.submit(request)
        assert hit.status == "hit"
        assert hit.response_text == computed.to_json()
        assert hit.response.to_json() == computed.to_json()

    def test_distinct_requests_do_not_collide(self, service):
        one = service.submit(small_request(seed=1))
        two = service.submit(small_request(seed=2))
        assert one.key != two.key
        assert one.status == two.status == "queued"
        assert service.run_local() == 2

    def test_result_raises_until_done(self, service):
        key = service.submit(small_request()).key
        with pytest.raises(ServiceError, match="no result"):
            service.result(key)
        service.run_local()
        assert service.result(key).kind == "single"

    def test_wait_settles(self, service):
        key = service.submit(small_request()).key
        service.run_local()
        assert service.wait(key, timeout_s=1.0).status == "done"

    def test_wait_times_out(self, service):
        key = service.submit(small_request()).key
        with pytest.raises(ServiceError, match="timed out"):
            service.wait(key, timeout_s=0.05, poll_s=0.01)


class TestRacingDedupe:
    def test_racing_submits_yield_exactly_one_queued(self, service):
        request = small_request(seed=9)
        racers = 8
        barrier = threading.Barrier(racers)
        outcomes = [None] * racers

        def racer(index):
            # each thread gets its own service handle on the shared root
            svc = ExplorationService(service.store.root)
            barrier.wait()
            outcomes[index] = svc.submit(request)

        threads = [
            threading.Thread(target=racer, args=(i,)) for i in range(racers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        statuses = sorted(o.status for o in outcomes)
        assert statuses.count("queued") == 1
        assert statuses.count("inflight") == racers - 1
        assert len({o.key for o in outcomes}) == 1

        assert service.run_local() == 1
        assert service.status(outcomes[0].key).attempts == 1

    def test_hits_after_the_race_serve_identical_bytes(self, service):
        request = small_request(seed=9)
        service.submit(request)
        service.run_local()
        texts = {
            service.submit(request).response_text for _ in range(3)
        }
        assert len(texts) == 1


class TestFailedResubmit:
    def _fail_one(self, service):
        key = service.submit(small_request(seed=5)).key
        record = service.status(key)
        record.request["strategy"]["kind"] = "no-such-strategy"
        service.store.write_record(record)
        service.run_local()
        assert service.status(key).status == "failed"
        return key

    def test_failed_record_is_resubmitted(self, service):
        key = self._fail_one(service)
        # heal the stored request, then resubmit: back to pending
        record = service.status(key)
        record.request["strategy"]["kind"] = "sa"
        service.store.write_record(record)
        outcome = service.submit(small_request(seed=5))
        assert outcome.key == key
        assert outcome.status == "resubmitted"
        assert service.run_local() == 1
        assert service.status(key).status == "done"
        assert service.status(key).attempts == 2


class TestRefusedSubmit:
    def test_p_zero_without_catalog_writes_nothing(self, service):
        request = small_request(
            strategy=StrategySpec("hill_climber", {"p_zero": 0.2})
        )
        with pytest.raises(ConfigurationError, match="StrategySpec.catalog"):
            service.submit(request)
        assert service.store.list_keys() == []
        assert service.queue.pending_keys() == []


class TestTelemetry:
    def test_counters_and_phases(self, tmp_path):
        telemetry = Telemetry(label="svc")
        service = ExplorationService(
            str(tmp_path / "store"), telemetry=telemetry
        )
        request = small_request()
        service.submit(request)   # miss
        service.submit(request)   # inflight
        service.run_local()
        service.submit(request)   # hit
        assert telemetry.counters["cache_miss"] == 1
        assert telemetry.counters["dedupe_inflight"] == 1
        assert telemetry.counters["cache_hit"] == 1
        assert telemetry.timers["store_lookup_s"] > 0
        assert telemetry.timers["job_execute_s"] > 0

    def test_stream_summarizes(self, tmp_path):
        from repro.obs.telemetry import (
            load_events, summarize_events, validate_events,
        )

        telemetry = Telemetry(label="svc")
        service = ExplorationService(
            str(tmp_path / "store"), telemetry=telemetry
        )
        request = small_request()
        service.submit(request)
        service.run_local()
        service.submit(request)
        path = str(tmp_path / "svc.jsonl")
        telemetry.write_jsonl_path(path)
        events = load_events(path)
        validate_events(events)
        summary = summarize_events(events)
        assert summary["counters"]["cache_hit"] == 1
        assert summary["counters"]["cache_miss"] == 1
        assert "store_lookup_s" in summary["timers"]
        assert "job_execute_s" in summary["timers"]


class TestStatsAndGc:
    def test_stats_schema(self, service):
        request = small_request()
        service.submit(request)
        service.submit(request)
        service.submit(small_request(seed=2))
        service.run_local()
        service.submit(request)  # hit
        stats = service.stats()
        assert sorted(stats) == [
            "environment", "executions", "failed_attempts", "format",
            "hits", "queue", "records", "results", "root",
            "schema_version", "warm_start_hits", "warm_start_repairs",
        ]
        assert stats["format"] == STATS_FORMAT
        assert stats["schema_version"] == STATS_SCHEMA_VERSION
        assert stats["executions"] == 2  # two distinct requests ran once
        assert stats["hits"] == 1
        assert stats["records"] == {
            "pending": 0, "running": 0, "done": 2, "failed": 0, "total": 2,
        }
        assert stats["queue"] == {"queued": 0, "claimed": 0}
        assert stats["results"] == 2

    def test_gc_prunes_failed_and_orphans(self, service):
        key = service.submit(small_request(seed=5)).key
        record = service.status(key)
        record.request["strategy"]["kind"] = "no-such-strategy"
        service.store.write_record(record)
        service.run_local()
        # orphan ticket for a record that no longer exists
        orphan = service.store.queue_ticket("9" * 64)
        with open(orphan, "w") as handle:
            handle.write("x")
        removed = service.gc()
        assert removed["failed"] == 1
        assert removed["orphan_tickets"] == 1
        assert not service.store.has_record(key)

    def test_gc_ages_out_done_records(self, service):
        import time

        key = service.submit(small_request()).key
        service.run_local()
        removed = service.gc(done_older_than_s=3600.0)
        assert removed["done"] == 0  # still fresh
        removed = service.gc(
            done_older_than_s=0.0, now=time.time() + 10.0
        )
        assert removed["done"] == 1
        assert not service.store.has_response(key)


def _row_bytes(service, key):
    with open(service.store.record_path(key), "rb") as handle:
        return handle.read()


class TestReadOnlyHits:
    def test_hits_never_rewrite_the_row(self, service):
        request = small_request()
        key = service.submit(request).key
        service.run_local()
        row = _row_bytes(service, key)
        first = service.submit(request)
        second = service.submit(request)
        assert (first.record.hits, second.record.hits) == (1, 2)
        assert _row_bytes(service, key) == row
        assert service.status(key).hits == 2
        assert service.store.load_record(key).hits == 0  # the row's own

    def test_hit_racing_gc_leaves_the_key_servable(
        self, service, monkeypatch
    ):
        """gc deletes the row and envelope after a hit read the envelope:
        the hit must not bring the row back, and a re-submit recomputes
        instead of failing on the missing envelope."""
        request = small_request()
        key = service.submit(request).key
        service.run_local()
        real = service.store.response_text

        def read_then_gc(hit_key):
            text = real(hit_key)
            service.gc(done_older_than_s=0)
            return text

        monkeypatch.setattr(service.store, "response_text", read_then_gc)
        hit = service.submit(request)
        monkeypatch.undo()
        assert hit.status == "hit"
        assert not service.store.has_record(key)
        assert not service.store.has_response(key)
        again = service.submit(request)
        assert again.status == "queued" and again.key == key
        assert service.status(key).hits == 0
        assert service.run_local() == 1
        assert service.submit(request).status == "hit"


class TestConcurrentHits:
    THREADS = 8
    HITS = 25

    def test_racing_hits_lose_no_count(self, service):
        request = small_request(seed=4)
        key = service.submit(request).key
        service.run_local()
        row = _row_bytes(service, key)
        errors = []
        barrier = threading.Barrier(self.THREADS)

        def racer():
            barrier.wait(timeout=30)
            try:
                for _ in range(self.HITS):
                    assert service.submit(request).status == "hit"
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=racer) for _ in range(self.THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        total = self.THREADS * self.HITS
        assert service.stats()["hits"] == total
        assert service.status(key).hits == total
        assert _row_bytes(service, key) == row


class TestEarlierStoreLayout:
    """Stores written by earlier versions (indented rows that count
    hits in place, no ``hits/`` directory) keep working."""

    def test_indented_row_keeps_its_hits_and_is_not_rewritten(self, service):
        request = small_request()
        key = service.submit(request).key
        service.run_local()
        data = service.store.load_record(key).to_dict()
        data["hits"] = 2  # counted in place, as earlier versions did
        with open(service.store.record_path(key), "w") as handle:
            handle.write(json.dumps(data, indent=2))
        row = _row_bytes(service, key)
        assert not os.path.exists(
            os.path.join(service.store.root, service.store.HITS_DIR)
        )
        assert service.stats()["hits"] == 2
        assert service.status(key).hits == 2
        hit = service.submit(request)
        assert hit.status == "hit" and hit.record.hits == 3
        assert service.stats()["hits"] == 3
        assert service.status(key).hits == 3
        assert _row_bytes(service, key) == row

    def test_indented_envelope_is_served_byte_for_byte(self, service):
        """Envelopes are written on one line now; a hit on an indented
        envelope (how earlier versions wrote them) serves its bytes."""
        request = small_request()
        key = service.submit(request).key
        service.run_local()
        compact = service.store.response_text(key)
        assert "\n" not in compact
        indented = service.result(key).to_json(indent=2)
        assert json.loads(indented) == json.loads(compact)
        with open(service.store.result_path(key), "w") as handle:
            handle.write(indented)
        hit = service.submit(request)
        assert hit.status == "hit"
        assert hit.response_text == indented
        assert hit.response.to_dict() == json.loads(compact)

    def test_gc_removes_hit_logs_with_their_rows_and_orphans(self, service):
        request = small_request()
        key = service.submit(request).key
        service.run_local()
        service.submit(request)
        orphan = service.store.hit_log("8" * 64)
        service.store.log_hit("8" * 64)
        removed = service.gc(done_older_than_s=0)
        assert removed == {
            "failed": 0, "done": 1, "orphan_tickets": 0,
            "orphan_results": 1,
        }
        assert not os.path.exists(service.store.hit_log(key))
        assert not os.path.exists(orphan)

    def test_gc_without_a_hits_directory(self, service):
        assert not os.path.exists(
            os.path.join(service.store.root, service.store.HITS_DIR)
        )
        assert service.gc() == {
            "failed": 0, "done": 0, "orphan_tickets": 0,
            "orphan_results": 0,
        }
