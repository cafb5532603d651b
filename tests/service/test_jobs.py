"""Queue layer: claim/complete lifecycle, crash-safe requeue, workers.

The crash-safety tests drive everything through the public queue API —
claim a job the way a worker would, then simply never finish it.  No
store surgery: the recovery path must work on exactly the files a dead
worker leaves behind.
"""

import concurrent.futures
import os

import pytest

import repro.service.jobs as jobs_module
from repro.api.facade import explore
from repro.api.specs import BudgetSpec, ExplorationRequest
from repro.errors import ConfigurationError, ServiceError
from repro.obs.telemetry import Telemetry
from repro.service import (
    ExplorationService,
    JobQueue,
    ResultStore,
    run_workers,
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
def service(tmp_path):
    return ExplorationService(str(tmp_path / "store"))


def submit_one(service, **overrides):
    return service.submit(small_request(**overrides)).key


@pytest.fixture
def pools(monkeypatch):
    """Replace the process pool with one that runs each submission in
    this process as it is submitted (so the spawned workers finish
    before the caller's drain starts); lists the pools built."""
    built = []

    class InlinePool(concurrent.futures.Executor):
        def __init__(self, max_workers, mp_context):
            self.max_workers = max_workers
            self.start_method = mp_context.get_start_method()
            self.workers = []
            self.shut_down = False
            built.append(self)

        def submit(self, fn, *args):
            self.workers.append(args[1])
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, wait=True, **kwargs):
            self.shut_down = wait

    monkeypatch.setattr(jobs_module, "ProcessPoolExecutor", InlinePool)
    return built


class TestLifecycle:
    def test_claim_execute_complete(self, service):
        key = submit_one(service)
        queue = service.queue
        assert queue.pending_keys() == [key]
        claimed = queue.claim("w0")
        assert claimed == key
        assert queue.pending_keys() == []
        assert queue.claimed_keys() == [key]
        assert service.status(key).status == "running"
        response = queue.execute(key)
        record = service.status(key)
        assert record.status == "done"
        assert record.attempts == 1
        assert record.telemetry is not None  # job internals absorbed
        assert queue.claimed_keys() == []
        assert service.store.response_text(key) == response.to_json()

    def test_enqueue_requires_a_record(self, service):
        with pytest.raises(ServiceError, match="no record row"):
            service.queue.enqueue("4" * 64)

    def test_claim_empty_queue(self, service):
        assert service.queue.claim("w0") is None

    def test_second_claim_loses(self, service):
        submit_one(service)
        assert service.queue.claim("w0") is not None
        assert service.queue.claim("w1") is None

    def test_execute_requires_a_claim(self, service):
        key = submit_one(service)
        with pytest.raises(ServiceError, match="claim it first"):
            service.queue.execute(key)

    def test_fifo_claim_order(self, service):
        import time

        first = submit_one(service, seed=1)
        time.sleep(0.02)  # distinct ticket mtimes
        second = submit_one(service, seed=2)
        assert service.queue.pending_keys() == [first, second]
        assert service.queue.claim("w0") == first

    def test_poisoned_job_fails_but_drain_continues(self, service):
        bad = submit_one(service, seed=5)
        good = submit_one(service, seed=6)
        # corrupt the stored request document (schema drift on disk)
        record = service.status(bad)
        record.request["strategy"]["kind"] = "no-such-strategy"
        service.store.write_record(record)
        executed = service.queue.drain(worker="w0")
        assert executed == 1
        assert service.status(good).status == "done"
        failed = service.status(bad)
        assert failed.status == "failed"
        assert "no-such-strategy" in failed.error
        assert service.queue.claimed_keys() == []  # claim released

    def test_drain_max_jobs(self, service):
        submit_one(service, seed=1)
        submit_one(service, seed=2)
        assert service.queue.drain(worker="w0", max_jobs=1) == 1
        assert len(service.queue.pending_keys()) == 1


class TestCrashSafety:
    def test_stale_running_job_is_requeued_and_completed(self, service):
        # A worker claims the job, then "dies" — nothing else touches
        # the store.  The next worker must requeue and finish it.
        key = submit_one(service)
        assert service.queue.claim("dead-worker") == key
        assert service.status(key).status == "running"

        fresh = JobQueue(ResultStore(service.store.root, create=False))
        requeued = fresh.requeue_stale(stale_after_s=0.0)
        assert requeued == [key]
        record = service.status(key)
        assert record.status == "pending"
        assert "dead-worker" in record.error
        assert fresh.pending_keys() == [key]

        assert fresh.drain(worker="w1") == 1
        record = service.status(key)
        assert record.status == "done"
        assert record.attempts == 2  # both claims are in the history
        statuses = [h["status"] for h in record.history]
        assert statuses == ["pending", "running", "pending",
                            "running", "done"]

    def test_fresh_claims_are_not_robbed(self, service):
        key = submit_one(service)
        service.queue.claim("live-worker")
        assert service.queue.requeue_stale(stale_after_s=3600.0) == []
        assert service.status(key).status == "running"

    def test_lost_ticket_is_recreated(self, service):
        # Crash window: the claim rename happened but the worker died
        # before stamping the record; later the claim ticket was lost
        # too.  requeue_stale must mint a fresh ticket.
        key = submit_one(service)
        service.queue.claim("dead-worker")
        os.unlink(service.store.claim_ticket(key))
        assert service.queue.requeue_stale(stale_after_s=0.0) == [key]
        assert service.queue.pending_keys() == [key]

    def test_pending_record_without_ticket_is_healed(self, service):
        key = submit_one(service)
        os.unlink(service.store.queue_ticket(key))
        assert service.queue.pending_keys() == []
        service.queue.requeue_stale(stale_after_s=0.0)
        assert service.queue.pending_keys() == [key]

    def test_phantom_claim_of_a_finished_job_is_dropped(self, service):
        # Crash window: the done row was written, the claim ticket's
        # unlink never happened.  The next drain's recovery drops it.
        key = submit_one(service)
        assert service.run_local() == 1
        executions = service.stats()["executions"]
        with open(service.store.claim_ticket(key), "w") as handle:
            handle.write(key)
        assert service.stats()["queue"]["claimed"] == 1
        assert run_workers(service.store.root, workers=1) == 0
        stats = service.stats()
        assert stats["queue"]["claimed"] == 0
        assert stats["executions"] == executions

    def test_durable_envelope_is_adopted_not_rerun(self, service):
        # Crash window: the envelope is in place, the done row never got
        # written.  Recovery finishes the row instead of running again.
        key = submit_one(service)
        assert service.queue.claim("dead-worker") == key
        text = service.store.put_response(key, explore(small_request()))
        executions = service.stats()["executions"]
        assert run_workers(service.store.root, workers=1,
                           stale_after_s=0) == 0
        record = service.status(key)
        assert (record.status, record.attempts) == ("done", 1)
        assert record.worker == "dead-worker"
        assert service.stats()["executions"] == executions
        hit = service.submit(small_request())
        assert hit.status == "hit" and hit.response_text == text
        assert os.listdir(os.path.join(
            service.store.root, service.store.CLAIMS_DIR)) == []
        marker = service.store.near_marker(record.structure_hash, key)
        with open(marker, encoding="ascii") as handle:
            assert handle.read() == record.instance_hash

    def test_failed_job_claim_dropped_live_claim_kept(self, service):
        failed = submit_one(service, seed=1)
        assert service.queue.claim("w0") == failed
        service.queue.fail(failed, "boom")
        with open(service.store.claim_ticket(failed), "w") as handle:
            handle.write(failed)
        live = submit_one(service, seed=2)
        assert service.queue.claim("live-worker") == live
        assert service.queue.requeue_stale() == []
        assert service.queue.claimed_keys() == [live]

    def test_requeue_counter(self, service):
        telemetry = Telemetry(label="t")
        key = submit_one(service)
        queue = JobQueue(service.store, telemetry=telemetry)
        queue.claim("dead-worker")
        queue.requeue_stale(stale_after_s=0.0)
        assert telemetry.counters["job_requeued"] == 1
        assert any(
            e["kind"] == "job_requeued" and e["key"] == key
            for e in telemetry.events
        )


class TestRunWorkers:
    def test_inline_worker_drains(self, service):
        keys = [submit_one(service, seed=s) for s in (1, 2)]
        telemetry = Telemetry(label="pool")
        executed = run_workers(
            service.store.root, workers=1, telemetry=telemetry
        )
        assert executed == 2
        assert all(service.status(k).status == "done" for k in keys)
        assert telemetry.counters["job_completed"] == 2

    def test_process_pool_drains_and_recovers(self, service):
        keys = [submit_one(service, seed=s) for s in (1, 2, 3)]
        abandoned = service.queue.claim("dead-worker")
        executed = run_workers(
            service.store.root, workers=2, stale_after_s=0.0
        )
        assert executed == 3
        assert all(service.status(k).status == "done" for k in keys)
        assert service.status(abandoned).attempts == 2

    def test_workers_must_be_positive(self, service):
        with pytest.raises(ConfigurationError, match="workers"):
            run_workers(service.store.root, workers=0)

    def test_missing_store_is_a_service_error(self, tmp_path):
        with pytest.raises(ServiceError, match="no exploration store"):
            run_workers(str(tmp_path / "absent"), workers=1)

    def test_single_worker_builds_no_pool(self, service, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("workers=1 built a process pool")

        monkeypatch.setattr(jobs_module, "ProcessPoolExecutor", refuse)
        key = submit_one(service)
        assert run_workers(service.store.root, workers=1) == 1
        assert service.status(key).worker == "worker-0"

    def test_caller_is_worker_0_and_spawns_the_rest(self, service, pools):
        keys = [submit_one(service, seed=s) for s in (1, 2)]
        assert run_workers(service.store.root, workers=3) == 2
        [pool] = pools
        assert pool.max_workers == 2
        assert pool.start_method == "spawn"
        assert pool.workers == ["worker-1", "worker-2"]
        assert pool.shut_down
        assert all(service.status(k).status == "done" for k in keys)

    def test_telemetry_absorbed_worker_0_first(
        self, service, pools, monkeypatch
    ):
        def drain(root, worker, jobs, max_jobs):
            recorder = Telemetry(label=worker)
            recorder.count("job_completed")
            recorder.event("drained", worker=worker)
            return 1, recorder.export()

        monkeypatch.setattr(jobs_module, "_worker_main", drain)
        telemetry = Telemetry(label="pool")
        executed = run_workers(
            service.store.root, workers=3, telemetry=telemetry
        )
        assert executed == 3
        assert telemetry.counters["job_completed"] == 3
        # The spawned workers finished first; worker 0 still leads.
        assert [
            (e["job"], e["tag"], e["worker"])
            for e in telemetry.events if e["kind"] == "drained"
        ] == [(i, f"worker-{i}", f"worker-{i}") for i in range(3)]

    def test_caller_failure_shuts_the_pool_down(
        self, service, pools, monkeypatch
    ):
        def drain(root, worker, jobs, max_jobs):
            if worker == "worker-0":
                raise RuntimeError("caller drain died")
            return 0, None

        monkeypatch.setattr(jobs_module, "_worker_main", drain)
        with pytest.raises(RuntimeError, match="caller drain died"):
            run_workers(service.store.root, workers=2)
        [pool] = pools
        assert pool.workers == ["worker-1"]
        assert pool.shut_down
