"""Queue layer: claim/complete lifecycle, crash-safe requeue, workers.

The crash-safety tests drive everything through the public queue API —
claim a job the way a worker would, then simply never finish it.  No
store surgery: the recovery path must work on exactly the files a dead
worker leaves behind.
"""

import concurrent.futures
import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro
import repro.service.jobs as jobs_module
from repro.api.facade import explore
from repro.api.specs import ApplicationSpec, BudgetSpec, ExplorationRequest
from repro.bench.corpus import get_scenario
from repro.cli import main
from repro.errors import ConfigurationError, ServiceError
from repro.obs.telemetry import Telemetry
from repro.service.jobs import JobQueue, run_workers
from repro.service.service import ExplorationService
from repro.service.store import (
    ResultStore, compose_cache_key, instance_hash_for,
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
def fresh_pool():
    """No warm drain pool before or after the test, so no test sees
    another's."""
    jobs_module._drop_pool()
    yield
    jobs_module._drop_pool()


@pytest.fixture
def pools(monkeypatch, fresh_pool):
    """Replace the process pool with one that runs each submission in
    this process as it is submitted (so the spawned workers finish
    before the caller's drain starts); lists the pools built."""
    built = []

    class InlinePool(concurrent.futures.Executor):
        def __init__(self, max_workers, mp_context, initializer):
            self.max_workers = max_workers
            self.start_method = mp_context.get_start_method()
            self.initializer = initializer
            self.workers = []
            self.shut_down = False
            built.append(self)

        def submit(self, fn, *args):
            self.workers.append(args[1])
            future = concurrent.futures.Future()
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)
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
        # The claim took the ticket; the running row names the owner.
        assert not os.path.exists(service.store.queue_ticket(key))
        record = service.status(key)
        assert (record.status, record.worker) == ("running", "w0")
        assert service.stats()["queue"] == {"queued": 0, "claimed": 1}
        response = queue.execute(key)
        record = service.status(key)
        assert record.status == "done"
        assert record.attempts == 1
        assert record.telemetry is not None  # job internals absorbed
        assert service.stats()["queue"] == {"queued": 0, "claimed": 0}
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
        # No ticket is left, and a failed row holds no claim.
        assert not os.path.exists(service.store.queue_ticket(bad))
        assert service.stats()["queue"] == {"queued": 0, "claimed": 0}

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
        # A claim consumes the ticket, so a dead worker's job has none:
        # requeue_stale must mint a fresh one beside the pending row.
        key = submit_one(service)
        service.queue.claim("dead-worker")
        assert not os.path.exists(service.store.queue_ticket(key))
        assert service.queue.requeue_stale(stale_after_s=0.0) == [key]
        assert service.queue.pending_keys() == [key]
        assert service.store.load_record(key).status == "pending"

    def test_pending_record_without_ticket_is_healed(self, service):
        key = submit_one(service)
        os.unlink(service.store.queue_ticket(key))
        assert service.queue.pending_keys() == []
        service.queue.requeue_stale(stale_after_s=0.0)
        assert service.queue.pending_keys() == [key]

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
        assert not os.path.exists(service.store.queue_ticket(key))
        assert service.stats()["queue"] == {"queued": 0, "claimed": 0}
        marker = service.store.near_marker(record.structure_hash, key)
        with open(marker, encoding="ascii") as handle:
            assert handle.read() == record.instance_hash

    def test_done_row_without_envelope_is_requeued(self, service):
        # An envelope deleted under its done row: the next drain runs
        # the job again, whatever the row's age, and the key serves.
        request = small_request(seed=4)
        key = service.submit(request).key
        assert service.run_local() == 1
        os.unlink(service.store.result_path(key))
        assert service.queue.requeue_stale(stale_after_s=3600.0) == [key]
        record = service.status(key)
        assert record.status == "pending"
        assert record.error == "requeued: result envelope missing"
        assert run_workers(service.store.root, workers=1) == 1
        record = service.status(key)
        assert (record.status, record.attempts) == ("done", 2)
        assert service.stats()["executions"] == 2
        hit = service.submit(request)
        assert hit.status == "hit"
        assert hit.response_text == service.store.response_text(key)

    def test_store_of_an_earlier_version_drains(self, service):
        """An earlier version wrote the key into each ticket and renamed
        a claimed ticket into claims/.  Its pending, stale running and
        done rows all finish, and claims/ is never read."""
        root = service.store.root
        done = submit_one(service, seed=1)
        assert service.run_local() == 1
        running = submit_one(service, seed=2)
        assert service.queue.claim("dead-worker") == running
        pending = submit_one(service, seed=3)
        claims = os.path.join(root, "claims")
        os.mkdir(claims)
        for path, key in (
            (os.path.join(claims, f"{running}.ticket"), running),
            (service.store.queue_ticket(pending), pending),
        ):
            with open(path, "w") as handle:
                handle.write(key)
        assert run_workers(root, workers=1, stale_after_s=0) == 2
        records = [service.status(k) for k in (done, running, pending)]
        assert [r.status for r in records] == ["done"] * 3
        assert [r.attempts for r in records] == [1, 2, 1]
        assert service.stats()["queue"] == {"queued": 0, "claimed": 0}
        assert os.listdir(claims) == [f"{running}.ticket"]

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

    def test_worker_processes_drain_and_recover(self, service):
        keys = [submit_one(service, seed=s) for s in (1, 2, 3)]
        abandoned = service.queue.claim("dead-worker")
        executed = run_workers(
            service.store.root, workers=2, stale_after_s=0.0
        )
        assert executed == 3
        assert all(service.status(k).status == "done" for k in keys)
        assert service.status(abandoned).attempts == 2

    def test_relative_path_runs_the_submitted_file(
        self, tmp_path, monkeypatch
    ):
        """A relative path is read once, where the request is submitted:
        a drain from a directory whose file of that name holds another
        instance still runs the instance the key hashed."""
        documents = {}
        for name, scenario in (("a", "motion/2000"), ("b", "tgff/36")):
            (tmp_path / name).mkdir()
            documents[name] = get_scenario(scenario).document()
            with open(tmp_path / name / "app.json", "w") as handle:
                json.dump(documents[name], handle)
        root = str(tmp_path / "store")
        request = small_request(
            application=ApplicationSpec(kind="bundled", path="app.json")
        )
        monkeypatch.chdir(tmp_path / "a")
        service = ExplorationService(root)
        key = service.submit(request).key
        embedded = small_request(application=ApplicationSpec(
            kind="bundled", document=documents["a"]
        ))
        assert key == compose_cache_key(
            request.content_hash(), instance_hash_for(embedded)
        )
        assert service.store.load_record(key).request == embedded.to_dict()
        monkeypatch.chdir(tmp_path / "b")
        assert run_workers(root, workers=1) == 1
        monkeypatch.chdir(tmp_path / "a")
        hit = service.submit(request)
        assert (hit.status, hit.key) == ("hit", key)
        evaluation = hit.response.best["evaluation"]
        assert evaluation["hw_tasks"] + evaluation["sw_tasks"] == 28

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
        assert pool.initializer is jobs_module._exit_with_owner
        assert all(service.status(k).status == "done" for k in keys)
        # The pool stays up, and the next drain of that size reuses it.
        assert not pool.shut_down
        assert run_workers(service.store.root, workers=3) == 0
        assert pools == [pool]
        assert pool.workers == ["worker-1", "worker-2"] * 2

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

    def test_dead_worker_is_a_service_error(
        self, service, pools, monkeypatch, capsys
    ):
        def drain(root, worker, jobs, max_jobs):
            if worker == "worker-1":
                raise BrokenProcessPool("terminated abruptly")
            return 0, None

        monkeypatch.setattr(jobs_module, "_worker_main", drain)
        argv = ["serve", "run-workers", "--store", service.store.root]
        assert main(argv) == 2
        error = capsys.readouterr().err
        assert error.startswith("error: drain worker-1 died")
        assert "--stale-after" in error
        [pool] = pools
        assert pool.shut_down


def pool_pids():
    """Pids of this process's live multiprocessing children: the warm
    drain pool's workers (the resource tracker is not among them)."""
    return sorted(p.pid for p in multiprocessing.active_children())


def reaped(pid):
    """True once ``pid`` has left the process table."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def gone(pid):
    """True once ``pid`` is reaped or a zombie (an orphan whose new
    parent does not reap it)."""
    if reaped(pid):
        return True
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def wait_until(condition, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


class TestWarmPool:
    """The spawn pool outlives a drain: real processes, no stand-ins."""

    def test_two_calls_reuse_one_worker(self, service, fresh_pool):
        root = service.store.root
        submit_one(service, seed=1)
        assert run_workers(root, workers=2) == 1
        first = pool_pids()
        assert len(first) == 1
        submit_one(service, seed=2)
        assert run_workers(root, workers=2) == 1
        assert pool_pids() == first

    def test_another_size_replaces_the_pool(self, service, fresh_pool):
        root = service.store.root
        assert run_workers(root, workers=2) == 0
        [old] = pool_pids()
        submit_one(service, seed=1)
        assert run_workers(root, workers=3) == 1
        assert reaped(old)
        assert len(pool_pids()) == 2
        assert old not in pool_pids()

    def test_killed_idle_worker_is_replaced(self, service, fresh_pool):
        root = service.store.root
        assert run_workers(root, workers=2) == 0
        [victim] = pool_pids()
        os.kill(victim, signal.SIGKILL)
        # The pool reaps its dead worker after marking itself broken.
        wait_until(lambda: reaped(victim))
        keys = [submit_one(service, seed=s) for s in (1, 2)]
        assert run_workers(root, workers=2) == 2
        assert all(service.status(k).status == "done" for k in keys)
        [fresh] = pool_pids()
        assert fresh != victim

    def test_relative_paths_after_chdir(
        self, tmp_path, fresh_pool, monkeypatch
    ):
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / "a")
        ExplorationService("store")
        assert run_workers("store", workers=2) == 0
        [spawned] = pool_pids()
        shutil.rmtree(tmp_path / "a" / "store")
        # The warm worker was spawned in a/: the root and the requests'
        # relative paths must still resolve in b/.
        monkeypatch.chdir(tmp_path / "b")
        service = ExplorationService("store")
        with open("app.json", "w") as handle:
            json.dump(get_scenario("motion/2000").document(), handle)
        application = ApplicationSpec(kind="bundled", path="app.json")
        keys = [
            submit_one(service, seed=s, application=application)
            for s in (1, 2)
        ]
        # One job each, so worker-1 runs one.
        assert run_workers("store", workers=2, max_jobs=1) == 2
        records = [service.status(k) for k in keys]
        assert [r.status for r in records] == ["done", "done"]
        assert sorted(r.worker for r in records) == ["worker-0", "worker-1"]
        assert pool_pids() == [spawned]

    def test_caller_failure_drops_the_pool(self, service, fresh_pool,
                                           monkeypatch):
        root = service.store.root
        assert run_workers(root, workers=2) == 0
        [spawned] = pool_pids()

        def die(self, **kwargs):
            raise RuntimeError("caller drain died")

        # Patched here only: the spawned worker drains with the real loop.
        with monkeypatch.context() as patch:
            patch.setattr(JobQueue, "drain", die)
            with pytest.raises(RuntimeError, match="caller drain died"):
                run_workers(root, workers=2)
        assert reaped(spawned)
        assert pool_pids() == []
        key = submit_one(service)
        assert run_workers(root, workers=2) == 1
        assert service.status(key).status == "done"
        assert len(pool_pids()) == 1

    def test_concurrent_callers_share_the_pool(self, service, fresh_pool):
        """More callers than CPUs, two pool sizes, a short switch
        interval: every job still runs exactly once."""
        root = service.store.root
        keys = [submit_one(service, seed=s) for s in range(12)]
        executed, errors = [], []

        def drain(workers):
            try:
                executed.append(run_workers(root, workers=workers))
            except Exception as exc:  # surfaced by the asserts below
                errors.append(exc)

        threads = [
            threading.Thread(target=drain, args=(2 + index % 2,))
            for index in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sum(executed) == len(keys)
        records = [service.status(k) for k in keys]
        assert all(r.status == "done" and r.attempts == 1 for r in records)
        # Replaced pools were joined: only the warm pool's workers live.
        assert len(pool_pids()) == jobs_module._pool[0]


_CHILD = """
import multiprocessing, sys, time
from multiprocessing import resource_tracker
from repro.api.specs import BudgetSpec, ExplorationRequest
from repro.service.jobs import run_workers
from repro.service.service import ExplorationService

root = sys.argv[1]
service = ExplorationService(root)
for drain in range(int(sys.argv[2])):
    for seed in (1, 2):
        service.submit(ExplorationRequest(
            kind="single",
            budget=BudgetSpec(iterations=60, warmup_iterations=10),
            seed=10 * drain + seed,
        ))
    assert run_workers(root, workers=2) == 2
    [worker] = multiprocessing.active_children()
    print(worker.pid, resource_tracker._resource_tracker._pid, flush=True)
if sys.argv[3] == "sleep":
    time.sleep(60)
"""


def start_child(tmp_path, drains, then):
    """A Python process that runs ``drains`` 2-worker drains on a store
    of its own, printing its pool worker's and the resource tracker's
    pids after each, then sleeps (``then="sleep"``) or exits."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(tmp_path / "store"),
         str(drains), then],
        stdout=subprocess.PIPE, env=env, text=True,
    )


class TestRealCrashes:
    """SIGKILLs against real spawned processes."""

    def test_worker_killed_mid_job(self, service, fresh_pool):
        root = service.store.root
        budget = BudgetSpec(iterations=5000, warmup_iterations=10)
        keys = [submit_one(service, seed=s, budget=budget) for s in (1, 2)]
        errors = []

        def drain():
            try:
                run_workers(root, workers=2, max_jobs=1)
            except ServiceError as exc:
                errors.append(exc)

        thread = threading.Thread(target=drain)
        thread.start()

        def victim():
            return [
                key for key in keys
                if service.status(key).status == "running"
                and service.status(key).worker == "worker-1"
            ]

        wait_until(victim)
        [key] = victim()
        [pid] = pool_pids()
        os.kill(pid, signal.SIGKILL)
        thread.join(timeout=60)
        assert not thread.is_alive()
        [error] = errors
        assert "worker-1" in str(error) and "--stale-after" in str(error)
        assert service.status(key).status == "running"

        assert run_workers(root, workers=2, stale_after_s=0) == 1
        assert all(service.status(k).status == "done" for k in keys)
        assert service.status(key).attempts == 2
        assert service.queue.pending_keys() == []
        assert service.stats()["queue"] == {"queued": 0, "claimed": 0}
        [fresh] = pool_pids()
        assert fresh != pid

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads /proc for zombies")
    def test_owner_killed_leaves_nothing(self, tmp_path):
        child = start_child(tmp_path, drains=1, then="sleep")
        try:
            worker, tracker = map(int, child.stdout.readline().split())
        finally:
            child.kill()
            child.wait()
            child.stdout.close()
        wait_until(lambda: gone(worker) and gone(tracker), timeout_s=2.0)

    def test_normal_exit_joins_the_warm_worker(self, tmp_path):
        child = start_child(tmp_path, drains=2, then="exit")
        out, _ = child.communicate(timeout=60)
        assert child.returncode == 0
        first, second = (int(line.split()[0]) for line in out.splitlines())
        assert first == second
        assert reaped(first)
