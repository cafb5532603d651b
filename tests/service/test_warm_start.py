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

import pytest

from repro.api.specs import (
    ApplicationSpec,
    BudgetSpec,
    ExplorationRequest,
    StrategySpec,
)
from repro.errors import ServiceError
from repro.io import ProblemInstance, instance_to_dict
from repro.obs.telemetry import Telemetry
from repro.service import ExplorationService
from repro.service.store import instance_info_for


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

    def test_counts_anytime_partial(self, tmp_path, instance_doc):
        telemetry = Telemetry(label="svc")
        service = ExplorationService(
            str(tmp_path / "store"), telemetry=telemetry
        )
        service.submit_anytime(
            bundled_request(instance_doc), deadline_s=5.0
        )
        assert telemetry.counters["anytime_partial"] == 1
