"""Instance structure identity and delta classification.

``structure_digest`` keys the warm-start near-index: it must be blind
to every numeric field (a perturbed instance can reuse a donor's
solution) and sensitive to every structural one (a different search
space cannot).  ``diff_instances`` classifies how far apart two
same-structure instances actually are.
"""

import copy

import pytest

from repro.io import (
    ProblemInstance,
    content_digest,
    diff_instances,
    instance_to_dict,
    structure_digest,
)


@pytest.fixture
def instance_doc(small_app, small_arch):
    return instance_to_dict(
        ProblemInstance(small_app, small_arch, deadline_ms=40.0)
    )


class TestStructureDigest:
    def test_accepts_instances_and_documents(
        self, small_app, small_arch, instance_doc
    ):
        instance = ProblemInstance(small_app, small_arch, deadline_ms=40.0)
        assert structure_digest(instance) == structure_digest(instance_doc)
        assert content_digest(instance) == content_digest(instance_doc)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d["application"]["tasks"][0].update(sw_time_ms=99.0),
            lambda d: d["application"]["tasks"][1]["implementations"][0]
            .update(time_ms=0.123, clbs=7),
            lambda d: d["application"]["dependencies"][0]
            .update(data_kbytes=1e6),
            lambda d: d["architecture"]["bus"]
            .update(rate_kbytes_per_ms=1.0),
            lambda d: d.update(deadline_ms=None),
            lambda d: d.update(name="renamed", metadata={"extra": 1}),
        ],
        ids=["sw_time", "impl_params", "data_kbytes", "bus_rate",
             "deadline", "labels"],
    )
    def test_ignores_numeric_and_label_drift(self, instance_doc, mutate):
        perturbed = copy.deepcopy(instance_doc)
        mutate(perturbed)
        assert structure_digest(perturbed) == structure_digest(instance_doc)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d["application"]["tasks"].pop(),
            lambda d: d["application"]["dependencies"].pop(),
            lambda d: d["application"]["tasks"][1]["implementations"].pop(),
            lambda d: d["architecture"]["resources"][0]
            .update(name="other_cpu"),
            lambda d: d["architecture"]["resources"][0]
            .update(kind="asic"),
        ],
        ids=["task", "dependency", "impl_count", "resource_name",
             "resource_kind"],
    )
    def test_changes_on_structural_drift(self, instance_doc, mutate):
        perturbed = copy.deepcopy(instance_doc)
        mutate(perturbed)
        assert structure_digest(perturbed) != structure_digest(instance_doc)


class TestDiffInstances:
    def test_identical(self, instance_doc):
        delta = diff_instances(instance_doc, copy.deepcopy(instance_doc))
        assert delta.kind == "identical"
        assert delta.size == 0
        assert delta.changed == []

    def test_param_only_delta(self, instance_doc):
        perturbed = copy.deepcopy(instance_doc)
        perturbed["application"]["tasks"][0]["sw_time_ms"] = 99.0
        perturbed["deadline_ms"] = 50.0
        delta = diff_instances(instance_doc, perturbed)
        assert delta.kind == "param"
        assert delta.size == 2
        assert delta.param_changes == 2
        assert delta.structural_changes == 0
        assert any("sw_time_ms" in c for c in delta.changed)
        assert any("deadline_ms" in c for c in delta.changed)

    def test_structural_delta_dominates(self, instance_doc):
        perturbed = copy.deepcopy(instance_doc)
        perturbed["application"]["tasks"][0]["sw_time_ms"] = 99.0
        del perturbed["application"]["dependencies"][0]
        delta = diff_instances(instance_doc, perturbed)
        assert delta.kind == "structural"
        assert delta.param_changes == 1
        assert delta.structural_changes == 1
        assert delta.size == 2

    def test_resource_kind_change_is_structural(self, instance_doc):
        perturbed = copy.deepcopy(instance_doc)
        for resource in perturbed["architecture"]["resources"]:
            if resource["kind"] == "reconfigurable":
                resource["kind"] = "asic"
        delta = diff_instances(instance_doc, perturbed)
        assert delta.kind == "structural"

    def test_resource_param_change_is_param(self, instance_doc):
        perturbed = copy.deepcopy(instance_doc)
        for resource in perturbed["architecture"]["resources"]:
            if resource["kind"] == "reconfigurable":
                resource["n_clbs"] = 123
        delta = diff_instances(instance_doc, perturbed)
        assert delta.kind == "param"
        assert delta.size == 1

    def test_to_dict_round_trip_fields(self, instance_doc):
        perturbed = copy.deepcopy(instance_doc)
        perturbed["application"]["tasks"][0]["sw_time_ms"] = 99.0
        document = diff_instances(instance_doc, perturbed).to_dict()
        assert document["kind"] == "param"
        assert document["size"] == 1
        assert document["param_changes"] == 1
        assert document["structural_changes"] == 0
        assert len(document["changed"]) == 1

    def test_same_digest_implies_non_structural(self, instance_doc):
        # the invariant the near-index relies on, spot-checked: numeric
        # perturbations keep the digest AND classify as param-only
        perturbed = copy.deepcopy(instance_doc)
        perturbed["application"]["tasks"][2]["implementations"][1][
            "time_ms"
        ] = 3.21
        assert structure_digest(perturbed) == structure_digest(instance_doc)
        assert diff_instances(instance_doc, perturbed).kind == "param"
