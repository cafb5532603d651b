"""JSON (de)serialization of applications, architectures and solutions.

Stable, versioned, human-diffable formats so problem instances and
mapping results can be archived, shared, and reloaded — what downstream
users of a DSE tool actually need.  Round-tripping is exact (tested):
``load_application(dump_application(app))`` reproduces every task,
implementation and edge.

Two instance-identity notions live here:

* the *content* digest (:func:`content_digest`) covers every byte of
  the bundled document — two instances are the same problem iff it
  matches; service cache keys and ``bench.corpus.scenario_hash`` use
  it;
* the *structure* digest (:func:`structure_digest`) covers only the
  topology skeleton — task indices and implementation counts, the
  dependency edge set, and resource names/kinds — ignoring all numeric
  durations/rates/capacities.  Instances sharing a structure digest can
  exchange mapping solutions (possibly after repair), which is what the
  exploration service's warm-start donor index keys on, with
  :func:`diff_instances` classifying how far apart two such instances
  actually are.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from repro.arch.architecture import Architecture
from repro.arch.asic import Asic
from repro.arch.bus import Bus
from repro.arch.processor import Processor
from repro.arch.reconfigurable import ReconfigurableCircuit
from repro.errors import ConfigurationError, MappingError
from repro.mapping.solution import Solution
from repro.model.application import Application
from repro.model.task import Implementation, Task

FORMAT_VERSION = 1


def _check_version(data: Dict[str, Any], kind: str) -> None:
    if data.get("format") != kind:
        raise ConfigurationError(
            f"expected a {kind!r} document, got {data.get('format')!r}"
        )
    if data.get("version") != FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported {kind} format version {data.get('version')!r}"
        )


# ----------------------------------------------------------------------
# applications
# ----------------------------------------------------------------------
def application_to_dict(application: Application) -> Dict[str, Any]:
    return {
        "format": "application",
        "version": FORMAT_VERSION,
        "name": application.name,
        "tasks": [
            {
                "index": task.index,
                "name": task.name,
                "functionality": task.functionality,
                "sw_time_ms": task.sw_time_ms,
                "implementations": [
                    {"clbs": i.clbs, "time_ms": i.time_ms, "name": i.name}
                    for i in task.implementations
                ],
            }
            for task in sorted(application.tasks(), key=lambda t: t.index)
        ],
        "dependencies": [
            {"src": src, "dst": dst, "data_kbytes": kbytes}
            for src, dst, kbytes in sorted(application.dependencies())
        ],
    }


def application_from_dict(data: Dict[str, Any]) -> Application:
    _check_version(data, "application")
    app = Application(data["name"])
    for entry in data["tasks"]:
        app.add_task(
            Task(
                index=entry["index"],
                name=entry["name"],
                functionality=entry["functionality"],
                sw_time_ms=entry["sw_time_ms"],
                implementations=tuple(
                    Implementation(
                        clbs=i["clbs"], time_ms=i["time_ms"],
                        name=i.get("name", ""),
                    )
                    for i in entry["implementations"]
                ),
            )
        )
    for edge in data["dependencies"]:
        app.add_dependency(edge["src"], edge["dst"], edge["data_kbytes"])
    app.validate()
    return app


def dump_application(application: Application, indent: int = 2) -> str:
    return json.dumps(application_to_dict(application), indent=indent)


def load_application(text: str) -> Application:
    return application_from_dict(json.loads(text))


# ----------------------------------------------------------------------
# architectures
# ----------------------------------------------------------------------
def architecture_to_dict(architecture: Architecture) -> Dict[str, Any]:
    resources: List[Dict[str, Any]] = []
    for resource in architecture.resources():
        entry: Dict[str, Any] = {
            "name": resource.name,
            "monetary_cost": resource.monetary_cost,
        }
        if isinstance(resource, Processor):
            entry["kind"] = "processor"
            entry["speed_factor"] = resource.speed_factor
        elif isinstance(resource, ReconfigurableCircuit):
            entry["kind"] = "reconfigurable"
            entry["n_clbs"] = resource.n_clbs
            entry["reconfig_ms_per_clb"] = resource.reconfig_ms_per_clb
            entry["partial_reconfiguration"] = resource.partial_reconfiguration
        elif isinstance(resource, Asic):
            entry["kind"] = "asic"
        else:  # pragma: no cover - defensive
            raise ConfigurationError(
                f"cannot serialize resource type {type(resource).__name__}"
            )
        resources.append(entry)
    return {
        "format": "architecture",
        "version": FORMAT_VERSION,
        "name": architecture.name,
        "bus": {
            "name": architecture.bus.name,
            "rate_kbytes_per_ms": architecture.bus.rate_kbytes_per_ms,
            "latency_ms": architecture.bus.latency_ms,
        },
        "resources": resources,
    }


def architecture_from_dict(data: Dict[str, Any]) -> Architecture:
    _check_version(data, "architecture")
    bus = Bus(
        name=data["bus"]["name"],
        rate_kbytes_per_ms=data["bus"]["rate_kbytes_per_ms"],
        latency_ms=data["bus"].get("latency_ms", 0.0),
    )
    arch = Architecture(data["name"], bus=bus)
    for entry in data["resources"]:
        kind = entry["kind"]
        if kind == "processor":
            arch.add_resource(
                Processor(
                    entry["name"],
                    speed_factor=entry.get("speed_factor", 1.0),
                    monetary_cost=entry.get("monetary_cost", 0.0),
                )
            )
        elif kind == "reconfigurable":
            arch.add_resource(
                ReconfigurableCircuit(
                    entry["name"],
                    n_clbs=entry["n_clbs"],
                    reconfig_ms_per_clb=entry["reconfig_ms_per_clb"],
                    monetary_cost=entry.get("monetary_cost", 0.0),
                    partial_reconfiguration=entry.get(
                        "partial_reconfiguration", True
                    ),
                )
            )
        elif kind == "asic":
            arch.add_resource(
                Asic(entry["name"], monetary_cost=entry.get("monetary_cost", 0.0))
            )
        else:
            raise ConfigurationError(f"unknown resource kind {kind!r}")
    return arch


def dump_architecture(architecture: Architecture, indent: int = 2) -> str:
    return json.dumps(architecture_to_dict(architecture), indent=indent)


def load_architecture(text: str) -> Architecture:
    return architecture_from_dict(json.loads(text))


# ----------------------------------------------------------------------
# bundled problem instances
# ----------------------------------------------------------------------
@dataclass
class ProblemInstance:
    """One self-contained DSE problem: what to map, onto what, by when.

    The bundled document is what the benchmark corpus hashes and what
    users archive next to results — a mapping experiment is not
    reproducible from an application alone.  ``metadata`` is free-form
    JSON (the corpus stores ``family``/``params``/``seed`` there).
    """

    application: Application
    architecture: Architecture
    deadline_ms: Optional[float] = None
    name: str = ""
    metadata: Dict[str, Any] = field(default_factory=dict)


def instance_to_dict(instance: ProblemInstance) -> Dict[str, Any]:
    return {
        "format": "instance",
        "version": FORMAT_VERSION,
        "name": instance.name or instance.application.name,
        "deadline_ms": instance.deadline_ms,
        "application": application_to_dict(instance.application),
        "architecture": architecture_to_dict(instance.architecture),
        "metadata": instance.metadata,
    }


def instance_from_dict(data: Dict[str, Any]) -> ProblemInstance:
    _check_version(data, "instance")
    return ProblemInstance(
        application=application_from_dict(data["application"]),
        architecture=architecture_from_dict(data["architecture"]),
        deadline_ms=data.get("deadline_ms"),
        name=data.get("name", ""),
        metadata=dict(data.get("metadata", {})),
    )


def dump_instance(instance: ProblemInstance, indent: int = 2) -> str:
    return json.dumps(instance_to_dict(instance), indent=indent)


def load_instance(text: str) -> ProblemInstance:
    return instance_from_dict(json.loads(text))


# ----------------------------------------------------------------------
# instance structure identity and deltas
# ----------------------------------------------------------------------
def _instance_document(
    instance: Union[ProblemInstance, Dict[str, Any]],
) -> Dict[str, Any]:
    if isinstance(instance, ProblemInstance):
        return instance_to_dict(instance)
    return instance


def _canonical_sha256(document: Any) -> str:
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def content_digest(
    instance: Union[ProblemInstance, Dict[str, Any]],
) -> str:
    """SHA-256 of the instance's canonical bundled document.

    Two runs (or two machines, or two Python versions) produce the same
    digest exactly when they describe the same problem.
    """
    return _canonical_sha256(_instance_document(instance))


def structure_digest(
    instance: Union[ProblemInstance, Dict[str, Any]],
) -> str:
    """SHA-256 of the instance's *structure-only* skeleton.

    Covers the task index set with per-task implementation counts, the
    dependency ``(src, dst)`` edge set, and the resource name/kind set —
    and deliberately ignores every numeric field (durations, transfer
    volumes, bus rates, CLB capacities, deadlines) plus names/metadata.
    Two instances with equal digests describe the same mapping search
    space shape: a solution document for one can seed the other.
    """
    doc = _instance_document(instance)
    skeleton = {
        "tasks": sorted(
            [entry["index"], len(entry["implementations"])]
            for entry in doc["application"]["tasks"]
        ),
        "deps": sorted(
            [edge["src"], edge["dst"]]
            for edge in doc["application"]["dependencies"]
        ),
        "resources": sorted(
            [entry["name"], entry["kind"]]
            for entry in doc["architecture"]["resources"]
        ),
    }
    return _canonical_sha256(skeleton)


#: Cap on the per-field descriptions an :class:`InstanceDelta` carries.
_DELTA_CHANGE_CAP = 32


@dataclass
class InstanceDelta:
    """Classified difference between two problem instances.

    ``kind`` is ``"identical"`` (no differences), ``"param"`` (only
    numeric parameters differ — durations, volumes, rates, capacities,
    deadline: a donor solution re-maps directly), or ``"structural"``
    (tasks/edges/resources/implementations appeared or vanished: a
    donor solution needs repair).  ``size`` counts every differing
    field; ``changed`` holds up to ``_DELTA_CHANGE_CAP`` short
    descriptions for diagnostics.
    """

    kind: str
    size: int
    param_changes: int
    structural_changes: int
    changed: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "size": self.size,
            "param_changes": self.param_changes,
            "structural_changes": self.structural_changes,
            "changed": list(self.changed),
        }


class _DeltaBuilder:
    def __init__(self) -> None:
        self.param = 0
        self.structural = 0
        self.changed: List[str] = []

    def _note(self, description: str) -> None:
        if len(self.changed) < _DELTA_CHANGE_CAP:
            self.changed.append(description)

    def add_param(self, description: str) -> None:
        self.param += 1
        self._note(description)

    def add_structural(self, description: str) -> None:
        self.structural += 1
        self._note(description)

    def compare_scalar(self, label: str, a: Any, b: Any) -> None:
        if a != b:
            self.add_param(f"{label}: {a!r} -> {b!r}")

    def build(self) -> InstanceDelta:
        if self.structural:
            kind = "structural"
        elif self.param:
            kind = "param"
        else:
            kind = "identical"
        return InstanceDelta(
            kind=kind,
            size=self.param + self.structural,
            param_changes=self.param,
            structural_changes=self.structural,
            changed=self.changed,
        )


def diff_instances(
    a: Union[ProblemInstance, Dict[str, Any]],
    b: Union[ProblemInstance, Dict[str, Any]],
) -> InstanceDelta:
    """Classify the delta between two instances (``a`` = donor,
    ``b`` = target): param-only vs structural, and its size.

    Works on :class:`ProblemInstance` objects or their canonical
    bundled documents interchangeably.  Names and free-form metadata
    are ignored — they carry no mapping semantics.
    """
    doc_a = _instance_document(a)
    doc_b = _instance_document(b)
    delta = _DeltaBuilder()

    # -- tasks ---------------------------------------------------------
    tasks_a = {t["index"]: t for t in doc_a["application"]["tasks"]}
    tasks_b = {t["index"]: t for t in doc_b["application"]["tasks"]}
    for index in sorted(tasks_a.keys() - tasks_b.keys()):
        delta.add_structural(f"task {index} removed")
    for index in sorted(tasks_b.keys() - tasks_a.keys()):
        delta.add_structural(f"task {index} added")
    for index in sorted(tasks_a.keys() & tasks_b.keys()):
        ta, tb = tasks_a[index], tasks_b[index]
        delta.compare_scalar(
            f"task {index} sw_time_ms", ta["sw_time_ms"], tb["sw_time_ms"]
        )
        impls_a, impls_b = ta["implementations"], tb["implementations"]
        if len(impls_a) != len(impls_b):
            delta.add_structural(
                f"task {index} implementations: "
                f"{len(impls_a)} -> {len(impls_b)}"
            )
            continue
        for k, (ia, ib) in enumerate(zip(impls_a, impls_b)):
            delta.compare_scalar(
                f"task {index} impl {k} clbs", ia["clbs"], ib["clbs"]
            )
            delta.compare_scalar(
                f"task {index} impl {k} time_ms", ia["time_ms"], ib["time_ms"]
            )

    # -- dependencies --------------------------------------------------
    deps_a = {
        (e["src"], e["dst"]): e
        for e in doc_a["application"]["dependencies"]
    }
    deps_b = {
        (e["src"], e["dst"]): e
        for e in doc_b["application"]["dependencies"]
    }
    for src, dst in sorted(deps_a.keys() - deps_b.keys()):
        delta.add_structural(f"dependency ({src}, {dst}) removed")
    for src, dst in sorted(deps_b.keys() - deps_a.keys()):
        delta.add_structural(f"dependency ({src}, {dst}) added")
    for key in sorted(deps_a.keys() & deps_b.keys()):
        delta.compare_scalar(
            f"dependency {key} data_kbytes",
            deps_a[key]["data_kbytes"],
            deps_b[key]["data_kbytes"],
        )

    # -- architecture --------------------------------------------------
    bus_a, bus_b = doc_a["architecture"]["bus"], doc_b["architecture"]["bus"]
    delta.compare_scalar(
        "bus rate_kbytes_per_ms",
        bus_a["rate_kbytes_per_ms"],
        bus_b["rate_kbytes_per_ms"],
    )
    delta.compare_scalar(
        "bus latency_ms",
        bus_a.get("latency_ms", 0.0),
        bus_b.get("latency_ms", 0.0),
    )
    res_a = {r["name"]: r for r in doc_a["architecture"]["resources"]}
    res_b = {r["name"]: r for r in doc_b["architecture"]["resources"]}
    for name in sorted(res_a.keys() - res_b.keys()):
        delta.add_structural(f"resource {name!r} removed")
    for name in sorted(res_b.keys() - res_a.keys()):
        delta.add_structural(f"resource {name!r} added")
    for name in sorted(res_a.keys() & res_b.keys()):
        ra, rb = res_a[name], res_b[name]
        if ra["kind"] != rb["kind"]:
            delta.add_structural(
                f"resource {name!r} kind: {ra['kind']!r} -> {rb['kind']!r}"
            )
            continue
        for key in (
            "speed_factor",
            "n_clbs",
            "reconfig_ms_per_clb",
            "partial_reconfiguration",
            "monetary_cost",
        ):
            if key in ra or key in rb:
                delta.compare_scalar(
                    f"resource {name!r} {key}", ra.get(key), rb.get(key)
                )

    # -- deadline ------------------------------------------------------
    delta.compare_scalar(
        "deadline_ms", doc_a.get("deadline_ms"), doc_b.get("deadline_ms")
    )
    return delta.build()


# ----------------------------------------------------------------------
# solutions
# ----------------------------------------------------------------------
def solution_to_dict(solution: Solution) -> Dict[str, Any]:
    arch = solution.architecture
    return {
        "format": "solution",
        "version": FORMAT_VERSION,
        "application": solution.application.name,
        "architecture": arch.name,
        "software_orders": {
            p.name: list(solution.software_order(p.name))
            for p in arch.processors()
        },
        "contexts": {
            rc.name: [list(ctx) for ctx in solution.contexts(rc.name)]
            for rc in arch.reconfigurable_circuits()
        },
        "asic_tasks": {
            a.name: list(solution.asic_tasks(a.name)) for a in arch.asics()
        },
        "implementation_choices": {
            str(t): solution.implementation_choice(t)
            for t in sorted(solution.assigned_tasks())
            if solution.application.task(t).hardware_capable
        },
    }


def solution_from_dict(
    data: Dict[str, Any],
    application: Application,
    architecture: Architecture,
) -> Solution:
    _check_version(data, "solution")
    if data["application"] != application.name:
        raise MappingError(
            f"solution was saved for application {data['application']!r}, "
            f"not {application.name!r}"
        )
    solution = Solution(application, architecture)
    for task, choice in data.get("implementation_choices", {}).items():
        solution.set_implementation_choice(int(task), choice)
    for proc_name, order in data["software_orders"].items():
        for task in order:
            solution.assign_to_processor(task, proc_name)
    for rc_name, contexts in data["contexts"].items():
        for k, members in enumerate(contexts):
            for i, task in enumerate(members):
                if i == 0:
                    solution.spawn_context(task, rc_name, k)
                else:
                    solution.assign_to_context(task, rc_name, k)
    for asic_name, members in data.get("asic_tasks", {}).items():
        for task in members:
            solution.assign_to_asic(task, asic_name)
    solution.validate()
    return solution


def dump_solution(solution: Solution, indent: int = 2) -> str:
    return json.dumps(solution_to_dict(solution), indent=indent)


def load_solution(
    text: str, application: Application, architecture: Architecture
) -> Solution:
    return solution_from_dict(json.loads(text), application, architecture)
