"""Registry of named, seed-deterministic benchmark scenarios.

A *scenario* is ``(family, params, seed)`` — everything needed to
materialize one :class:`~repro.io.ProblemInstance` (application ×
architecture × deadline) bit-for-bit.  Families span the repository's
workload axes:

* ``motion`` — the paper's 28-task motion-detection benchmark on
  EPICURE-style platforms, including starved-bus / ASIC-rich / RC-heavy
  architecture regimes;
* ``tgff`` / ``layered`` / ``series_parallel`` / ``fork_join`` —
  random-application scaling ladders (12 → 240 tasks) materialized
  through :func:`repro.model.generator.random_application`.

Scenarios hash via the canonical JSON of their bundled instance
document (:func:`repro.io.content_digest`), so ``scenario_hash`` is
identical across runs, machines, and Python versions.  The tests pin
fifteen scenario hashes, and ``perfbench/`` refuses to time an
instance whose hash drifted, because timings of different instances
are not comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.arch.architecture import Architecture, epicure_architecture
from repro.arch.asic import Asic
from repro.arch.reconfigurable import ReconfigurableCircuit
from repro.errors import ConfigurationError
from repro.io import ProblemInstance, content_digest, instance_to_dict
from repro.model.generator import TOPOLOGIES, GeneratorConfig, random_application
from repro.model.motion import MOTION_DEADLINE_MS, motion_detection_application

FamilyBuilder = Callable[..., ProblemInstance]

#: Architecture regimes shared by every family.  ``default`` is the
#: paper's EPICURE platform; the others stress one resource axis so the
#: corpus exercises bus-bound, ASIC-offload and multi-RC code paths.
ARCHITECTURE_REGIMES = ("default", "bus_starved", "asic_rich", "rc_heavy")


def _platform(regime: str, n_clbs: int) -> Architecture:
    if regime not in ARCHITECTURE_REGIMES:
        raise ConfigurationError(
            f"unknown architecture regime {regime!r}; "
            f"known: {list(ARCHITECTURE_REGIMES)}"
        )
    if regime == "bus_starved":
        # One tenth of the paper's bus bandwidth: communication, not
        # computation, dominates the makespan.
        return epicure_architecture(n_clbs=n_clbs, bus_rate_kbytes_per_ms=5.0)
    arch = epicure_architecture(n_clbs=n_clbs)
    if regime == "asic_rich":
        arch.add_resource(Asic("asic_a", monetary_cost=4.0))
        arch.add_resource(Asic("asic_b", monetary_cost=4.0))
    elif regime == "rc_heavy":
        arch.add_resource(
            ReconfigurableCircuit(
                "virtex2",
                n_clbs=max(n_clbs // 2, 100),
                reconfig_ms_per_clb=0.0225,
                monetary_cost=2.0,
            )
        )
    return arch


# ----------------------------------------------------------------------
# family registry
# ----------------------------------------------------------------------
FAMILIES: Dict[str, FamilyBuilder] = {}


def register_family(name: str) -> Callable[[FamilyBuilder], FamilyBuilder]:
    """Decorator: register ``builder(seed, **params) -> ProblemInstance``."""

    def decorate(builder: FamilyBuilder) -> FamilyBuilder:
        if name in FAMILIES:
            raise ConfigurationError(f"duplicate scenario family {name!r}")
        FAMILIES[name] = builder
        return builder

    return decorate


@register_family("motion")
def _build_motion(
    seed: int,
    n_clbs: int = 2000,
    regime: str = "default",
) -> ProblemInstance:
    """The paper's benchmark; ``seed`` is carried for uniformity only
    (the application itself is a fixed dataset)."""
    return ProblemInstance(
        application=motion_detection_application(),
        architecture=_platform(regime, n_clbs),
        deadline_ms=MOTION_DEADLINE_MS,
    )


def _build_generated(
    topology: str,
    seed: int,
    num_tasks: int,
    n_clbs: Optional[int] = None,
    regime: str = "default",
    deadline_fraction: float = 0.5,
) -> ProblemInstance:
    if n_clbs is None:
        # Capacity scaled with the workload so ladder rungs stay in the
        # interesting multi-context regime instead of trivially fitting.
        n_clbs = max(400, 25 * num_tasks)
    config = GeneratorConfig(num_tasks=num_tasks, topology=topology)
    application = random_application(
        config, seed=seed, name=f"{topology}_{num_tasks}_s{seed}"
    )
    deadline = round(deadline_fraction * application.total_sw_time_ms(), 6)
    return ProblemInstance(
        application=application,
        architecture=_platform(regime, n_clbs),
        deadline_ms=deadline,
    )


def _register_topology_family(topology: str) -> None:
    @register_family(topology)
    def _build(seed: int, **params: Any) -> ProblemInstance:
        return _build_generated(topology, seed, **params)


for _topology in TOPOLOGIES:
    _register_topology_family(_topology)


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """A named, reproducible benchmark instance recipe."""

    name: str
    family: str
    seed: int = 0
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ConfigurationError(
                f"unknown scenario family {self.family!r}; "
                f"known: {sorted(FAMILIES)}"
            )

    @property
    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def build(self) -> ProblemInstance:
        """Materialize the instance (fresh objects every call)."""
        instance = FAMILIES[self.family](self.seed, **self.param_dict)
        instance.name = self.name
        instance.metadata = {
            "family": self.family,
            "seed": self.seed,
            "params": self.param_dict,
        }
        return instance

    def document(self) -> Dict[str, Any]:
        """The bundled, versioned instance document (see ``repro.io``)."""
        return instance_to_dict(self.build())

    def application_spec(self):
        """The scenario as a bundled
        :class:`~repro.api.specs.ApplicationSpec` — drop it into an
        :class:`~repro.api.specs.ExplorationRequest` to search this
        scenario through :func:`repro.api.facade.explore`."""
        from repro.api.specs import ApplicationSpec

        return ApplicationSpec(kind="bundled", document=self.document())


def scenario(
    family: str,
    seed: int = 0,
    name: Optional[str] = None,
    **params: Any,
) -> Scenario:
    """Build a scenario; the default name is ``family/<key params>``."""
    if name is None:
        suffix = "/".join(
            str(v) for _, v in sorted(params.items()) if v != "default"
        )
        name = f"{family}/{suffix}" if suffix else family
    return Scenario(
        name=name,
        family=family,
        seed=seed,
        params=tuple(sorted(params.items())),
    )


def scenario_hash(target: "Scenario | ProblemInstance") -> str:
    """SHA-256 of the canonical instance JSON — the scenario's identity
    (:func:`repro.io.content_digest`).

    Two runs (or two machines, or two Python versions) produce the same
    hash exactly when they benchmarked the same problem.
    """
    return content_digest(
        target.document() if isinstance(target, Scenario) else target
    )


# ----------------------------------------------------------------------
# the standard corpus
# ----------------------------------------------------------------------
def _standard_corpus() -> Dict[str, Scenario]:
    entries: List[Scenario] = [
        # motion-detection variants (application fixed, platform varies)
        scenario("motion", name="motion/2000", n_clbs=2000),
        scenario("motion", name="motion/800", n_clbs=800),
        scenario("motion", name="motion/bus_starved",
                 n_clbs=2000, regime="bus_starved"),
        scenario("motion", name="motion/asic_rich",
                 n_clbs=2000, regime="asic_rich"),
        scenario("motion", name="motion/rc_heavy",
                 n_clbs=2000, regime="rc_heavy"),
    ]
    ladders = {
        "tgff": (12, 36, 60, 120, 240),
        "layered": (24, 48, 96, 192),
        "series_parallel": (24, 48, 96, 192),
        "fork_join": (24, 48, 96, 192),
    }
    for family, sizes in ladders.items():
        for num_tasks in sizes:
            entries.append(
                scenario(
                    family,
                    name=f"{family}/{num_tasks}",
                    seed=100 + num_tasks,
                    num_tasks=num_tasks,
                )
            )
    # architecture-regime stress on a generated workload
    for regime in ("bus_starved", "asic_rich", "rc_heavy"):
        entries.append(
            scenario(
                "tgff",
                name=f"tgff/60/{regime}",
                seed=160,
                num_tasks=60,
                regime=regime,
            )
        )
    corpus: Dict[str, Scenario] = {}
    for entry in entries:
        if entry.name in corpus:
            raise ConfigurationError(f"duplicate scenario name {entry.name!r}")
        corpus[entry.name] = entry
    return corpus


CORPUS: Dict[str, Scenario] = _standard_corpus()


def get_scenario(name: str) -> Scenario:
    try:
        return CORPUS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; known: {sorted(CORPUS)}"
        ) from None


def iter_scenarios(family: Optional[str] = None) -> Iterator[Scenario]:
    for entry in CORPUS.values():
        if family is None or entry.family == family:
            yield entry
