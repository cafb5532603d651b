"""The target architecture: a set of resources plus the shared bus.

The paper's experiments fix the architecture to one ARM922-class
processor and one Virtex-E-class reconfigurable circuit (section 3.2),
but the method itself explores resource sets through moves m3/m4; this
container therefore supports adding and removing resources at run time,
and carries a catalog of resource *templates* the creation move can
instantiate.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.arch.asic import Asic
from repro.arch.bus import Bus
from repro.arch.processor import Processor
from repro.arch.reconfigurable import ReconfigurableCircuit
from repro.arch.resource import Resource
from repro.errors import ArchitectureError
from repro.numeric import left_sum

ResourceFactory = Callable[[str], Resource]


class Architecture:
    """A mutable set of named resources communicating over one bus."""

    def __init__(self, name: str, bus: Optional[Bus] = None) -> None:
        if not name:
            raise ArchitectureError("architecture name must be non-empty")
        self.name = name
        self.bus = bus if bus is not None else Bus()
        self._resources: Dict[str, Resource] = {}
        #: Templates instantiable by the resource-creation move (m4).
        self.catalog: List[ResourceFactory] = []
        self._fresh_counter = 0

    # ------------------------------------------------------------------
    # resource management
    # ------------------------------------------------------------------
    def add_resource(self, resource: Resource) -> Resource:
        if resource.name in self._resources:
            raise ArchitectureError(f"duplicate resource name {resource.name!r}")
        self._resources[resource.name] = resource
        return resource

    def remove_resource(self, name: str) -> Resource:
        try:
            return self._resources.pop(name)
        except KeyError:
            raise ArchitectureError(f"no resource named {name!r}") from None

    def resource(self, name: str) -> Resource:
        try:
            return self._resources[name]
        except KeyError:
            raise ArchitectureError(f"no resource named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._resources

    def __len__(self) -> int:
        return len(self._resources)

    def resources(self) -> Iterator[Resource]:
        return iter(self._resources.values())

    def resource_names(self) -> List[str]:
        return list(self._resources)

    def processors(self) -> List[Processor]:
        return [r for r in self._resources.values() if isinstance(r, Processor)]

    def reconfigurable_circuits(self) -> List[ReconfigurableCircuit]:
        return [
            r for r in self._resources.values()
            if isinstance(r, ReconfigurableCircuit)
        ]

    def asics(self) -> List[Asic]:
        return [r for r in self._resources.values() if isinstance(r, Asic)]

    def fresh_name(self, prefix: str) -> str:
        """A resource name not currently in use (for move m4)."""
        while True:
            self._fresh_counter += 1
            candidate = f"{prefix}_{self._fresh_counter}"
            if candidate not in self._resources:
                return candidate

    def restore_resource_order(self, names: Sequence[str]) -> None:
        """Reorder the resource table to ``names`` (a permutation of the
        current resource names).

        Resource enumeration order is observable state: move proposal
        draws iterate it, so a move's undo must restore it exactly —
        ``remove_resource`` + ``add_resource`` alone would re-append the
        restored resource at the end.
        """
        resources = self._resources
        if set(names) != set(resources) or len(names) != len(resources):
            raise ArchitectureError(
                "restore_resource_order needs a permutation of the "
                "current resource names"
            )
        self._resources = {name: resources[name] for name in names}

    # ------------------------------------------------------------------
    # objective helpers
    # ------------------------------------------------------------------
    def snapshot(self) -> "Architecture":
        """Shallow copy: same bus and resource *objects*, independent
        resource set.  Solutions snapshot the architecture so a saved
        best mapping stays valid while m3/m4 moves keep mutating the
        live resource set."""
        clone = Architecture(self.name, bus=self.bus)
        clone._resources = dict(self._resources)
        clone.catalog = list(self.catalog)
        clone._fresh_counter = self._fresh_counter
        return clone

    def total_monetary_cost(self) -> float:
        """Sum of resource costs (architecture-exploration objective)."""
        return left_sum(r.monetary_cost for r in self._resources.values())

    def validate(self) -> None:
        if not self.processors():
            raise ArchitectureError(
                f"architecture {self.name!r} needs at least one processor "
                "(software-only tasks must be executable)"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = ", ".join(
            f"{type(r).__name__}:{r.name}" for r in self._resources.values()
        )
        return f"Architecture({self.name!r}, [{kinds}])"


def epicure_architecture(
    n_clbs: int = 2000,
    reconfig_ms_per_clb: float = 0.0225,
    bus_rate_kbytes_per_ms: float = 50.0,
) -> Architecture:
    """The paper's experimental platform: ARM922 + Virtex-E class DRLC.

    ``n_clbs`` defaults to the 2000-CLB device of the Fig. 2 run; the
    Fig. 3 sweep rebuilds this architecture for sizes 100..10000.
    """
    arch = Architecture(
        "epicure",
        bus=Bus(rate_kbytes_per_ms=bus_rate_kbytes_per_ms),
    )
    arch.add_resource(Processor("arm922", speed_factor=1.0, monetary_cost=1.0))
    arch.add_resource(
        ReconfigurableCircuit(
            "virtex",
            n_clbs=n_clbs,
            reconfig_ms_per_clb=reconfig_ms_per_clb,
            monetary_cost=2.0,
        )
    )
    arch.validate()
    return arch
