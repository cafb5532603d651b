"""Architecture model: resources, the reconfigurable circuit, the bus.

Mirrors the paper's object model (section 3.3): an abstract, polymorphic
``Resource`` class whose subclasses impose different execution orders on
the tasks assigned to them —

* :class:`Processor` — **total** order (sequential software execution);
* :class:`Asic` — **partial** order (maximal parallelism);
* :class:`ReconfigurableCircuit` — **globally total, locally partial**
  (GTLP) order: an ordered list of contexts, each context executing its
  tasks with the parallelism permitted by the precedence graph.

Each subclass contributes its sequentialization edges to the search
graph through :meth:`Resource.sequentialization_edges` — the library's
rendition of the paper's abstract ``PE.schedule(Vs, Vd)`` method.  The
fast engine (``engine="incremental"``) takes exactly these three types.
"""

from repro.arch.resource import Resource, OrderKind
from repro.arch.processor import Processor
from repro.arch.asic import Asic
from repro.arch.reconfigurable import ReconfigurableCircuit
from repro.arch.bus import Bus
from repro.arch.architecture import Architecture, epicure_architecture

__all__ = [
    "Resource",
    "OrderKind",
    "Processor",
    "Asic",
    "ReconfigurableCircuit",
    "Bus",
    "Architecture",
    "epicure_architecture",
]
