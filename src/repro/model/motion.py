"""The 28-task motion-detection benchmark (paper section 5).

The paper evaluates on the motion-detection / object-labeling
application of Ben Chehida & Auguin [6]: a 40 ms-per-image real-time
constraint, an all-software time of 76.4 ms on an ARM922, and a
Virtex-E-class reconfigurable device (t_R = 22.5 us/CLB).

The task-graph *topology* is not drawn in the paper, but its
order-counting paragraph specifies it exactly:

* a 7-node chain (A), followed by
* a 7-node chain (B) **in parallel with** a 14-node sub-structure:
  a 6-node chain (C), then a 2-node chain (D) in parallel with a single
  node (E), then a 5-node chain (F).

We instantiate precisely that shape.  Its linear-extension counts must
(and do — see tests and ``benchmarks/bench_combinatorics.py``) match the
paper's numbers: C(13,6) = 1716 for the first 20 nodes, 3 orders for the
D/E fork, and 3 * C(21,7) = 348 840 in total.

The per-task timing/area estimates come from the EPICURE project and
were never published; this module provides a deterministic synthetic
dataset calibrated to the paper's published aggregates (sum of software
times = 76.4 ms, 5-6 dominant implementations per function).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.model.application import Application
from repro.model.functions import FUNCTION_LIBRARY, synthesize_implementations
from repro.model.task import Task

#: Paper-reported aggregate: all-software execution time on the ARM922.
MOTION_TOTAL_SW_TIME_MS = 76.4

#: Paper-reported real-time constraint per image.
MOTION_DEADLINE_MS = 40.0

#: Reconfiguration time per CLB of the Virtex-E device (paper: 22.5 us).
MOTION_RECONFIG_MS_PER_CLB = 0.0225

# (name, functionality, sw_time_ms) per chain; sw times sum to 76.4 ms.
_CHAIN_A = [
    ("capture_luma", "CAPTURE", 1.2),
    ("denoise_fir", "FIR", 4.8),
    ("background_update", "BG_MODEL", 3.6),
    ("frame_difference", "DIFF", 2.4),
    ("threshold_adapt", "THRESH", 2.0),
    ("erosion_3x3", "MORPH", 4.4),
    ("dilation_3x3", "MORPH", 4.4),
]
_CHAIN_B = [
    ("sobel_x", "SOBEL", 3.2),
    ("sobel_y", "SOBEL", 3.2),
    ("gradient_mag", "MAG", 2.6),
    ("edge_threshold", "THRESH", 1.4),
    ("contour_trace", "CONTOUR", 3.0),
    ("contour_smooth", "CONTOUR", 1.6),
    ("contour_stats", "CONTROL", 1.0),
]
_CHAIN_C = [
    ("connected_components", "CCL", 7.6),
    ("label_merge", "CONTROL", 3.4),
    ("region_filter", "REGION", 1.8),
    ("bbox_extract", "REGION", 1.6),
    ("centroid_compute", "REGION", 1.4),
    ("region_sort", "CONTROL", 1.0),
]
_CHAIN_D = [
    ("motion_vectors", "MOTION_EST", 4.2),
    ("vector_median", "MEDIAN", 2.2),
]
_CHAIN_E = [
    ("region_history", "CONTROL", 1.8),
]
_CHAIN_F = [
    ("track_associate", "TRACK", 3.4),
    ("kalman_update", "KALMAN", 2.8),
    ("label_assign", "CONTROL", 2.2),
    ("overlay_render", "RENDER", 2.6),
    ("output_dma", "DMA", 1.6),
]

#: Data volume (kilobytes) transferred along the edges of each chain
#: stage.  Image-plane stages move frame-sized buffers (a QCIF luma
#: plane is ~25 KB); region/track stages move small descriptor tables.
_FRAME_KB = 25.0
_MAP_KB = 12.0
_TABLE_KB = 2.0

# Per-edge data volumes inside each chain (len(chain) - 1 entries).
_VOLUMES: Dict[str, List[float]] = {
    "A": [_FRAME_KB, _FRAME_KB, _FRAME_KB, _MAP_KB, _MAP_KB, _MAP_KB],
    "B": [_FRAME_KB, _FRAME_KB, _MAP_KB, _MAP_KB, _TABLE_KB, _TABLE_KB],
    "C": [_MAP_KB, _TABLE_KB, _TABLE_KB, _TABLE_KB, _TABLE_KB],
    "D": [_TABLE_KB],
    "E": [],
    "F": [_TABLE_KB, _TABLE_KB, _TABLE_KB, _MAP_KB],
}
# Inter-chain edges: (A7 -> B1, frame), (A7 -> C1, map),
# (C6 -> D1, table), (C6 -> E1, table), (D2 -> F1, table), (E1 -> F1, table).
_JOIN_VOLUMES = {
    ("A", "B"): _FRAME_KB,
    ("A", "C"): _MAP_KB,
    ("C", "D"): _TABLE_KB,
    ("C", "E"): _TABLE_KB,
    ("D", "F"): _TABLE_KB,
    ("E", "F"): _TABLE_KB,
}

_CHAINS = {"A": _CHAIN_A, "B": _CHAIN_B, "C": _CHAIN_C,
           "D": _CHAIN_D, "E": _CHAIN_E, "F": _CHAIN_F}

#: Function families with no synthesizable hardware variant: the
#: control-dominated bookkeeping and the DMA glue stay software-only
#: (pointer-chasing and bus mastering do not map to CLB fabric).  This
#: keeps the processor genuinely involved, as in the paper's solutions,
#: where a substantial share of the 28 tasks remains in software.
SOFTWARE_ONLY_FUNCTIONS = frozenset({"CONTROL", "DMA"})


def motion_detection_application() -> Application:
    """Build the 28-task motion-detection application.

    Deterministic: no randomness is involved, so every run of every
    experiment sees the identical benchmark.
    """
    app = Application("motion_detection")
    index = 0
    chain_ids: Dict[str, List[int]] = {}
    for label in ["A", "B", "C", "D", "E", "F"]:
        ids: List[int] = []
        for name, functionality, sw_time in _CHAINS[label]:
            if functionality in SOFTWARE_ONLY_FUNCTIONS:
                impls = ()
            else:
                spec = FUNCTION_LIBRARY[functionality]
                impls = synthesize_implementations(spec, sw_time)
            app.add_task(
                Task(
                    index=index,
                    name=name,
                    functionality=functionality,
                    sw_time_ms=sw_time,
                    implementations=impls,
                )
            )
            ids.append(index)
            index += 1
        chain_ids[label] = ids

    # Intra-chain precedence edges.
    for label, ids in chain_ids.items():
        for (a, b), volume in zip(zip(ids, ids[1:]), _VOLUMES[label]):
            app.add_dependency(a, b, volume)

    # Inter-chain joins (see module docstring for the topology).
    def last(label: str) -> int:
        return chain_ids[label][-1]

    def first(label: str) -> int:
        return chain_ids[label][0]

    app.add_dependency(last("A"), first("B"), _JOIN_VOLUMES[("A", "B")])
    app.add_dependency(last("A"), first("C"), _JOIN_VOLUMES[("A", "C")])
    app.add_dependency(last("C"), first("D"), _JOIN_VOLUMES[("C", "D")])
    app.add_dependency(last("C"), first("E"), _JOIN_VOLUMES[("C", "E")])
    app.add_dependency(last("D"), first("F"), _JOIN_VOLUMES[("D", "F")])
    app.add_dependency(last("E"), first("F"), _JOIN_VOLUMES[("E", "F")])

    app.validate()
    assert len(app) == 28, "motion-detection benchmark must have 28 tasks"
    return app


def motion_chain_ids() -> Dict[str, List[int]]:
    """Task indices per chain label (A..F), for tests and analysis."""
    ids: Dict[str, List[int]] = {}
    index = 0
    for label in ["A", "B", "C", "D", "E", "F"]:
        ids[label] = list(range(index, index + len(_CHAINS[label])))
        index += len(_CHAINS[label])
    return ids
