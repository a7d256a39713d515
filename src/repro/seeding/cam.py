"""Hit-set intersection engine: 512-entry CAM + binary-search fallback (§V).

Intersecting hit sets is the performance-critical inner loop of SMEM
seeding.  The hardware holds one set in a per-lane CAM (sized 512 from the
paper's empirical k-mer analysis) and probes it once per element of the
other; when a list is longer than the CAM, the engine instead binary-
searches the (offline-sorted) position list — logarithmic probes instead of
a linear scan (§V optimizations 1-2).

Both list lengths are architecturally visible (they are position-table
counts), so the control FSM picks the cheapest feasible strategy each
intersection:

* ``cam``      — load the smaller set, stream the larger (cost = larger);
* ``binary``   — binary-search the sorted larger list once per element of
  the smaller (cost = smaller x log2(larger)); used when both lists
  overflow the CAM or when it is outright cheaper, which is exactly the
  paper's ">512 hits" regime for pathological k-mers.

This module is the *cost model*: every counter an intersection charges
(``cam_loads``, ``cam_lookups``, ``search_probes``, Fig. 16b's y-axis)
follows from the two list lengths alone, so :meth:`IntersectionEngine.charge`
computes them without walking a list, for one intersection or for arrays
of them.  The element-by-element walk the hardware performs is the oracle
(:class:`repro.seeding.smem_oracle.CamWalkEngine`), and the
``rmem-batch-vs-cam`` difftest pair holds the two equal counter by counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Union

import numpy
from numpy.typing import NDArray

#: A list length, or an array of them (one per intersection).
Count = Union[int, NDArray[numpy.int64]]


@dataclass
class IntersectionStats:
    """Operation counters for one engine (Fig. 16b's y-axis)."""

    cam_loads: int = 0  # entries written into the CAM
    cam_lookups: int = 0  # associative probes
    search_probes: int = 0  # binary-search comparisons
    intersections: int = 0
    overflow_fallbacks: int = 0  # times the binary path was taken

    @property
    def total_lookups(self) -> int:
        """All associative/search work, the paper's 'CAM lookups' metric."""
        return self.cam_lookups + self.search_probes

    def merge(self, other: "IntersectionStats") -> None:
        self.cam_loads += other.cam_loads
        self.cam_lookups += other.cam_lookups
        self.search_probes += other.search_probes
        self.intersections += other.intersections
        self.overflow_fallbacks += other.overflow_fallbacks


@dataclass
class IntersectionEngine:
    """One seeding lane's intersection datapath."""

    cam_size: int = 512
    use_binary_fallback: bool = True
    stats: IntersectionStats = field(default_factory=IntersectionStats)

    def __post_init__(self) -> None:
        if self.cam_size <= 0:
            raise ValueError(f"cam_size must be positive, got {self.cam_size}")

    def charge(self, candidates: Count, incoming: Count) -> Count:
        """Charge intersecting lists of *candidates* and *incoming* elements.

        Takes two ints, or two equal-length int arrays for one intersection
        per entry; returns whether each took the binary-search path.  An
        intersection with an empty list is counted and costs nothing else.
        Every counter is a sum over intersections, so one call on the
        concatenated arrays charges what a call per part would: the RMEM
        search charges a whole replay at once.
        """
        smaller = candidates + (incoming - candidates) * (incoming < candidates)
        larger = candidates + incoming - smaller
        # CAM-sized passes over the smaller set, each streaming the larger.
        cam_cost = -(-smaller // self.cam_size) * larger
        binary_cost = smaller * _bit_length(larger)
        use_binary = (binary_cost < cam_cost) & self.use_binary_fallback
        stats = self.stats
        stats.intersections += (
            candidates.size if isinstance(candidates, numpy.ndarray) else 1
        )
        stats.overflow_fallbacks += _total(use_binary)
        stats.search_probes += _total(binary_cost * use_binary)
        stats.cam_loads += _total(smaller - smaller * use_binary)
        stats.cam_lookups += _total(cam_cost - cam_cost * use_binary)
        return use_binary

    def intersect(
        self,
        candidates: Sequence[int],
        incoming_sorted: Sequence[int],
        incoming_offset: int = 0,
    ) -> List[int]:
        """Return candidates also present in ``incoming - incoming_offset``.

        *candidates* is the running (normalized) hit set; *incoming_sorted*
        is a position-table list (sorted offline); *incoming_offset*
        normalizes incoming hits to the pivot coordinate system by
        subtraction, as §V describes.  The survivors come back sorted.
        """
        self.charge(len(candidates), len(incoming_sorted))
        incoming = set(incoming_sorted)
        return sorted(hit for hit in candidates if hit + incoming_offset in incoming)


def _bit_length(value: Count) -> Count:
    if isinstance(value, int):
        return value.bit_length()
    return numpy.frexp(value)[1]


def _total(value: Count) -> int:
    return int(value.sum()) if isinstance(value, numpy.ndarray) else int(value)
