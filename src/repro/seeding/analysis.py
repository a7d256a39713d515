"""K-mer index statistics — the analysis behind GenAx's sizing choices.

§V: "We defined its size based on our empirical analysis of k-mer indices
for human genomes that showed that most k-mers have less than 512 hits when
k = 12."  This module reproduces that analysis for any reference: hit-count
distributions, coverage quantiles, and the CAM-size adequacy figure, plus
the pathological k-mers the paper names (poly-A, ``ATAT...``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy

from repro.genome.sequence import decode
from repro.seeding.index import KmerIndex


@dataclass(frozen=True)
class HitDistribution:
    """Summary of an index's hit-list length distribution."""

    k: int
    distinct_kmers: int
    total_positions: int
    max_hits: int
    histogram: Tuple[Tuple[int, int], ...]  # (hit count, #kmers), ascending

    def fraction_within(self, limit: int) -> float:
        """Fraction of distinct k-mers whose hit list fits in *limit*."""
        if not self.distinct_kmers:
            return 1.0
        within = sum(count for hits, count in self.histogram if hits <= limit)
        return within / self.distinct_kmers

    def quantile(self, q: float) -> int:
        """Smallest hit-list length covering fraction *q* of k-mers."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.distinct_kmers:
            return 0
        needed = q * self.distinct_kmers
        seen = 0
        for hits, count in self.histogram:
            seen += count
            if seen >= needed:
                return hits
        return self.max_hits

    def cam_adequacy(self, cam_size: int = 512) -> float:
        """The paper's sizing figure: k-mers whose hits fit in the CAM."""
        return self.fraction_within(cam_size)


def analyze_index(index: KmerIndex) -> HitDistribution:
    """Build the distribution summary for one index."""
    histogram = sorted(index.hit_histogram().items())
    return HitDistribution(
        k=index.k,
        distinct_kmers=index.distinct_kmers,
        total_positions=index.total_positions,
        max_hits=max((hits for hits, __ in histogram), default=0),
        histogram=tuple(histogram),
    )


def pathological_kmers(index: KmerIndex, top: int = 5) -> List[Tuple[str, int]]:
    """The k-mers with the largest hit lists (poly-A and friends, §VIII-B).

    Largest first; equal hit counts in ascending k-mer code order.
    """
    counts = numpy.diff(index.offsets)
    rows = numpy.lexsort((index.keys, -counts))[: max(0, top)]
    shifts = 2 * numpy.arange(index.k - 1, -1, -1)
    bases = (index.keys[rows, None] >> shifts) & 3
    return [
        (decode(kmer), count)
        for kmer, count in zip(bases.tolist(), counts[rows].tolist())
    ]


def recommend_cam_size(
    distribution: HitDistribution, coverage: float = 0.99
) -> int:
    """Smallest power-of-two CAM covering *coverage* of k-mers."""
    target = distribution.quantile(coverage)
    size = 1
    while size < target:
        size *= 2
    return max(size, 1)
