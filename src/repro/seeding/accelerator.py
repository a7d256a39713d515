"""Seeding accelerator front-end: lanes + genome segmentation (§V-§VI).

GenAx instantiates 128 seeding lanes, each with a 512-entry CAM and a
control FSM, fed from segmented index/position tables resident in on-chip
SRAM.  Segments are processed sequentially: tables for one segment are
streamed in, *all* reads are seeded against it, then the next segment's
tables replace them — that is what buys table locality (§V).

This model keeps the same structure so hit counts, CAM lookups and table
traffic are measurable; lane-level parallelism is accounted (not threaded).
Every index access is by integer k-mer code, as in the hardware's
direct-mapped fetch: a batch's reads are encoded once
(:class:`ReadBatch`), and per segment one batched pass over the sorted
key array (:meth:`IndexTables.live`) finds the pivots whose first k-mer
occurs there.  Only those run the RMEM search; the rest are charged the
single failed lookup they would have made.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy

from repro.genome.reference import ReferenceGenome, SegmentView
from repro.seeding.cache import IndexCache
from repro.seeding.cam import IntersectionEngine, IntersectionStats
from repro.seeding.index import IndexTables, KmerIndex, kmer_codes
from repro.seeding.smem import FinderStats, Seed, SmemConfig, SmemFinder


@dataclass
class SeedingStats:
    """Aggregate seeding counters (feeds Fig. 16 and the throughput model)."""

    reads_processed: int = 0
    finder: FinderStats = field(default_factory=FinderStats)
    intersections: IntersectionStats = field(default_factory=IntersectionStats)
    table_bytes_streamed: int = 0

    def merge(self, other: "SeedingStats") -> None:
        """Fold another accelerator's counters in (shard merging)."""
        self.reads_processed += other.reads_processed
        self.finder.merge(other.finder)
        self.intersections.merge(other.intersections)
        self.table_bytes_streamed += other.table_bytes_streamed

    @property
    def hits_per_read(self) -> float:
        if not self.reads_processed:
            return 0.0
        return self.finder.hits_reported / self.reads_processed

    @property
    def lookups_per_read(self) -> float:
        if not self.reads_processed:
            return 0.0
        return self.intersections.total_lookups / self.reads_processed

    @property
    def cycles(self) -> int:
        """Seeding-lane cycle estimate.

        SRAM index fetches cost two cycles (index-table entry, then the
        position-table burst setup); each CAM load/lookup and each binary
        probe is one cycle.  Feeds the Fig. 15 throughput model with
        measured seeding work.
        """
        return (
            2 * self.finder.index_lookups
            + self.intersections.cam_loads
            + self.intersections.cam_lookups
            + self.intersections.search_probes
        )

    @property
    def cycles_per_read(self) -> float:
        if not self.reads_processed:
            return 0.0
        return self.cycles / self.reads_processed


@dataclass(frozen=True)
class GlobalSeed:
    """A seed translated into global genome coordinates."""

    read_offset: int
    length: int
    positions: Tuple[int, ...]  # global positions of the seed start
    exact_whole_read: bool = False


class ReadBatch:
    """A batch of reads encoded once for every segment it is seeded against.

    Holds each read's :func:`~repro.seeding.index.kmer_codes` and their
    concatenation, so one :meth:`IndexTables.live` pass per segment finds
    every read's live pivots.
    """

    def __init__(self, reads: Sequence[str], k: int) -> None:
        self.reads = reads
        self.codes = [kmer_codes(read, k) for read in reads]
        counts = [len(codes) for codes in self.codes]
        bounds = numpy.zeros(len(reads) + 1, dtype=numpy.int64)
        numpy.cumsum(counts, out=bounds[1:])
        total = int(bounds[-1])
        self._bounds = bounds
        self._flat = numpy.fromiter(
            chain.from_iterable(self.codes), dtype=numpy.int64, count=total
        )
        # Read-local pivot of every entry of the concatenation.
        self._pivots = numpy.arange(total) - numpy.repeat(bounds[:-1], counts)

    def live_pivots(self, tables: IndexTables) -> List[List[int]]:
        """Per read, the pivots whose first k-mer occurs in *tables*."""
        live = tables.live(self._flat)
        pivots = self._pivots[live].tolist()
        cuts = numpy.concatenate(([0], numpy.cumsum(live)))[self._bounds].tolist()
        return [pivots[begin:end] for begin, end in zip(cuts, cuts[1:])]


class SeedingLane:
    """One seeding lane: a finder + CAM engine bound to a segment's tables."""

    def __init__(self, tables: IndexTables, config: Optional[SmemConfig] = None) -> None:
        self.tables = tables
        self.config = config or SmemConfig()
        self.engine = IntersectionEngine(
            cam_size=self.config.cam_size,
            use_binary_fallback=self.config.use_binary_fallback,
        )
        self.finder = SmemFinder(tables.index, self.config, self.engine)

    def seed_batch(self, batch: ReadBatch) -> List[List[GlobalSeed]]:
        """Seed every read of *batch* against this lane's segment."""
        return [
            self.seed_read(read, codes, live_pivots)
            for read, codes, live_pivots in zip(
                batch.reads, batch.codes, batch.live_pivots(self.tables)
            )
        ]

    def seed_read(
        self,
        read: str,
        codes: Optional[Sequence[int]] = None,
        live_pivots: Optional[Sequence[int]] = None,
    ) -> List[GlobalSeed]:
        """Seed one read against this lane's segment, in global coordinates.

        *codes* and *live_pivots* are passed through to
        :meth:`SmemFinder.find_seeds`.
        """
        seeds = self.finder.find_seeds(read, codes, live_pivots)
        start = self.tables.segment_start
        out: List[GlobalSeed] = []
        for seed in seeds:
            out.append(
                GlobalSeed(
                    read_offset=seed.read_offset,
                    length=seed.length,
                    positions=tuple(start + hit for hit in seed.hits),
                    exact_whole_read=(
                        seed.read_offset == 0 and seed.length == len(read)
                    ),
                )
            )
        return out


class SeedingAccelerator:
    """The full segmented seeding front-end."""

    SEGMENT_OVERLAP = 256  # one read length's worth, so boundary-spanning
    # seeds stay discoverable inside a single segment.

    def __init__(
        self,
        reference: ReferenceGenome,
        config: Optional[SmemConfig] = None,
        segment_count: int = 8,
        lanes: int = 128,
        cache: Optional["IndexCache"] = None,
        tables: Optional[List[IndexTables]] = None,
    ) -> None:
        if segment_count <= 0:
            raise ValueError(f"segment_count must be positive, got {segment_count}")
        if lanes <= 0:
            raise ValueError(f"lanes must be positive, got {lanes}")
        self.reference = reference
        self.config = config or SmemConfig()
        self.lanes = lanes
        self.segments: List[SegmentView] = reference.segments(
            segment_count, overlap=self.SEGMENT_OVERLAP
        )
        if tables is not None:
            # Pre-built tables (shared across forked shard workers).
            self.tables = tables
        elif cache is not None:
            self.tables = cache.load_or_build(
                reference, self.config.k, segment_count, self.SEGMENT_OVERLAP
            )
        else:
            self.tables = [
                IndexTables(
                    segment_index=view.index,
                    segment_start=view.start,
                    index=KmerIndex.build(view.sequence, self.config.k),
                )
                for view in self.segments
            ]
        self.stats = SeedingStats()

    @property
    def sram_bytes_per_segment(self) -> int:
        return max(tables.sram_bytes for tables in self.tables)

    def seed_reads(self, reads: Sequence[str]) -> List[List[GlobalSeed]]:
        """Seed every read against every segment (segment-major order).

        Returns, per read, the merged seed list across all segments with
        duplicate (offset, length, position) hits removed.
        """
        merged: List[Dict[Tuple[int, int, int], None]] = [dict() for _ in reads]
        exact: List[bool] = [False] * len(reads)
        batch = ReadBatch(reads, self.config.k)
        for tables in self.tables:
            self.stats.table_bytes_streamed += tables.sram_bytes
            lane = SeedingLane(tables, self.config)
            for read_id, seeds in enumerate(lane.seed_batch(batch)):
                for seed in seeds:
                    if seed.exact_whole_read:
                        exact[read_id] = True
                    for position in seed.positions:
                        merged[read_id][(seed.read_offset, seed.length, position)] = None
            self.stats.finder.merge(lane.finder.stats)
            self.stats.intersections.merge(lane.engine.stats)
        self.stats.reads_processed += len(reads)

        out: List[List[GlobalSeed]] = []
        for read_id, entries in enumerate(merged):
            grouped: Dict[Tuple[int, int], List[int]] = {}
            for offset, length, position in entries:
                grouped.setdefault((offset, length), []).append(position)
            seeds = [
                GlobalSeed(
                    read_offset=offset,
                    length=length,
                    positions=tuple(sorted(positions)),
                    exact_whole_read=exact[read_id]
                    and offset == 0
                    and length == len(reads[read_id]),
                )
                for (offset, length), positions in sorted(grouped.items())
            ]
            out.append(seeds)
        return out

    def seed_read(self, read: str) -> List[GlobalSeed]:
        """Convenience wrapper for a single read."""
        return self.seed_reads([read])[0]
