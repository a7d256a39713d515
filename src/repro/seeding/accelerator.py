"""Seeding accelerator front-end: lanes + genome segmentation (§V-§VI).

GenAx instantiates 128 seeding lanes, each with a 512-entry CAM and a
control FSM, fed from segmented index/position tables resident in on-chip
SRAM.  Segments are processed sequentially: tables for one segment are
streamed in, *all* reads are seeded against it, then the next segment's
tables replace them — that is what buys table locality (§V).

This model charges the same work so hit counts, CAM lookups and table
traffic are measurable: each segment's tables are charged once per read
batch, and every lookup and intersection against each segment is
counted as the hardware would make it; lane-level parallelism is
accounted (not threaded).  The search itself runs once per batch, not
once per segment: a batch's reads are encoded once
(:class:`~repro.seeding.smem.ReadBatch`), and one RMEM search pass
(:meth:`~repro.seeding.smem.SmemFinder.seed_table`) answers every
pivot of the batch against every segment, its rows stacked segment-major.
One hashed lookup per batch finds every k-mer's row in every segment's
index (the hardware makes one direct-mapped fetch per k-mer and segment,
and the counters charge those).  Seeds leave as a
:class:`~repro.seeding.smem.SeedTable`: the cross-segment merge is one
sort of every hit, with no Python object per seed or hit.  The segment-at-a-time loop is the oracle
(:func:`~repro.seeding.smem_oracle.seed_reads_per_segment`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy
from numpy.typing import NDArray

from repro.genome.reference import ReferenceGenome, SegmentView
from repro.seeding.cache import IndexCache
from repro.seeding.cam import IntersectionEngine, IntersectionStats
from repro.seeding.index import IndexTables, KmerIndex
from repro.seeding.smem import (
    FinderStats,
    GlobalSeed,
    ReadBatch,
    SeedTable,
    SmemConfig,
    SmemFinder,
)


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

    def seed_batch(self, batch: ReadBatch) -> SeedTable:
        """Seed every read of *batch* against this lane's segment."""
        table = self.finder.seed_table(batch)
        return dataclasses.replace(
            table,
            positions=table.positions + self.tables.segment_start,
            exact=_exact(table.row, table.offset, table.length, batch.reads),
        )

    def seed_read(self, read: str) -> List[GlobalSeed]:
        """Seed one read against this lane's segment, in global coordinates."""
        return self.seed_batch(ReadBatch([read], self.config.k))[0]


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
        # One finder over every segment's index; its counters are the
        # accelerator's, so each search charges them in place.
        self._finder = SmemFinder(
            [tables.index for tables in self.tables], self.config
        )
        self.stats = SeedingStats(
            finder=self._finder.stats, intersections=self._finder.engine.stats
        )

    @property
    def sram_bytes_per_segment(self) -> int:
        return max(tables.sram_bytes for tables in self.tables)

    def seed_reads(self, reads: Sequence[str]) -> SeedTable:
        """Seed every read against every segment (one search pass).

        Returns, per read, the merged seed list across all segments with
        duplicate (offset, length, position) hits removed, one seed per
        (offset, length) in ascending order.  The merge is one sort of
        every hit by (read, offset, length, global position).
        """
        table = self._finder.seed_table(ReadBatch(reads, self.config.k))
        self.stats.table_bytes_streamed += sum(
            tables.sram_bytes for tables in self.tables
        )
        self.stats.reads_processed += len(reads)
        segment, read = numpy.divmod(table.row, max(1, len(reads)))
        sizes = table.sizes
        starts = numpy.array(
            [tables.segment_start for tables in self.tables], dtype=numpy.int64
        )
        hit_read = numpy.repeat(read, sizes)
        hit_offset = numpy.repeat(table.offset, sizes)
        hit_length = numpy.repeat(table.length, sizes)
        positions = table.positions + numpy.repeat(starts[segment], sizes)
        order = numpy.lexsort((positions, hit_length, hit_offset, hit_read))
        keys = numpy.stack(
            [hit_read[order], hit_offset[order], hit_length[order], positions[order]]
        )
        fresh = numpy.ones(len(order), dtype=bool)
        fresh[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
        keys = keys[:, fresh]
        first = numpy.ones(keys.shape[1], dtype=bool)
        first[1:] = (keys[:3, 1:] != keys[:3, :-1]).any(axis=0)
        seeds = numpy.flatnonzero(first)
        row, offset, length = keys[:3, seeds]
        return SeedTable.of(
            len(reads),
            row,
            offset,
            length,
            numpy.diff(numpy.append(seeds, keys.shape[1])),
            keys[3],
            _exact(row, offset, length, reads),
        )

    def seed_read(self, read: str) -> List[GlobalSeed]:
        """Convenience wrapper for a single read."""
        return self.seed_reads([read])[0]


def _exact(
    row: NDArray[numpy.int64],
    offset: NDArray[numpy.int64],
    length: NDArray[numpy.int64],
    reads: Sequence[str],
) -> NDArray[numpy.bool_]:
    """Per seed, whether it covers its whole read: the fast-path flag."""
    lengths = numpy.fromiter(map(len, reads), dtype=numpy.int64, count=len(reads))
    return (offset == 0) & (length == lengths[row])
