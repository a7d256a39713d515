"""SMEM seeding algorithm (§V) with the paper's four optimizations.

For each *pivot* position in a read, the finder computes the **RMEM** — the
longest exact match starting at the pivot that still has at least one hit
in the reference segment — by repeatedly intersecting k-mer hit lists:
stride forward by k while the intersection stays non-empty, then halve the
stride (k/2, k/4, ..., 1) to pin the exact maximal length ("binary
extension").  An RMEM is reported as an **SMEM seed** unless it is
contained in a previously reported one.

Optimizations, each independently switchable for the Fig. 16 ablations:

1. CAM intersection with **binary-search fallback** for oversized incoming
   lists (:mod:`repro.seeding.cam`).
2. **Probing**: for the expensive first intersection at a pivot, look up
   several second k-mers at smaller strides and intersect with the one
   owning the fewest hits.
3. **Exact-match fast path**: intersect ~read_length/k spanning k-mers in
   ascending hit-count order; a non-empty result means the whole read
   matches exactly and seeding can stop (75% of real reads, §V).
4. Fixed-stride mode (no halving) is retained as the Fig. 16a middle bar.

How the model runs the search.  The hardware walks one pivot's hit lists
through its CAM; here the intersection engine is the *cost model*
(:meth:`~repro.seeding.cam.IntersectionEngine.charge`) and the RMEM search
runs batched, one pass per read batch over every segment's pivots
(:meth:`SmemFinder.seed_table`).  Let ``l(pivot, p)`` be the length of the
exact match between ``read[pivot:]`` and ``segment[p:]``, stopped by the
read end, the segment end and the read's first base outside upper-case
``ACGT``.  Every intersection tests the k-mer at read offset
``o = length + stride - k`` (``1 <= o <= length``) against candidates that
already match on ``[0, length)``, so a candidate survives iff
``l >= length + stride``; the candidate list holds the first hits with
``l >= length``, and the incoming list is the index's hit list of the
read's k-mer at ``pivot + o``.  The pass therefore computes ``l`` for every
(live pivot, first hit) pair from 2-bit words, then replays the stride
schedule for all pivots at once, charging each step from those two counts.
Seeds and every counter equal the element-by-element walk, which lives in
:mod:`repro.seeding.smem_oracle` as the reference (the
``rmem-batch-vs-cam`` difftest pair).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy
from numpy.typing import NDArray

from repro.genome.sequence import BASES_PER_WORD, DIRTY_BASE, encode_bases
from repro.seeding.cam import IntersectionEngine
from repro.seeding.index import (
    MAX_K,
    KeyTable,
    KmerIndex,
    base_words_at,
    gather_runs,
    kmer_codes_at,
    pack_bases,
)

#: Bytes of per-pair arrays one chunk of the RMEM search may hold.  A
#: (pivot, first hit) pair costs about ``_PAIR_BYTES`` across its int64
#: working arrays, so a chunk holds ~20k pairs; live pivots are cut into
#: chunks at pivot boundaries.
PAIR_BUDGET = 2 << 20
_PAIR_BYTES = 96

#: An int64 array: codes, pivots, positions, lengths and counts.
Ints = NDArray[numpy.int64]

class SeedingMode(enum.Enum):
    """Seeding strategies compared in Fig. 16a."""

    NAIVE = "naive"  # every k-mer hit is a seed: the naive hash baseline
    SMEM_FIXED = "smem_fixed"  # RMEMs with stride k only (no halving)
    SMEM = "smem"  # full binary extension


@dataclass(frozen=True)
class Seed:
    """An exact-match seed: a read substring with its reference hits.

    ``hits`` are segment-local positions of the *seed start* (already
    normalized), sorted ascending.
    """

    read_offset: int
    length: int
    hits: Tuple[int, ...]

    @property
    def end(self) -> int:
        return self.read_offset + self.length

    def contains(self, other: "Seed") -> bool:
        """Positional containment in the read (the SMEM filter relation)."""
        return self.read_offset <= other.read_offset and other.end <= self.end


@dataclass(frozen=True)
class GlobalSeed:
    """A seed translated into global genome coordinates."""

    read_offset: int
    length: int
    positions: Tuple[int, ...]  # global positions of the seed start
    exact_whole_read: bool = False


@dataclass(frozen=True, eq=False)
class SeedTable:
    """The seeds of a batch as columns, one entry per seed.

    Seed ``i`` belongs to list ``row[i]`` (a read, or a segment-major
    (segment, read) pair inside :class:`SmemFinder`), starts at read
    offset ``offset[i]``, is ``length[i]`` bases long, and its hits are
    ``positions[cuts[i]:cuts[i + 1]]``, ascending.  Seeds are ordered by
    row; the SMEM stages order each row by offset, then length, and
    :meth:`from_lists` keeps the lists' order.  The table is every seed
    provider's batch output: hits stay slices of one flat array from the
    k-mer index to the candidate table (:mod:`repro.pipeline.common`),
    never a Python object per hit.

    ``table[row]`` is that row's :class:`GlobalSeed` list, built on
    access, and iterating the table yields every row's list, for callers
    that want objects.  Tables compare by identity: compare
    ``list(table)`` with expected lists.
    """

    rows: int
    row: Ints
    offset: Ints
    length: Ints
    exact: NDArray[numpy.bool_]
    cuts: Ints
    positions: Ints

    @classmethod
    def of(
        cls,
        rows: int,
        row: Ints,
        offset: Ints,
        length: Ints,
        sizes: Ints,
        positions: Ints,
        exact: Optional[NDArray[numpy.bool_]] = None,
    ) -> "SeedTable":
        """A table from per-seed columns and hit counts (*sizes*)."""
        cuts = numpy.zeros(len(sizes) + 1, dtype=numpy.int64)
        numpy.cumsum(sizes, out=cuts[1:])
        return cls(
            rows=rows,
            row=row,
            offset=offset,
            length=length,
            exact=numpy.zeros(len(row), dtype=bool) if exact is None else exact,
            cuts=cuts,
            positions=positions,
        )

    @classmethod
    def empty(cls, rows: int) -> "SeedTable":
        none = numpy.zeros(0, dtype=numpy.int64)
        return cls.of(rows, none, none, none, none, none)

    @classmethod
    def from_entries(
        cls,
        rows: int,
        entries: Sequence[Tuple[int, int, int, Sequence[int], bool]],
    ) -> "SeedTable":
        """A table from ``(row, offset, length, hits, exact)`` tuples, in order."""
        if not entries:
            return cls.empty(rows)
        row, offset, length, hits, exact = zip(*entries)
        sizes = numpy.fromiter(map(len, hits), dtype=numpy.int64, count=len(hits))
        return cls.of(
            rows,
            numpy.array(row, dtype=numpy.int64),
            numpy.array(offset, dtype=numpy.int64),
            numpy.array(length, dtype=numpy.int64),
            sizes,
            numpy.fromiter(
                chain.from_iterable(hits), dtype=numpy.int64, count=int(sizes.sum())
            ),
            numpy.array(exact, dtype=bool),
        )

    @classmethod
    def from_lists(cls, seed_lists: Sequence[Sequence[GlobalSeed]]) -> "SeedTable":
        """The table of per-row :class:`GlobalSeed` lists (any order kept)."""
        return cls.from_entries(
            len(seed_lists),
            [
                (row, seed.read_offset, seed.length, seed.positions, seed.exact_whole_read)
                for row, seeds in enumerate(seed_lists)
                for seed in seeds
            ],
        )

    @classmethod
    def concat(cls, rows: int, parts: Iterable["SeedTable"]) -> "SeedTable":
        """The seeds of every part, in (row, offset, length) order."""
        parts = list(parts)
        if not parts:
            return cls.empty(rows)
        table = cls.of(
            rows,
            numpy.concatenate([part.row for part in parts]),
            numpy.concatenate([part.offset for part in parts]),
            numpy.concatenate([part.length for part in parts]),
            numpy.concatenate([part.sizes for part in parts]),
            numpy.concatenate([part.positions for part in parts]),
            numpy.concatenate([part.exact for part in parts]),
        )
        order = numpy.lexsort((table.length, table.offset, table.row))
        if (order[1:] < order[:-1]).any():
            table = table.take(order)
        return table

    @property
    def sizes(self) -> Ints:
        """Hits per seed."""
        return numpy.diff(self.cuts)

    def take(self, seeds: Ints) -> "SeedTable":
        """The table of *seeds* (seed indexes, in the order given)."""
        sizes = self.sizes[seeds]
        return SeedTable.of(
            self.rows,
            self.row[seeds],
            self.offset[seeds],
            self.length[seeds],
            sizes,
            gather_runs(self.positions, self.cuts[seeds], sizes),
            self.exact[seeds],
        )

    def __len__(self) -> int:
        return self.rows

    def __iter__(self) -> Iterator[List[GlobalSeed]]:
        return (self[row] for row in range(self.rows))

    def __getitem__(self, row: int) -> List[GlobalSeed]:
        if row < 0:
            row += self.rows
        if not 0 <= row < self.rows:
            raise IndexError(f"row {row} outside a table of {self.rows}")
        first, last = numpy.searchsorted(self.row, [row, row + 1]).tolist()
        positions = self.positions[self.cuts[first] : self.cuts[last]].tolist()
        base = int(self.cuts[first])
        return [
            GlobalSeed(
                read_offset=offset,
                length=length,
                positions=tuple(positions[begin - base : end - base]),
                exact_whole_read=exact,
            )
            for offset, length, exact, begin, end in zip(
                self.offset[first:last].tolist(),
                self.length[first:last].tolist(),
                self.exact[first:last].tolist(),
                self.cuts[first:last].tolist(),
                self.cuts[first + 1 : last + 1].tolist(),
            )
        ]


@dataclass
class SmemConfig:
    """Knobs for the seeding algorithm."""

    k: int = 12
    mode: SeedingMode = SeedingMode.SMEM
    probe: bool = False
    probe_divisors: Tuple[int, ...] = (1, 2, 4)  # probe strides k/1, k/2, k/4
    exact_match_fast_path: bool = False
    cam_size: int = 512
    use_binary_fallback: bool = True

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.k > MAX_K:
            raise ValueError(
                f"k must be at most {MAX_K} (int64 k-mer codes), got {self.k}"
            )
        if any(divisor <= 0 for divisor in self.probe_divisors):
            raise ValueError(
                f"probe divisors must be positive, got {self.probe_divisors}"
            )


@dataclass
class FinderStats:
    """Per-finder counters (merged upward into lane/accelerator stats)."""

    index_lookups: int = 0
    rmems_computed: int = 0
    seeds_reported: int = 0
    hits_reported: int = 0
    exact_match_reads: int = 0

    def merge(self, other: "FinderStats") -> None:
        self.index_lookups += other.index_lookups
        self.rmems_computed += other.rmems_computed
        self.seeds_reported += other.seeds_reported
        self.hits_reported += other.hits_reported
        self.exact_match_reads += other.exact_match_reads


class ReadBatch:
    """A batch of reads encoded once for every segment it is seeded against.

    ``flat_codes`` holds every read's
    :func:`~repro.seeding.index.kmer_codes` end to end, read ``i``'s
    filling ``flat_codes[bounds[i]:bounds[i + 1]]``, so an entry's flat
    index names a (read, pivot) pair; :attr:`codes` splits them per read.
    The whole batch is encoded in one NumPy pass over the reads'
    concatenation, whose 2-bit bases the RMEM search also compares
    (:attr:`words`, :attr:`clean`).
    """

    def __init__(self, reads: Sequence[str], k: int) -> None:
        self.reads = reads
        lengths = numpy.fromiter(map(len, reads), dtype=numpy.int64, count=len(reads))
        read_starts = numpy.zeros(len(reads) + 1, dtype=numpy.int64)
        numpy.cumsum(lengths, out=read_starts[1:])
        self._bases = encode_bases("".join(reads))
        self._read_ends = read_starts[1:]
        counts = numpy.maximum(lengths - k + 1, 0)
        bounds = numpy.zeros(len(reads) + 1, dtype=numpy.int64)
        numpy.cumsum(counts, out=bounds[1:])
        self.bounds = bounds
        # The read each flat entry belongs to, and its pivot's position in
        # the concatenation.
        self.read_of = numpy.repeat(numpy.arange(len(reads)), counts)
        self.starts = read_starts[self.read_of] + (
            numpy.arange(int(bounds[-1])) - bounds[self.read_of]
        )
        self.flat_codes = kmer_codes_at(self._bases, self.starts, k)

    @cached_property
    def codes(self) -> List[List[int]]:
        """Per read, its k-mer codes as ``int``s (``NAIVE`` mode and the
        oracles walk these; the RMEM search reads :attr:`flat_codes`)."""
        flat = self.flat_codes.tolist()
        bounds = self.bounds.tolist()
        return [flat[begin:end] for begin, end in zip(bounds, bounds[1:])]

    @cached_property
    def words(self) -> NDArray[numpy.uint64]:
        """The concatenated reads, 2 bits per base (:func:`pack_bases`).

        A base outside upper-case ``ACGT`` packs as ``A``; :attr:`clean`
        keeps every match short of it.
        """
        return pack_bases(self._bases & 3)

    @cached_property
    def clean(self) -> Ints:
        """Per flat entry, the ``ACGT`` bases from its pivot to the first
        other base or the read's end, whichever comes first."""
        stops = numpy.union1d(
            numpy.flatnonzero(self._bases == DIRTY_BASE), self._read_ends
        )
        # The first stop past the pivot: the stop at a pivot is the end of
        # the read before it (a live pivot never sits on a dirty base).
        following = numpy.searchsorted(stops, self.starts, side="right")
        return stops[following] - self.starts


class SmemFinder:
    """Seed finder over a stack of segment k-mer indexes.

    *index* is one index or a sequence of them; a single index is a stack
    of one.  :meth:`seed_table` seeds a batch against every index of
    the stack with one RMEM search pass (:meth:`seed_segments` gives the
    same seeds as objects); :meth:`seed_batch` and :meth:`rmem` answer
    against a stack of one.
    """

    def __init__(
        self,
        index: Union[KmerIndex, Sequence[KmerIndex]],
        config: Optional[SmemConfig] = None,
        engine: Optional[IntersectionEngine] = None,
    ) -> None:
        self.indexes: Tuple[KmerIndex, ...] = (
            tuple(index) if isinstance(index, Sequence) else (index,)
        )
        self.config = config or SmemConfig()
        for each in self.indexes:
            if self.config.k != each.k:
                raise ValueError(
                    f"config k={self.config.k} does not match index k={each.k}"
                )
        self.engine = engine or IntersectionEngine(
            cam_size=self.config.cam_size,
            use_binary_fallback=self.config.use_binary_fallback,
        )
        self.stats = FinderStats()

    @property
    def index(self) -> KmerIndex:
        """The index of a stack of one."""
        self._require_one()
        return self.indexes[0]

    def _require_one(self) -> None:
        if len(self.indexes) != 1:
            raise ValueError(
                f"this finder searches a stack of {len(self.indexes)} indexes"
            )

    # ----------------------------------------------------------- public API

    def find_seeds(self, read: str) -> List[Seed]:
        """Return the seeds for *read* under the configured mode."""
        return self.seed_batch(ReadBatch([read], self.config.k))[0]

    def seed_batch(self, batch: ReadBatch) -> List[List[Seed]]:
        """Seeds of every read of *batch* against a stack of one."""
        self._require_one()
        return self.seed_segments(batch)[0]

    def seed_segments(self, batch: ReadBatch) -> List[List[List[Seed]]]:
        """:meth:`seed_table` as objects: ``out[segment][read]`` holds the
        read's seeds in that index, hits local to it."""
        table = self.seed_table(batch)
        out: List[List[List[Seed]]] = [
            [[] for __ in batch.reads] for __ in self.indexes
        ]
        positions = table.positions.tolist()
        cuts = table.cuts.tolist()
        for row, offset, length, begin, end in zip(
            table.row.tolist(),
            table.offset.tolist(),
            table.length.tolist(),
            cuts,
            cuts[1:],
        ):
            segment, read = divmod(row, len(batch.reads))
            out[segment][read].append(
                Seed(read_offset=offset, length=length, hits=tuple(positions[begin:end]))
            )
        return out

    def seed_table(self, batch: ReadBatch) -> SeedTable:
        """Seeds of every read of *batch* against every index of the stack.

        Row ``segment * R + read`` of the table (``R`` reads in the batch)
        holds the read's seeds in that index, hits local to it.  One
        :attr:`key_table` lookup gives the row of every k-mer of the batch
        in every index (:meth:`_lookup`); rows of the stacked counts are
        ``segment * P + pivot`` (``P`` pivots in the batch),
        segment-major.  The exact-match fast path walks only the
        (segment, read) pairs the counts leave open
        (:meth:`_exact_candidates`), and ``NAIVE`` mode answers one pair
        at a time; every other pair's pivots go to one RMEM search pass
        (:meth:`_smem_seeds`).
        """
        reads = len(batch.reads)
        rows = len(self.indexes) * reads
        index_rows, counts = self._lookup(batch)
        pending = numpy.ones((len(self.indexes), reads), dtype=bool)
        entries: List[Tuple[int, int, int, Sequence[int], bool]] = []
        if self.config.exact_match_fast_path:
            for segment, read_id in self._exact_candidates(batch, counts):
                exact = self._exact_match_hits(batch, index_rows, segment, read_id)
                if exact is not None:
                    self.stats.exact_match_reads += 1
                    length = len(batch.reads[read_id])
                    entries.append((segment * reads + read_id, 0, length, exact, False))
                    pending[segment, read_id] = False
        parts = [SeedTable.from_entries(rows, entries)]
        if self.config.mode is SeedingMode.NAIVE:
            naive = [
                (segment * reads + read_id, seed.read_offset, seed.length, seed.hits, False)
                for segment, read_id in zip(*numpy.nonzero(pending))
                for seed in self._naive_seeds(
                    self.indexes[segment], batch.codes[read_id]
                )
            ]
            parts.append(SeedTable.from_entries(rows, naive))
        elif pending.any():
            parts.append(self._smem_seeds(batch, pending, index_rows, counts))
        table = SeedTable.concat(rows, parts)
        self.stats.seeds_reported += len(table.row)
        self.stats.hits_reported += len(table.positions)
        return table

    @cached_property
    def key_table(self) -> KeyTable:
        """The hashed code -> row table over every index of the stack.

        :meth:`~repro.seeding.index.KmerIndex.stack_table` of the first
        index: built on the first seed, never when the finder is made,
        and shared by every finder over the same indexes; a stack of one
        reads its index's own
        :attr:`~repro.seeding.index.KmerIndex.key_table`.
        """
        first, *rest = self.indexes
        return first.stack_table(tuple(rest))

    def _lookup(self, batch: ReadBatch) -> Tuple[NDArray[numpy.int32], Ints]:
        """Every k-mer of *batch* looked up in every index at once.

        Returns the ``(indexes, P)`` row matrix, ``-1`` where an index
        lacks the k-mer, and the stacked hit counts, ``segment * P +
        pivot``.
        """
        index_rows = self.key_table.lookup(batch.flat_codes)
        counts = numpy.concatenate(
            [index.row_sizes[row] for index, row in zip(self.indexes, index_rows)]
        )
        return index_rows, counts

    def _exact_candidates(
        self, batch: ReadBatch, counts: Ints
    ) -> List[Tuple[int, int]]:
        """The (segment, read) pairs whose spanning k-mers all have hits.

        The fast path looks a read's spanning k-mers up in order and gives
        up at the first without hits.  For every other pair this charges
        those lookups, the miss included, and nothing else; the pairs
        returned run the fast path itself.
        """
        k = self.config.k
        sizes = numpy.diff(batch.bounds)  # k-mers per read
        reads = numpy.flatnonzero(sizes)
        if not reads.size:
            return []
        # Spanning offsets 0, k, 2k, ... and the last k-mer's; an offset
        # past the last k-mer clamps to it.
        spans = -(-sizes[reads] // k) + ((sizes[reads] - 1) % k != 0)
        starts = numpy.cumsum(spans) - spans
        owner = numpy.repeat(reads, spans)
        rank = numpy.arange(int(spans.sum())) - numpy.repeat(starts, spans)
        pivots = batch.bounds[owner] + numpy.minimum(rank * k, sizes[owner] - 1)
        hit = counts.reshape(len(self.indexes), -1)[:, pivots] > 0
        misses = numpy.where(hit, int(spans.max()), rank)
        first_miss = numpy.minimum.reduceat(misses, starts, axis=1)
        failed = first_miss < spans
        self.stats.index_lookups += int((first_miss + 1)[failed].sum())
        segments, columns = numpy.nonzero(~failed)
        return list(zip(segments.tolist(), reads[columns].tolist()))

    def rmem(self, read: str, pivot: int) -> Optional[Seed]:
        """Right-maximal exact match starting at *pivot* (length >= k)."""
        if pivot < 0:
            raise ValueError(f"pivot must be non-negative, got {pivot}")
        batch = ReadBatch([read], self.config.k)
        if pivot >= len(batch.flat_codes):
            return None
        self.stats.rmems_computed += 1
        self.stats.index_lookups += 1
        index_rows, counts = self._lookup(batch)
        if not counts[pivot]:
            return None
        lengths, __, positions, match = self._search(
            batch, numpy.array([pivot]), index_rows, counts
        )
        hits = positions[match >= lengths[0]].tolist()
        return Seed(read_offset=pivot, length=int(lengths[0]), hits=tuple(hits))

    # ------------------------------------------------------------ internals

    def _exact_match_hits(
        self,
        batch: ReadBatch,
        index_rows: NDArray[numpy.int32],
        segment: int,
        read_id: int,
    ) -> Optional[Tuple[int, ...]]:
        """Fast path: hits where the *entire read* matches exactly, or None.

        Looks up the read's spanning k-mers (offsets ``0, k, 2k, ...`` and
        the last) in the batch's *index_rows*, then intersects in
        ascending hit-count order so the candidate set shrinks as fast as
        possible (§V, item 4).
        """
        first = int(batch.bounds[read_id])
        last = int(batch.bounds[read_id + 1]) - first - 1  # the final k-mer
        if last < 0:
            return None  # read shorter than k
        offsets = list(range(0, last + 1, self.config.k))
        if offsets[-1] != last:
            offsets.append(last)
        index = self.indexes[segment]
        rows = index_rows[segment, first + numpy.array(offsets)]
        sizes = index.row_sizes[rows]
        misses = numpy.flatnonzero(sizes == 0)
        if misses.size:
            self.stats.index_lookups += int(misses[0]) + 1
            return None
        self.stats.index_lookups += len(offsets)
        begins = index.offsets[rows]
        spans = list(zip(begins.tolist(), (begins + sizes).tolist()))
        order = numpy.argsort(sizes, kind="stable").tolist()
        begin, end = spans[order[0]]
        first_offset = offsets[order[0]]
        candidates = [
            hit - first_offset
            for hit in index.positions[begin:end].tolist()
            if hit >= first_offset
        ]
        for place in order[1:]:
            begin, end = spans[place]
            candidates = self.engine.intersect(
                candidates,
                index.positions[begin:end].tolist(),
                incoming_offset=offsets[place],
            )
            if not candidates:
                return None
        return tuple(candidates)

    def _smem_seeds(
        self,
        batch: ReadBatch,
        searched: NDArray[numpy.bool_],
        index_rows: NDArray[numpy.int32],
        counts: Ints,
    ) -> SeedTable:
        """RMEM of every searched pivot, filtered to super-maximal matches.

        *searched* marks the (segment, read) pairs to search; their pivots
        are the rows of the stacked *counts* and of the flattened
        *index_rows* (:meth:`_lookup`), so each segment's rows are one
        block.  Every row is charged its RMEM and its first lookup; the
        rows whose first k-mer has no hit end there.  The live ones are searched in chunks of at most
        ``PAIR_BUDGET`` bytes of pair arrays, in row order, so each
        (segment, read)'s running maximum seed end carries from chunk to
        chunk.  A kept seed's hits stay a slice of its chunk's positions.
        """
        wanted = searched[:, batch.read_of].ravel()
        charged = int(numpy.count_nonzero(wanted))
        self.stats.rmems_computed += charged
        self.stats.index_lookups += charged
        live = numpy.flatnonzero(wanted & (counts > 0))
        if not live.size:
            return SeedTable.empty(searched.size)
        per_chunk = max(1, PAIR_BUDGET // _PAIR_BYTES)
        chunk_of = (numpy.cumsum(counts[live]) - 1) // per_chunk
        read_count = len(batch.reads)
        max_end = numpy.zeros(searched.size, dtype=numpy.int64)
        parts: List[SeedTable] = []
        for chunk in numpy.split(live, numpy.flatnonzero(numpy.diff(chunk_of)) + 1):
            lengths, pair_row, positions, match = self._search(
                batch, chunk, index_rows, counts
            )
            segments, pivots = numpy.divmod(chunk, len(batch.flat_codes))
            reads = batch.read_of[pivots]
            offsets = pivots - batch.bounds[reads]
            ends = offsets + lengths
            # A seed is reported iff it ends past every earlier seed of its
            # (segment, read): a running maximum per group, keyed so groups
            # never mix.
            groups = segments * read_count + reads
            span = int(ends.max()) + 1
            keys = groups * span + ends
            before = numpy.concatenate(([-1], numpy.maximum.accumulate(keys)[:-1]))
            earlier = numpy.where(before >= groups * span, before - groups * span, 0)
            keep = ends > numpy.maximum(earlier, max_end[groups])
            numpy.maximum.at(max_end, groups, ends)
            take = keep[pair_row] & (match >= lengths[pair_row])
            parts.append(
                SeedTable.of(
                    searched.size,
                    groups[keep],
                    offsets[keep],
                    lengths[keep],
                    numpy.bincount(pair_row[take], minlength=len(chunk))[keep],
                    positions[take],
                )
            )
        return SeedTable.concat(searched.size, parts)

    def _search(
        self,
        batch: ReadBatch,
        rows: Ints,
        index_rows: NDArray[numpy.int32],
        counts: Ints,
    ) -> Tuple[Ints, Ints, Ints, Ints]:
        """RMEM lengths of live stacked *rows* (ascending; see :meth:`_smem_seeds`).

        Returns ``(lengths, pair_row, positions, match)``: per row its
        RMEM length, and per (row, first hit) pair the row's place in
        *rows*, the segment-local hit and the pair's match length,
        row-major with each row's hits ascending.  The row's RMEM hits are
        its pairs with ``match >= length``.  Charges every lookup and
        intersection after the first lookup.
        """
        first = counts[rows]
        segments, pivots = numpy.divmod(rows, len(batch.flat_codes))
        first_rows = index_rows.ravel()[rows]
        cuts = numpy.searchsorted(segments, numpy.arange(len(self.indexes) + 1))
        positions = numpy.concatenate(
            [
                index.gather(first_rows[begin:end], first[begin:end])
                for index, begin, end in zip(self.indexes, cuts, cuts[1:])
                if end > begin
            ]
        )
        pair_row = numpy.repeat(numpy.arange(len(rows)), first)
        match = self._match_lengths(batch, segments, pivots, pair_row, positions)
        # Codes from each pivot to its read's end: offset o exists iff o < left.
        left = batch.bounds[batch.read_of[pivots] + 1] - pivots
        lengths = self._replay(rows, left, counts, pair_row, match)
        return lengths, pair_row, positions, match

    @cached_property
    def _stacked_words(self) -> Tuple[NDArray[numpy.uint64], Ints, Ints]:
        """Every index's ``base_words`` end to end, with each index's first
        base in the result and its sequence length.

        Each block starts on a word and ends with a zero word, so a
        position's successor word never belongs to another block.
        """
        blocks = [index.base_words for index in self.indexes]
        sizes = numpy.array([len(block) for block in blocks], dtype=numpy.int64)
        firsts = BASES_PER_WORD * (numpy.cumsum(sizes) - sizes)
        lengths = numpy.array(
            [index.sequence_length for index in self.indexes], dtype=numpy.int64
        )
        words = blocks[0] if len(blocks) == 1 else numpy.concatenate(blocks)
        return words, firsts, lengths

    def _match_lengths(
        self,
        batch: ReadBatch,
        segments: Ints,
        pivots: Ints,
        pair_row: Ints,
        positions: Ints,
    ) -> Ints:
        """Exact-match length of each (row, segment position) pair.

        Compares 32 bases per step: XOR the read's and the segment's 2-bit
        words and take the first non-zero base.  A pair leaves the loop at
        its first mismatch or once its cap (read end, first non-``ACGT``
        read base, its own segment's end) is covered.
        """
        words, firsts, lengths = self._stacked_words
        starts, clean = batch.starts[pivots], batch.clean[pivots]
        pair_segment = segments[pair_row]
        cap = numpy.minimum(clean[pair_row], lengths[pair_segment] - positions)
        stacked = positions + firsts[pair_segment]
        match = cap.copy()
        todo = numpy.arange(len(positions))
        covered = 0
        while todo.size:
            todo = todo[cap[todo] > covered]
            # A pivot whose read part is covered has no pair left; it reads
            # its first word again rather than past its read.
            shift = numpy.where(clean > covered, covered, 0)
            mismatch = base_words_at(batch.words, starts + shift)[pair_row[todo]]
            mismatch ^= base_words_at(words, stacked[todo] + covered)
            differs = mismatch != 0
            done = todo[differs]
            first = covered + _first_base(mismatch[differs])
            match[done] = numpy.minimum(cap[done], first)
            todo = todo[~differs]
            covered += BASES_PER_WORD
        return match

    def _replay(
        self,
        rows: Ints,
        left: Ints,
        counts: Ints,
        pair_row: Ints,
        match: Ints,
    ) -> Ints:
        """Run the stride schedule for every row at once; return the lengths.

        Each round takes one step of every unfinished row: the lookup and
        intersection of the k-mer at ``length + stride - k``, then the same
        grow / halve / stop rule as the walk.  A step's k-mer exists iff
        its offset is below the row's *left*, so ``counts[row + offset]``
        stays in the row's own segment block.  Candidate counts come from
        the pairs' match lengths sorted per row.  Every round's
        ``(candidates, incoming)`` counts, the probe's included, go to one
        :meth:`~repro.seeding.cam.IntersectionEngine.charge` at the end:
        each counter it charges is a sum over intersections.
        """
        k = self.config.k
        count = len(rows)
        places = numpy.arange(count)
        first = counts[rows]
        span = int(match.max()) + 1
        ordered = numpy.sort(pair_row * span + match)
        pair_end = numpy.cumsum(first)
        longest = ordered[pair_end - 1] - places * span
        length = numpy.full(count, k, dtype=numpy.int64)
        matchings: List[Ints] = []
        incomings: List[Ints] = []
        if self.config.probe:
            best = numpy.zeros(count, dtype=numpy.int64)
            best_stride = numpy.zeros(count, dtype=numpy.int64)
            for divisor in self.config.probe_divisors:
                stride = max(1, k // divisor)
                reach = numpy.flatnonzero(stride < left)
                self.stats.index_lookups += len(reach)
                incoming = numpy.zeros(count, dtype=numpy.int64)
                incoming[reach] = counts[rows[reach] + stride]
                better = (incoming > 0) & ((best == 0) | (incoming < best))
                best[better] = incoming[better]
                best_stride[better] = stride
            probed = numpy.flatnonzero(best)
            matchings.append(first[probed])
            incomings.append(best[probed])
            grown = probed[longest[probed] >= k + best_stride[probed]]
            length[grown] += best_stride[grown]

        stride = numpy.full(count, k, dtype=numpy.int64)
        fixed = self.config.mode is SeedingMode.SMEM_FIXED
        active = places
        while active.size:
            offset = length[active] + stride[active] - k
            reach = offset < left[active]
            tested = active[reach]
            self.stats.index_lookups += len(tested)
            step = stride[tested]
            # The candidates are the first hits matching the whole length.
            matchings.append(
                pair_end[tested]
                - numpy.searchsorted(ordered, tested * span + length[tested])
            )
            incomings.append(counts[rows[tested] + offset[reach]])
            grows = longest[tested] >= length[tested] + step
            length[tested[grows]] += step[grows]
            failed = tested[~grows]
            if fixed:
                stride[failed] = 0
            else:
                stride[failed] //= 2
            stride[active[~reach]] //= 2
            active = active[stride[active] > 0]
        self.engine.charge(numpy.concatenate(matchings), numpy.concatenate(incomings))
        return length

    def _naive_seeds(self, index: KmerIndex, codes: Sequence[int]) -> List[Seed]:
        """Every k-mer's raw hits — the naive hash-table baseline."""
        k = self.config.k
        seeds: List[Seed] = []
        for pivot, code in enumerate(codes):
            hits = index.hits_code(code)
            self.stats.index_lookups += 1
            if hits:
                seeds.append(Seed(read_offset=pivot, length=k, hits=tuple(hits)))
        return seeds


def _first_base(words: NDArray[numpy.uint64]) -> Ints:
    """Index of the first non-zero 2-bit base of each non-zero word.

    ``w ^ (w & (w - 1))`` keeps a word's lowest set bit; one less is a mask
    of the bits below it, whose popcount is that bit's index.
    """
    lowest = words ^ (words & (words - numpy.uint64(1)))
    return (numpy.bitwise_count(lowest - numpy.uint64(1)) >> 1).astype(numpy.int64)
