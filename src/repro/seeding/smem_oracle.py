"""Reference implementations for verifying the seeding accelerator.

Two references live here.  The **brute-force scanner** checks *what* the
seeds are; the **CAM walk** checks *what they cost*.

The brute-force definitions follow §V exactly:

* an **RMEM** at pivot p is the longest substring ``read[p : p + L]``
  (L >= k) occurring exactly somewhere in the segment;
* the RMEM at pivot 0 is an SMEM; a later RMEM is an SMEM unless it is a
  substring (positional containment in the read) of a previously
  discovered SMEM.

The scanner reads the segment directly (no index), so it is independent
of every data structure the accelerated path uses.

The CAM walk (:class:`CamWalkFinder` over :class:`CamWalkEngine`) is the
hardware's own procedure, one pivot and one list element at a time: the
stride schedule intersects real hit lists, and every CAM load, CAM lookup
and binary-search probe is counted as the walk makes it.  The production
finder replays the same schedule from match lengths and charges the
counters from list lengths (:mod:`repro.seeding.smem`); the
``rmem-batch-vs-cam`` difftest pair holds the two equal in seeds and in
every counter.

:func:`seed_reads_per_segment` is the segmented accelerator as the
hardware runs it: one segment's tables at a time, a CAM walk per
segment, and the per-read merge across segments.  The
``segments-one-pass-vs-per-segment`` pair holds
:meth:`~repro.seeding.accelerator.SeedingAccelerator.seed_reads`, which
searches every segment in one pass, equal to it in seeds and in every
:class:`~repro.seeding.accelerator.SeedingStats` counter.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

import numpy
from numpy.typing import NDArray

from repro.seeding.accelerator import GlobalSeed, SeedingStats
from repro.seeding.cam import IntersectionEngine
from repro.seeding.index import IndexTables, KmerIndex, kmer_codes
from repro.seeding.smem import (
    ReadBatch,
    Seed,
    SeedingMode,
    SeedTable,
    SmemConfig,
    SmemFinder,
)


def brute_force_rmem(segment: str, read: str, pivot: int, k: int) -> Optional[Seed]:
    """Longest exact match starting at *pivot*, by direct string scanning."""
    if pivot + k > len(read):
        return None
    first = read[pivot : pivot + k]
    candidates = [
        position
        for position in range(len(segment) - k + 1)
        if segment[position : position + k] == first
    ]
    if not candidates:
        return None
    length = k
    while pivot + length < len(read):
        next_char = read[pivot + length]
        survivors = [
            position
            for position in candidates
            if position + length < len(segment)
            and segment[position + length] == next_char
        ]
        if not survivors:
            break
        candidates = survivors
        length += 1
    return Seed(read_offset=pivot, length=length, hits=tuple(candidates))


def brute_force_smems(segment: str, read: str, k: int) -> List[Seed]:
    """All SMEM seeds of *read* against *segment* (ground truth)."""
    seeds: List[Seed] = []
    max_end = 0
    for pivot in range(0, len(read) - k + 1):
        seed = brute_force_rmem(segment, read, pivot, k)
        if seed is None:
            continue
        if seed.end > max_end:
            seeds.append(seed)
            max_end = seed.end
    return seeds


def brute_force_exact_match(segment: str, read: str) -> Tuple[int, ...]:
    """All positions where the whole read occurs exactly in the segment."""
    return tuple(
        position
        for position in range(len(segment) - len(read) + 1)
        if segment[position : position + len(read)] == read
    )


class CamWalkEngine(IntersectionEngine):
    """The intersection datapath walked element by element.

    Same strategy choice as :meth:`IntersectionEngine.charge`, but each
    strategy runs over the lists and counts every CAM load, CAM lookup and
    binary-search probe as it happens.
    """

    def intersect(
        self,
        candidates: Sequence[int],
        incoming_sorted: Sequence[int],
        incoming_offset: int = 0,
    ) -> List[int]:
        self.stats.intersections += 1
        if not candidates or not incoming_sorted:
            return []

        n_cand, n_in = len(candidates), len(incoming_sorted)
        smaller, larger = min(n_cand, n_in), max(n_cand, n_in)
        cam_cost = larger if smaller <= self.cam_size else (
            -(-smaller // self.cam_size) * larger  # batched passes
        )
        binary_cost = smaller * max(1, larger).bit_length()
        use_binary = self.use_binary_fallback and binary_cost < cam_cost

        if use_binary:
            self.stats.overflow_fallbacks += 1
            if n_cand <= n_in:
                return self._binary_probe_incoming(
                    candidates, incoming_sorted, incoming_offset
                )
            return self._binary_probe_candidates(
                candidates, incoming_sorted, incoming_offset
            )
        if n_cand <= n_in:
            return self._cam_stream(
                loaded=list(candidates),
                streamed=incoming_sorted,
                streamed_delta=-incoming_offset,
            )
        normalized = [hit - incoming_offset for hit in incoming_sorted]
        return self._cam_stream(
            loaded=normalized, streamed=candidates, streamed_delta=0
        )

    def _binary_probe_incoming(
        self,
        candidates: Sequence[int],
        incoming_sorted: Sequence[int],
        incoming_offset: int,
    ) -> List[int]:
        """Probe the sorted incoming list once per candidate."""
        probes_each = max(1, len(incoming_sorted)).bit_length()
        survivors: List[int] = []
        for candidate in candidates:
            target = candidate + incoming_offset
            self.stats.search_probes += probes_each
            position = bisect_left(incoming_sorted, target)
            if position < len(incoming_sorted) and incoming_sorted[position] == target:
                survivors.append(candidate)
        return survivors

    def _binary_probe_candidates(
        self,
        candidates: Sequence[int],
        incoming_sorted: Sequence[int],
        incoming_offset: int,
    ) -> List[int]:
        """Probe the sorted candidate set once per incoming hit."""
        ordered = sorted(candidates)
        probes_each = max(1, len(ordered)).bit_length()
        survivors: List[int] = []
        for hit in incoming_sorted:
            target = hit - incoming_offset
            self.stats.search_probes += probes_each
            position = bisect_left(ordered, target)
            if position < len(ordered) and ordered[position] == target:
                survivors.append(target)
        survivors.sort()
        return survivors

    def _cam_stream(
        self, loaded: List[int], streamed: Sequence[int], streamed_delta: int
    ) -> List[int]:
        """Load one set into the CAM, probe once per streamed element.

        Sets larger than the CAM are processed in CAM-sized batches (the
        hardware would spill; the lookup count reflects the extra passes).
        """
        survivors: List[int] = []
        for batch_start in range(0, len(loaded), self.cam_size):
            batch = loaded[batch_start : batch_start + self.cam_size]
            self.stats.cam_loads += len(batch)
            batch_set = set(batch)
            for element in streamed:
                self.stats.cam_lookups += 1
                normalized = element + streamed_delta
                if normalized in batch_set:
                    survivors.append(normalized)
        survivors.sort()
        return survivors


class CamWalkFinder(SmemFinder):
    """:class:`SmemFinder` running the RMEM search one pivot at a time.

    Each pivot's stride schedule intersects real hit lists on a
    :class:`CamWalkEngine`, exactly as a seeding lane's control FSM does,
    and the exact-match fast path looks up every (segment, read) pair's
    k-mers itself, one ``hits_code`` each; ``NAIVE`` mode is the finder's
    own.
    """

    def __init__(self, index: KmerIndex, config: Optional[SmemConfig] = None) -> None:
        config = config or SmemConfig()
        super().__init__(
            index,
            config,
            CamWalkEngine(
                cam_size=config.cam_size,
                use_binary_fallback=config.use_binary_fallback,
            ),
        )

    def rmem(self, read: str, pivot: int) -> Optional[Seed]:
        if pivot < 0:
            raise ValueError(f"pivot must be non-negative, got {pivot}")
        return self._rmem(self.index, kmer_codes(read, self.config.k), pivot)

    def _exact_candidates(
        self, batch: ReadBatch, counts: NDArray[numpy.int64]
    ) -> List[Tuple[int, int]]:
        """Every (segment, read) pair: the fast path makes all its lookups."""
        return [
            (segment, read_id)
            for segment in range(len(self.indexes))
            for read_id in range(len(batch.reads))
        ]

    def _exact_match_hits(
        self,
        batch: ReadBatch,
        index_rows: NDArray[numpy.int32],
        segment: int,
        read_id: int,
    ) -> Optional[Tuple[int, ...]]:
        """The fast path with its own lookups; *index_rows* go unused.

        Looks up spanning k-mers until the first without hits, then
        intersects in ascending hit-count order.
        """
        codes = batch.codes[read_id]
        if not codes:
            return None  # read shorter than k
        index = self.indexes[segment]
        last = len(codes) - 1  # offset of the read's final k-mer
        offsets = list(range(0, last + 1, self.config.k))
        if offsets[-1] != last:
            offsets.append(last)
        lists = []
        for offset in offsets:
            hits = index.hits_code(codes[offset])
            self.stats.index_lookups += 1
            if not hits:
                return None
            lists.append((len(hits), offset, hits))
        lists.sort(key=lambda item: item[0])
        __, first_offset, first_hits = lists[0]
        candidates = [hit - first_offset for hit in first_hits if hit >= first_offset]
        for __, offset, hits in lists[1:]:
            candidates = self.engine.intersect(candidates, hits, incoming_offset=offset)
            if not candidates:
                return None
        return tuple(candidates)

    def _smem_seeds(
        self,
        batch: ReadBatch,
        searched: NDArray[numpy.bool_],
        index_rows: NDArray[numpy.int32],
        counts: NDArray[numpy.int64],
    ) -> SeedTable:
        """RMEM per pivot, filtered to super-maximal matches.

        Walks hit lists itself; the batch's *index_rows* and stacked
        *counts* go unused.
        """
        reads = len(batch.reads)
        entries: List[Tuple[int, int, int, Sequence[int], bool]] = []
        for segment, index in enumerate(self.indexes):
            for read_id in numpy.flatnonzero(searched[segment]).tolist():
                max_end = 0
                codes = batch.codes[read_id]
                for pivot in range(len(codes)):
                    seed = self._rmem(index, codes, pivot)
                    if seed is not None and seed.end > max_end:
                        entries.append(
                            (segment * reads + read_id, seed.read_offset,
                             seed.length, seed.hits, False)
                        )
                        max_end = seed.end
        return SeedTable.from_entries(searched.size, entries)

    def _rmem(
        self, index: KmerIndex, codes: Sequence[int], pivot: int
    ) -> Optional[Seed]:
        """:meth:`rmem` over the read's k-mer codes, against *index*.

        ``codes[i]`` is the k-mer at read offset ``i``, so a k-mer at
        offset ``o`` exists exactly when ``o < len(codes)``.
        """
        k = self.config.k
        last = len(codes)  # one past the last k-mer offset
        if pivot >= last:
            return None
        self.stats.rmems_computed += 1
        first_hits = index.hits_code(codes[pivot])
        self.stats.index_lookups += 1
        if not first_hits:
            return None
        # Candidates are segment positions of the *seed start* (= positions
        # of the first k-mer); extension hits are normalized against these.
        candidates = list(first_hits)
        length = k

        if self.config.probe:
            candidates, length = self._probe_first_extension(
                index, codes, pivot, candidates, length
            )

        stride = k
        while stride >= 1:
            offset = length + stride - k
            if pivot + offset >= last:
                stride //= 2
                continue
            hits = index.hits_code(codes[pivot + offset])
            self.stats.index_lookups += 1
            survivors = self.engine.intersect(candidates, hits, incoming_offset=offset)
            if survivors:
                candidates = survivors
                length += stride
                if self.config.mode is SeedingMode.SMEM_FIXED:
                    continue
            else:
                if self.config.mode is SeedingMode.SMEM_FIXED:
                    break
                stride //= 2
        return Seed(read_offset=pivot, length=length, hits=tuple(candidates))

    def _probe_first_extension(
        self,
        index: KmerIndex,
        codes: Sequence[int],
        pivot: int,
        candidates: List[int],
        length: int,
    ) -> Tuple[List[int], int]:
        """Probing optimization: pick the cheapest second k-mer (§V item 3)."""
        k = self.config.k
        best: Optional[Tuple[int, int, Sequence[int]]] = None
        for divisor in self.config.probe_divisors:
            stride = max(1, k // divisor)
            offset = length + stride - k
            if pivot + offset >= len(codes):
                continue
            hits = index.hits_code(codes[pivot + offset])
            self.stats.index_lookups += 1
            if not hits:
                continue
            if best is None or len(hits) < best[0]:
                best = (len(hits), stride, hits)
        if best is None:
            return candidates, length
        __, stride, hits = best
        offset = length + stride - k
        survivors = self.engine.intersect(candidates, hits, incoming_offset=offset)
        if survivors:
            return survivors, length + stride
        return candidates, length


def seed_reads_per_segment(
    tables: Sequence[IndexTables], config: SmemConfig, reads: Sequence[str]
) -> Tuple[List[List[GlobalSeed]], SeedingStats]:
    """Seed *reads* against each segment's tables in turn, then merge.

    Per segment a :class:`CamWalkFinder` seeds the batch and its seeds
    move to global coordinates; per read, the (offset, length, position)
    triples of every segment are deduplicated and grouped into one seed
    per (offset, length), sorted.  Returns the seeds and the counters the
    accelerator charges: each segment's table bytes once, every finder
    and CAM counter, and the reads.
    """
    stats = SeedingStats()
    merged: List[Dict[Tuple[int, int, int], None]] = [dict() for __ in reads]
    exact = [False] * len(reads)
    batch = ReadBatch(reads, config.k)
    for segment in tables:
        stats.table_bytes_streamed += segment.sram_bytes
        finder = CamWalkFinder(segment.index, config)
        for read_id, seeds in enumerate(finder.seed_batch(batch)):
            for seed in seeds:
                if seed.read_offset == 0 and seed.length == len(reads[read_id]):
                    exact[read_id] = True
                for hit in seed.hits:
                    position = segment.segment_start + hit
                    merged[read_id][(seed.read_offset, seed.length, position)] = None
        stats.finder.merge(finder.stats)
        stats.intersections.merge(finder.engine.stats)
    stats.reads_processed += len(reads)

    out: List[List[GlobalSeed]] = []
    for read_id, entries in enumerate(merged):
        grouped: Dict[Tuple[int, int], List[int]] = {}
        for offset, length, position in entries:
            grouped.setdefault((offset, length), []).append(position)
        out.append(
            [
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
        )
    return out, stats
