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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.seeding.cam import IntersectionEngine
from repro.seeding.index import KmerIndex, kmer_codes


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


class SmemFinder:
    """Seed finder over one segment's k-mer index."""

    def __init__(
        self,
        index: KmerIndex,
        config: Optional[SmemConfig] = None,
        engine: Optional[IntersectionEngine] = None,
    ) -> None:
        self.index = index
        self.config = config or SmemConfig()
        if self.config.k != index.k:
            raise ValueError(
                f"config k={self.config.k} does not match index k={index.k}"
            )
        self.engine = engine or IntersectionEngine(
            cam_size=self.config.cam_size,
            use_binary_fallback=self.config.use_binary_fallback,
        )
        self.stats = FinderStats()

    # ----------------------------------------------------------- public API

    def find_seeds(
        self,
        read: str,
        codes: Optional[Sequence[int]] = None,
        live_pivots: Optional[Sequence[int]] = None,
    ) -> List[Seed]:
        """Return the seeds for *read* under the configured mode.

        *codes* are the read's :func:`~repro.seeding.index.kmer_codes`
        (computed here when not given).  *live_pivots*, when given, are the
        pivots whose first k-mer is known to be in the index; every other
        pivot is skipped without a lookup (see :meth:`_smem_seeds`).
        """
        if codes is None:
            codes = kmer_codes(read, self.config.k)
        if self.config.exact_match_fast_path:
            exact = self._exact_match_hits(codes)
            if exact is not None:
                self.stats.exact_match_reads += 1
                seed = Seed(read_offset=0, length=len(read), hits=exact)
                self._report([seed])
                return [seed]
        if self.config.mode is SeedingMode.NAIVE:
            seeds = self._naive_seeds(codes)
        else:
            seeds = self._smem_seeds(codes, live_pivots)
        self._report(seeds)
        return seeds

    def exact_match_hits(self, read: str) -> Optional[Tuple[int, ...]]:
        """Fast path: hits where the *entire read* matches exactly, or None.

        Looks up spanning k-mers, then intersects in ascending hit-count
        order so the candidate set shrinks as fast as possible (§V, item 4).
        """
        return self._exact_match_hits(kmer_codes(read, self.config.k))

    def rmem(self, read: str, pivot: int) -> Optional[Seed]:
        """Right-maximal exact match starting at *pivot* (length >= k)."""
        if pivot < 0:
            raise ValueError(f"pivot must be non-negative, got {pivot}")
        return self._rmem(kmer_codes(read, self.config.k), pivot)

    # ------------------------------------------------------------ internals

    def _exact_match_hits(self, codes: Sequence[int]) -> Optional[Tuple[int, ...]]:
        if not codes:
            return None  # read shorter than k
        last = len(codes) - 1  # offset of the read's final k-mer
        offsets = list(range(0, last + 1, self.config.k))
        if offsets[-1] != last:
            offsets.append(last)
        lists = []
        for offset in offsets:
            hits = self.index.hits_code(codes[offset])
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

    def _rmem(self, codes: Sequence[int], pivot: int) -> Optional[Seed]:
        """:meth:`rmem` over the read's k-mer codes.

        ``codes[i]`` is the k-mer at read offset ``i``, so a k-mer at
        offset ``o`` exists exactly when ``o < len(codes)``.
        """
        k = self.config.k
        last = len(codes)  # one past the last k-mer offset
        if pivot >= last:
            return None
        self.stats.rmems_computed += 1
        first_hits = self.index.hits_code(codes[pivot])
        self.stats.index_lookups += 1
        if not first_hits:
            return None
        # Candidates are segment positions of the *seed start* (= positions
        # of the first k-mer); extension hits are normalized against these.
        candidates = list(first_hits)
        length = k

        if self.config.probe:
            candidates, length = self._probe_first_extension(
                codes, pivot, candidates, length
            )

        stride = k
        while stride >= 1:
            offset = length + stride - k
            if pivot + offset >= last:
                stride //= 2
                continue
            hits = self.index.hits_code(codes[pivot + offset])
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
        self, codes: Sequence[int], pivot: int, candidates: List[int], length: int
    ) -> Tuple[List[int], int]:
        """Probing optimization: pick the cheapest second k-mer (§V item 3)."""
        k = self.config.k
        best: Optional[Tuple[int, int, Sequence[int]]] = None
        for divisor in self.config.probe_divisors:
            stride = max(1, k // divisor)
            offset = length + stride - k
            if pivot + offset >= len(codes):
                continue
            hits = self.index.hits_code(codes[pivot + offset])
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

    def _smem_seeds(
        self, codes: Sequence[int], live_pivots: Optional[Sequence[int]]
    ) -> List[Seed]:
        """RMEM per pivot, filtered to super-maximal matches.

        A pivot whose first k-mer is not in the index ends its RMEM at that
        first lookup.  When the caller already knows the live pivots (one
        batched pass per segment, :meth:`IndexTables.live`), the dead ones
        are charged that one RMEM and one lookup without running it.
        """
        if live_pivots is None:
            live_pivots = range(len(codes))
        else:
            dead = len(codes) - len(live_pivots)
            self.stats.rmems_computed += dead
            self.stats.index_lookups += dead
        seeds: List[Seed] = []
        max_end = 0
        for pivot in live_pivots:
            seed = self._rmem(codes, pivot)
            if seed is None:
                continue
            if seed.end > max_end:
                seeds.append(seed)
                max_end = seed.end
        return seeds

    def _naive_seeds(self, codes: Sequence[int]) -> List[Seed]:
        """Every k-mer's raw hits — the naive hash-table baseline."""
        k = self.config.k
        seeds: List[Seed] = []
        for pivot, code in enumerate(codes):
            hits = self.index.hits_code(code)
            self.stats.index_lookups += 1
            if hits:
                seeds.append(Seed(read_offset=pivot, length=k, hits=tuple(hits)))
        return seeds

    def _report(self, seeds: List[Seed]) -> None:
        self.stats.seeds_reported += len(seeds)
        self.stats.hits_reported += sum(len(seed.hits) for seed in seeds)
