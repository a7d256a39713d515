"""GenAx: the full accelerator pipeline (§VI).

Architecture modelled (Fig. 11): 128 seeding lanes sharing segmented
index/position tables in on-chip SRAM, feeding 4 SillaX traceback lanes
that extend seed hits against windows fetched from the reference cache.
Segments are processed sequentially; all per-segment table traffic is
charged to the DDR4 streaming model.

Structurally the backend is a :class:`~repro.pipeline.stages.StageSet`
behind the shared :class:`~repro.pipeline.stages.PipelineDriver`:
:class:`SegmentedSeedProvider` (the seeding accelerator front-end),
optionally a pre-alignment :class:`~repro.filters.FilterCascade` (built
by name from :mod:`repro.filters.registry`), and
:class:`SillaXExtensionEngine` (the traceback lanes).  Functionally the
pipeline mirrors :mod:`repro.pipeline.bwamem` — the concordance
experiment (§VIII-A) compares the two extension engines behind the very
same driver loop — while the accounting (SillaX cycles, CAM lookups,
bytes streamed) feeds the throughput model behind Fig. 15.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.align.prefilter import PrefilterStats
from repro.align.records import (
    AlignmentStats,
    MappedRead,
    ReadInput,
)
from repro.align.scoring import BWA_MEM_SCHEME, ScoringScheme
from repro.filters import FilterCascade, MyersCandidateFilter, build_cascade
from repro.genome.reference import ReferenceGenome
from repro.pipeline.common import Candidate, Extension
from repro.pipeline.stages import ExtensionJob, PipelineDriver, StageSet
from repro.seeding.accelerator import (
    GlobalSeed,
    SeedingAccelerator,
    SeedingStats,
)
from repro.seeding.cache import IndexCache
from repro.seeding.index import IndexTables
from repro.seeding.smem import SmemConfig
from repro.sillax.dense import DenseTracebackMachine
from repro.sillax.lane import ExtensionOutcome, LaneStats, extension_window


@dataclass
class GenAxConfig:
    """GenAx operating point; defaults follow §VI-§VIII."""

    k: int = 12
    edit_bound: int = 40  # conservative K from §VIII-A
    min_score: int = 30
    max_candidates: Optional[int] = 64
    segment_count: int = 8  # 512 in the paper; scaled to the genome size
    seeding_lanes: int = 128
    sillax_lanes: int = 4
    probe: bool = True
    exact_match_fast_path: bool = True
    scheme: ScoringScheme = field(default_factory=lambda: BWA_MEM_SCHEME)
    # Pre-alignment filter cascade: an ordered tuple of registered filter
    # names (repro.filters.registry) vetoing candidate windows with no
    # semi-global placement of the read within ``prefilter_k`` edits
    # (None -> ``edit_bound``, the SillaX budget) before the
    # cycle-accurate lane runs.  ``None`` defers to the legacy
    # ``prefilter`` flag below, which maps onto the one-stage ("myers",)
    # cascade.
    filters: Optional[Tuple[str, ...]] = None
    prefilter: bool = False
    prefilter_k: Optional[int] = None
    # Shard-parallel driver knobs (consumed by repro.parallel.ParallelAligner).
    jobs: int = 1
    # Persist built index tables keyed by (sequence, k, segments) so
    # repeated runs skip the O(genome) rebuild (repro.seeding.cache).
    cache_dir: Optional[str] = None


class SegmentedSeedProvider:
    """:class:`SeedProvider` over the segmented seeding accelerator.

    Per-read mode streams the segment tables once per oriented sequence;
    batch mode hands the whole oriented batch to
    :meth:`SeedingAccelerator.seed_reads`, which streams each segment's
    tables once per batch (§VI) — that accounting difference is exactly
    what the two driver execution orders expose.
    """

    def __init__(self, accelerator: SeedingAccelerator) -> None:
        self.accelerator = accelerator

    @property
    def stats(self) -> SeedingStats:
        return self.accelerator.stats

    def seed(self, oriented: str) -> List[GlobalSeed]:
        return self.accelerator.seed_read(oriented)

    def seed_batch(self, oriented: Sequence[str]) -> List[List[GlobalSeed]]:
        return self.accelerator.seed_reads(oriented)


class SillaXExtensionEngine:
    """:class:`BatchExtensionEngine` over a round-robin pool of SillaX lanes.

    Jobs go to the lanes round-robin in job order, so each lane's
    :class:`LaneStats` (re-run samples included) is the same however the
    jobs are batched.  The lanes' traceback runs on the batched dense
    model (:class:`~repro.sillax.dense.DenseTracebackMachine`), which
    reproduces the cycle-level machine's results and cycle counters
    exactly; the object machine (:class:`~repro.sillax.lane.SillaXLane`)
    remains the reference the tests and difftest pair hold it to.
    """

    def __init__(
        self,
        reference: ReferenceGenome,
        edit_bound: int,
        scheme: ScoringScheme,
        lanes: int,
    ) -> None:
        self.reference = reference
        self.edit_bound = edit_bound
        self._machine = DenseTracebackMachine(edit_bound, scheme)
        self._lane_stats = [LaneStats() for _ in range(lanes)]
        self._next_lane = 0

    @property
    def lane_stats(self) -> LaneStats:
        """Merged SillaX lane statistics."""
        merged = LaneStats()
        for stats in self._lane_stats:
            merged.merge(stats)
        return merged

    def extend(
        self, oriented: str, candidate: Candidate, stats: AlignmentStats
    ) -> Optional[Extension]:
        return self.extend_batch([(oriented, candidate)], stats)[0]

    def extend_batch(
        self, jobs: Sequence[ExtensionJob], stats: AlignmentStats
    ) -> List[Optional[Extension]]:
        windows = [
            extension_window(
                self.reference, oriented, candidate.window_start, self.edit_bound
            )
            for oriented, candidate in jobs
        ]
        results = self._machine.align_batch(
            windows, [oriented for oriented, __ in jobs]
        )
        extensions: List[Optional[Extension]] = []
        for (__, candidate), result in zip(jobs, results):
            self._lane_stats[self._next_lane].record(result)
            self._next_lane = (self._next_lane + 1) % len(self._lane_stats)
            stats.extensions += 1
            stats.cycles += result.total_cycles
            outcome = ExtensionOutcome.placed(result, candidate.window_start)
            extensions.append(
                Extension(
                    candidate=candidate,
                    score=outcome.score,
                    position=outcome.position,
                    cigar=result.cigar,
                    query_end=result.alignment.query_end if result.alignment else 0,
                )
            )
        return extensions


class GenAxAligner:
    """The accelerator: a thin facade over the staged pipeline driver.

    Composes segmented SMEM seeding + (optional) pre-alignment filter
    cascade + SillaX seed extension into a :class:`StageSet`; the public
    mapping API, ``stats`` surface and output are unchanged (enforced
    bit-for-bit by the golden-fixture tests).
    """

    def __init__(
        self,
        reference: ReferenceGenome,
        config: Optional[GenAxConfig] = None,
        tables: Optional[List[IndexTables]] = None,
    ):
        self.reference = reference
        self.config = config or GenAxConfig()
        smem_config = SmemConfig(
            k=self.config.k,
            probe=self.config.probe,
            exact_match_fast_path=self.config.exact_match_fast_path,
        )
        cache = (
            IndexCache(self.config.cache_dir)
            if self.config.cache_dir is not None
            else None
        )
        self.seeder = SeedingAccelerator(
            reference,
            smem_config,
            segment_count=self.config.segment_count,
            lanes=self.config.seeding_lanes,
            cache=cache,
            tables=tables,
        )
        self._engine = SillaXExtensionEngine(
            reference,
            self.config.edit_bound,
            self.config.scheme,
            self.config.sillax_lanes,
        )
        filter_names = self.config.filters
        if filter_names is None and self.config.prefilter:
            # Legacy single-filter flag: the one-stage Myers cascade.
            filter_names = ("myers",)
        self._cascade = build_cascade(
            filter_names or (),
            reference,
            self.config.prefilter_k
            if self.config.prefilter_k is not None
            else self.config.edit_bound,
            self.config.edit_bound,
        )
        self._driver = PipelineDriver(
            StageSet(
                seeder=SegmentedSeedProvider(self.seeder),
                extender=self._engine,
                match_score=self.config.scheme.match,
                min_score=self.config.min_score,
                max_candidates=self.config.max_candidates,
                cascade=self._cascade,
            )
        )
        # The driver owns the counters; the facade aliases them so the
        # pre-refactor ``aligner.stats`` surface is unchanged.
        self.stats: AlignmentStats = self._driver.stats

    # ----------------------------------------------------------------- API

    @property
    def lane_stats(self) -> LaneStats:
        """Merged SillaX lane statistics."""
        return self._engine.lane_stats

    @property
    def seeding_stats(self) -> SeedingStats:
        return self.seeder.stats

    @property
    def cascade(self) -> Optional[FilterCascade]:
        """The installed pre-alignment cascade (None when disabled)."""
        return self._cascade

    @property
    def prefilter_stats(self) -> Optional[PrefilterStats]:
        """The Myers stage's own counters (None when no Myers stage runs)."""
        if self._cascade is not None:
            for stage in self._cascade.stages:
                if isinstance(stage, MyersCandidateFilter):
                    return stage.stats
        return None

    def align_read(self, name: str, sequence: str) -> MappedRead:
        """Map one read through the accelerator."""
        return self._driver.align_read(name, sequence)

    def align_reads(self, reads: Iterable[ReadInput]) -> List[MappedRead]:
        """Map a batch of (name, sequence) pairs or Read objects."""
        return self._driver.align_reads(reads)

    def align_batch(self, reads: Iterable[ReadInput]) -> List[MappedRead]:
        """Segment-major batch mapping — the order the hardware runs (§VI).

        All reads (both orientations) are seeded against each segment in
        turn, so each segment's tables are streamed **once per batch**
        instead of once per read; the buffered hits then flow to the SillaX
        lanes.  Functionally identical to :meth:`align_reads` (the tests
        enforce it); the accounting difference is the point.
        """
        return self._driver.align_batch(reads)
