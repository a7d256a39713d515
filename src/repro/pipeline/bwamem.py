"""BWA-MEM-like software aligner: the pipeline GenAx is validated against.

BWA-MEM [12] seeds with super-maximal exact matches and extends with a
banded affine-gap Smith-Waterman, keeping the best clipped score.  This
module reproduces that algorithm in instrumented Python as a
:class:`~repro.pipeline.stages.StageSet` behind the shared
:class:`~repro.pipeline.stages.PipelineDriver`:

* seeding (:class:`WholeGenomeSeedProvider`) uses the same SMEM
  definition as the accelerator (it *is* BWA-MEM's definition) over a
  single whole-genome index — software has no reason to segment;
* extension (:class:`BandedExtensionEngine`) is the banded affine-gap
  DP with a 2K+1 band, run for every candidate of a driver dispatch in
  one lane-batched :func:`repro.align.banded.batch_banded_extension_align`
  call (the scalar :func:`repro.align.banded.banded_extension_align` is
  its oracle);
* reads whose whole body matches exactly skip extension via the driver's
  shared fast path, like the real tool's perfect-match shortcut.

Every DP cell is counted, so benchmarks can compare *work* against the
accelerator's cycles without trusting Python wall-clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.align.banded import batch_banded_extension_align
from repro.align.records import AlignmentStats
from repro.align.scoring import BWA_MEM_SCHEME, ScoringScheme
from repro.filters import FilterCascade, build_cascade
from repro.genome.reference import ReferenceGenome
from repro.pipeline.common import Extension, dp_extension, fetch_window
from repro.pipeline.stages import (
    DriverFacade,
    ExtensionJob,
    PipelineDriver,
    StageSet,
)
from repro.seeding.accelerator import SeedingLane
from repro.seeding.index import IndexTables, KmerIndex
from repro.seeding.smem import ReadBatch, SeedTable, SmemConfig


@dataclass
class BwaMemConfig:
    """Tuning knobs, defaulting to the paper's operating point."""

    k: int = 12
    band: int = 40  # the conservative K = 40 from §VIII-A
    min_score: int = 30  # BWA-MEM reports alignments scoring above 30
    max_candidates: Optional[int] = 64
    scheme: ScoringScheme = field(default_factory=lambda: BWA_MEM_SCHEME)
    # Pre-alignment filter cascade: ordered registered filter names
    # (repro.filters.registry), sharing the DP band as the edit budget.
    # None/() disables filtering (the pinned default).
    filters: Optional[Tuple[str, ...]] = None
    # Shard-parallel driver knob (consumed by repro.parallel.ParallelAligner;
    # the software pipeline shards exactly like the accelerator does).
    jobs: int = 1


class WholeGenomeSeedProvider:
    """:class:`SeedProvider` over one unsegmented whole-genome index."""

    def __init__(self, lane: SeedingLane) -> None:
        self.lane = lane

    def seed_batch(self, oriented: Sequence[str]) -> SeedTable:
        # One segment covering the genome: the batch is encoded once and
        # its dead pivots found in one pass over the single table.
        return self.lane.seed_batch(ReadBatch(oriented, self.lane.config.k))


class BandedExtensionEngine:
    """:class:`ExtensionEngine` running banded affine-gap Smith-Waterman.

    Every job of a dispatch is aligned in one
    :func:`~repro.align.banded.batch_banded_extension_align` call at the
    engine's fixed band — exact against the scalar
    :func:`~repro.align.banded.banded_extension_align` in score, span,
    CIGAR and cell count.  There is no gate: every candidate is extended.
    """

    def __init__(
        self, reference: ReferenceGenome, band: int, scheme: ScoringScheme
    ) -> None:
        self.reference = reference
        self.band = band
        self.scheme = scheme

    def extend_batch(
        self, jobs: Sequence[ExtensionJob], stats: AlignmentStats
    ) -> List[Optional[Extension]]:
        windows = [
            fetch_window(self.reference, candidate, len(oriented), self.band)
            for oriented, candidate in jobs
        ]
        aligned = batch_banded_extension_align(
            windows,
            [oriented for oriented, __ in jobs],
            [self.band] * len(jobs),
            self.scheme,
        )
        extensions: List[Optional[Extension]] = []
        for (__, candidate), result in zip(jobs, aligned):
            stats.extensions += 1
            stats.dp_cells += result.cells_computed
            extensions.append(dp_extension(candidate, result.alignment))
        return extensions


class BwaMemAligner(DriverFacade):
    """Software seed-and-extend aligner over one reference genome.

    A thin facade over the shared :class:`PipelineDriver` — the same outer
    loop (and therefore the same per-read ``reads_exact`` accounting) the
    accelerator backend runs.  ``tables`` lets the shard-parallel driver
    hand fork-shared prebuilt tables to worker processes.
    """

    def __init__(
        self,
        reference: ReferenceGenome,
        config: Optional[BwaMemConfig] = None,
        tables: Optional[IndexTables] = None,
    ):
        self.reference = reference
        self.config = config or BwaMemConfig()
        smem_config = SmemConfig(k=self.config.k, exact_match_fast_path=True)
        if tables is None:
            tables = self.build_tables(reference, self.config.k)
        self._lane = SeedingLane(tables, smem_config)
        # The DP band doubles as the cascade's shared edit budget: an
        # alignment confined to the band can't exceed ``band`` edits.
        self._cascade = build_cascade(
            self.config.filters or (),
            reference,
            self.config.band,
            self.config.band,
        )
        self._driver = PipelineDriver(
            StageSet(
                seeder=WholeGenomeSeedProvider(self._lane),
                extender=BandedExtensionEngine(
                    reference, self.config.band, self.config.scheme
                ),
                match_score=self.config.scheme.match,
                min_score=self.config.min_score,
                max_candidates=self.config.max_candidates,
                cascade=self._cascade,
            )
        )
        self.stats: AlignmentStats = self._driver.stats

    @property
    def cascade(self) -> Optional[FilterCascade]:
        """The installed pre-alignment cascade (None when disabled)."""
        return self._cascade

    @staticmethod
    def build_tables(reference: ReferenceGenome, k: int) -> IndexTables:
        """Build the single whole-genome index table set."""
        return IndexTables(
            segment_index=0,
            segment_start=0,
            index=KmerIndex.build(reference.sequence, k),
        )
