"""Bitvector backend: the cascade's Myers scan verifies, a banded traceback aligns.

The software rendition of GenAx's "many cells per step" thesis (§IV) at
the pipeline level.  Each candidate placement is checked once, as GenAx
checks it once with the Levenshtein automaton before any traceback:
the ``myers`` cascade stage (:class:`repro.filters.MyersCandidateFilter`)
answers a whole dispatch with the vectorized semi-global Myers kernel
(:mod:`repro.align.bitvector`) and admits a candidate iff its distance is
within the edit bound.  The cascade is always installed; it is this
backend's only verifier.  The extension engine's precondition is that
its jobs are admitted candidates: it gives each one the banded traceback
that produces scores and CIGARs from one lane-batched call
(:func:`repro.align.banded.batch_banded_extension_align`), a band row of
every lane per NumPy step.  Seeding reuses the whole-genome SMEM
provider the software gold standard uses.

The verifier reads no window string: its kernel takes the reference as
one 2-bit code array plus each candidate's window span.  Kernel
equality is held below the pipeline: the
``bitvector-semiglobal-vs-myers`` and ``candidate-table-vs-per-read``
difftest pairs pin the verifier against the scalar Myers recurrence,
``banded-batch-vs-scalar`` pins the batched traceback against
:func:`repro.align.banded.banded_extension_align`, and
``bitvector-batch-vs-banded`` pins the two in sequence, as this backend
runs them, against full DP.

The engine also deduplicates lanes before dispatch: within one
``extend_batch`` call, candidate windows requested at the same reference
span are fetched once, and fully identical (read, window) lanes share
one traceback.  :class:`BitvectorKernelStats` counts requested vs.
fetched windows so the dedupe rate is measured, not assumed.
Deduplication never changes results or the shared ``AlignmentStats`` —
every job is still charged as if aligned alone (the tests that map each
read in a batch of its own against one batch of them all enforce it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.align.banded import batch_banded_extension_align
from repro.align.records import AlignmentStats
from repro.align.scoring import BWA_MEM_SCHEME, ScoringScheme
from repro.filters import FilterCascade, MyersCandidateFilter
from repro.genome.reference import ReferenceGenome
from repro.pipeline.bwamem import WholeGenomeSeedProvider
from repro.pipeline.common import (
    Candidate,
    Extension,
    dp_extension,
    window_span,
)
from repro.pipeline.stages import (
    DriverFacade,
    ExtensionJob,
    PipelineDriver,
    StageSet,
)
from repro.seeding.accelerator import SeedingLane
from repro.seeding.index import IndexTables, KmerIndex
from repro.seeding.smem import SmemConfig

@dataclass
class BitvectorConfig:
    """Tuning knobs; defaults mirror the other backends' operating point."""

    k: int = 12
    edit_bound: int = 40  # Myers stage budget, window slack and traceback band
    min_score: int = 30
    max_candidates: Optional[int] = 64
    scheme: ScoringScheme = field(default_factory=lambda: BWA_MEM_SCHEME)
    # Shard-parallel driver knob (consumed by repro.parallel.ParallelAligner).
    jobs: int = 1


@dataclass
class BitvectorKernelStats:
    """Kernel-level counters (engine-scoped, not part of the golden
    ``AlignmentStats`` surface, which must not depend on how jobs are
    batched or deduplicated)."""

    batches: int = 0  # extend_batch dispatches
    lanes: int = 0  # (read, window) extension jobs received
    kernel_lanes: int = 0  # lanes actually aligned after deduplication
    max_batch_lanes: int = 0  # largest single dispatch
    windows_requested: int = 0  # window fetches the jobs implied
    windows_fetched: int = 0  # unique windows fetched + encoded

    def merge(self, other: "BitvectorKernelStats") -> None:
        self.batches += other.batches
        self.lanes += other.lanes
        self.kernel_lanes += other.kernel_lanes
        self.max_batch_lanes = max(self.max_batch_lanes, other.max_batch_lanes)
        self.windows_requested += other.windows_requested
        self.windows_fetched += other.windows_fetched

    @property
    def window_dedupe_rate(self) -> float:
        """Fraction of window fetches skipped by in-batch deduplication."""
        if not self.windows_requested:
            return 0.0
        return 1.0 - self.windows_fetched / self.windows_requested


class BatchedBitvectorEngine:
    """:class:`~repro.pipeline.stages.ExtensionEngine`: banded traceback
    of candidates the ``myers`` cascade stage admitted.

    The engine verifies nothing: its jobs are the cascade's survivors,
    so every job gets a banded traceback at the edit bound.  Per job it
    charges one ``extensions`` and the traceback's ``dp_cells``; the
    cascade alone charges ``candidates_filtered``/``candidates_survived``.
    ``extend`` delegates to a one-job batch, so a single-candidate
    caller runs the same kernel the driver's ``extend_batch`` dispatch
    does.
    """

    def __init__(
        self, reference: ReferenceGenome, edit_bound: int, scheme: ScoringScheme
    ) -> None:
        self.reference = reference
        self.edit_bound = edit_bound
        self.scheme = scheme
        self.kernel_stats = BitvectorKernelStats()

    def extend(
        self, oriented: str, candidate: Candidate, stats: AlignmentStats
    ) -> Optional[Extension]:
        return self.extend_batch([(oriented, candidate)], stats)[0]

    def extend_batch(
        self, jobs: Sequence[ExtensionJob], stats: AlignmentStats
    ) -> List[Optional[Extension]]:
        if not jobs:
            return []
        kernel = self.kernel_stats
        kernel.batches += 1
        kernel.lanes += len(jobs)
        kernel.max_batch_lanes = max(kernel.max_batch_lanes, len(jobs))
        # Deduplicate window fetches (same reference span requested by
        # several candidates — e.g. opposite strands of one placement, or
        # different reads seeded into the same repeat) and then whole
        # lanes (same oriented read against the same window).
        window_ids: Dict[Tuple[int, int], int] = {}
        windows: List[str] = []
        lane_ids: Dict[Tuple[str, int], int] = {}
        lane_patterns: List[str] = []
        lane_windows: List[str] = []
        job_lane: List[int] = []
        for oriented, candidate in jobs:
            kernel.windows_requested += 1
            # Deletions in the read consume extra reference, so the
            # window carries edit_bound bases of slack (the shared rule,
            # repro.pipeline.common.window_span); the cache keys on it.
            span = window_span(candidate, len(oriented), self.edit_bound)
            window_id = window_ids.get(span)
            if window_id is None:
                window_id = len(windows)
                window_ids[span] = window_id
                windows.append(
                    self.reference.fetch(span[0], span[0] + span[1])
                )
                kernel.windows_fetched += 1
            lane_key = (oriented, window_id)
            lane_id = lane_ids.get(lane_key)
            if lane_id is None:
                lane_id = len(lane_patterns)
                lane_ids[lane_key] = lane_id
                lane_patterns.append(oriented)
                lane_windows.append(windows[window_id])
            job_lane.append(lane_id)
        kernel.kernel_lanes += len(lane_patterns)
        aligned = batch_banded_extension_align(
            lane_windows,
            lane_patterns,
            [self.edit_bound] * len(lane_patterns),
            self.scheme,
        )
        results: List[Optional[Extension]] = []
        for (__, candidate), lane_id in zip(jobs, job_lane):
            # Shared tracebacks still charge every job's dp_cells, so the
            # counter surface does not depend on the dedupe.
            result = aligned[lane_id]
            stats.extensions += 1
            stats.dp_cells += result.cells_computed
            results.append(dp_extension(candidate, result.alignment))
        return results


class BitvectorAligner(DriverFacade):
    """Facade over the shared driver with a bitvector extension stage.

    Same constructor shape as the other backends; ``tables`` lets the
    shard-parallel driver hand fork-shared prebuilt index tables to
    worker processes.
    """

    def __init__(
        self,
        reference: ReferenceGenome,
        config: Optional[BitvectorConfig] = None,
        tables: Optional[IndexTables] = None,
    ):
        self.reference = reference
        self.config = config or BitvectorConfig()
        smem_config = SmemConfig(k=self.config.k, exact_match_fast_path=True)
        if tables is None:
            tables = self.build_tables(reference, self.config.k)
        self._lane = SeedingLane(tables, smem_config)
        edit_bound = self.config.edit_bound
        self._engine = BatchedBitvectorEngine(
            reference, edit_bound, self.config.scheme
        )
        self._cascade = FilterCascade(
            [MyersCandidateFilter(reference, edit_bound, edit_bound)]
        )
        self._driver = PipelineDriver(
            StageSet(
                seeder=WholeGenomeSeedProvider(self._lane),
                extender=self._engine,
                match_score=self.config.scheme.match,
                min_score=self.config.min_score,
                max_candidates=self.config.max_candidates,
                cascade=self._cascade,
            )
        )
        self.stats: AlignmentStats = self._driver.stats

    @property
    def cascade(self) -> FilterCascade:
        """The ``myers`` cascade, this backend's only verifier."""
        return self._cascade

    @staticmethod
    def build_tables(reference: ReferenceGenome, k: int) -> IndexTables:
        """Build the single whole-genome index table set."""
        return IndexTables(
            segment_index=0,
            segment_start=0,
            index=KmerIndex.build(reference.sequence, k),
        )

    @property
    def kernel_stats(self) -> BitvectorKernelStats:
        """The extension engine's kernel/dedupe counters."""
        return self._engine.kernel_stats
