"""Bitvector backend: batched bit-parallel verification and banded traceback.

The software rendition of GenAx's "many cells per step" thesis (§IV) at
the pipeline level: candidate placements are *verified* by the vectorized
semi-global Myers kernel (:mod:`repro.align.bitvector`) — whole batches
of (read, window) lanes per NumPy call — and the survivors (distance ≤
the edit bound) get the banded traceback that produces scores and CIGARs
from one lane-batched call
(:func:`repro.align.banded.batch_banded_extension_align`), a band row of
every surviving lane per NumPy step.  Seeding reuses the whole-genome
SMEM provider the software gold standard uses; the interesting delta is
the extension stage.

Two kernel variants share one config (``kernel="batched"`` /
``"scalar"``) and are bit-identical in mappings and
:class:`~repro.align.records.AlignmentStats` — the scalar variant runs
the same gate through the pure-Python
:func:`repro.align.myers.myers_semiglobal_min` and the traceback through
the scalar :func:`repro.align.banded.banded_extension_align`, one
candidate at a time, and exists as the in-pipeline cross-check (the
benchmark's ``kernels`` sweep diffs the two and reports
``mappings_changed``).

The batched engine also deduplicates lanes before dispatch: within one
``extend_batch`` call, candidate windows requested at the same reference
span are fetched and encoded once, and fully identical (read, window)
lanes share one kernel lane and one survivor traceback.
:class:`BitvectorKernelStats` counts requested vs. fetched windows so the
dedupe rate is measured, not assumed.  Deduplication never changes
results or the shared ``AlignmentStats`` — every job is still charged as
if verified alone (the kernel-identity tests enforce it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.align.banded import (
    DPResult,
    banded_extension_align,
    batch_banded_extension_align,
)
from repro.align.bitvector import semiglobal_min_lanes
from repro.align.myers import myers_semiglobal_min
from repro.align.records import AlignmentStats, MappedRead, ReadInput
from repro.align.scoring import BWA_MEM_SCHEME, ScoringScheme
from repro.filters import FilterCascade, build_cascade
from repro.genome.reference import ReferenceGenome
from repro.pipeline.bwamem import WholeGenomeSeedProvider
from repro.pipeline.common import Candidate, Extension, window_span
from repro.pipeline.stages import ExtensionJob, PipelineDriver, StageSet
from repro.seeding.accelerator import SeedingLane
from repro.seeding.index import IndexTables, KmerIndex
from repro.seeding.smem import SmemConfig

KERNELS = ("batched", "scalar")
"""The selectable extension-kernel variants, batched (NumPy) first."""


@dataclass
class BitvectorConfig:
    """Tuning knobs; defaults mirror the other backends' operating point."""

    k: int = 12
    edit_bound: int = 40  # gate threshold, window slack and traceback band
    min_score: int = 30
    max_candidates: Optional[int] = 64
    scheme: ScoringScheme = field(default_factory=lambda: BWA_MEM_SCHEME)
    kernel: str = "batched"  # "batched" (NumPy lanes) or "scalar" (reference)
    # Pre-alignment filter cascade: ordered registered filter names
    # (repro.filters.registry), sharing ``edit_bound`` as the budget.
    # None/() disables filtering (the pinned default).
    filters: Optional[Tuple[str, ...]] = None
    # Shard-parallel driver knob (consumed by repro.parallel.ParallelAligner).
    jobs: int = 1


@dataclass
class BitvectorKernelStats:
    """Kernel-level counters (engine-scoped, not part of the golden
    ``AlignmentStats`` surface — both kernel variants must stay
    bit-identical there)."""

    batches: int = 0  # extend_batch dispatches
    lanes: int = 0  # (read, window) verification jobs received
    kernel_lanes: int = 0  # lanes actually scored after deduplication
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


class _BitvectorEngineBase:
    """Shared gate/traceback plumbing for both kernel variants.

    The contract both must honour identically, per candidate: charge one
    ``extensions``; reject (``candidates_filtered``) when the semi-global
    Myers distance of the read vs. its window exceeds the edit bound;
    otherwise ``candidates_survived`` plus a banded traceback charged to
    ``dp_cells``.
    """

    def __init__(
        self, reference: ReferenceGenome, edit_bound: int, scheme: ScoringScheme
    ) -> None:
        self.reference = reference
        self.edit_bound = edit_bound
        self.scheme = scheme
        self.kernel_stats = BitvectorKernelStats()

    def _window_span(self, oriented: str, candidate: Candidate) -> Tuple[int, int]:
        # Deletions in the read consume extra reference, so the window
        # carries edit_bound bases of slack — the shared window rule
        # (repro.pipeline.common.window_span) every verification stage
        # uses; the dedupe caches key on this span.
        return window_span(candidate, len(oriented), self.edit_bound)

    def _survivor_extension(
        self,
        oriented: str,
        candidate: Candidate,
        result: DPResult,
        stats: AlignmentStats,
    ) -> Extension:
        stats.candidates_survived += 1
        stats.dp_cells += result.cells_computed
        alignment = result.alignment
        return Extension(
            candidate=candidate,
            score=alignment.score,
            position=max(0, candidate.window_start) + alignment.reference_start,
            cigar=alignment.cigar,
            query_end=alignment.query_end,
        )


class ScalarBitvectorEngine(_BitvectorEngineBase):
    """The reference variant: pure-Python gate, one candidate at a time."""

    def extend(
        self, oriented: str, candidate: Candidate, stats: AlignmentStats
    ) -> Optional[Extension]:
        start, length = self._window_span(oriented, candidate)
        window = self.reference.fetch(start, start + length)
        kernel = self.kernel_stats
        kernel.lanes += 1
        kernel.kernel_lanes += 1
        kernel.windows_requested += 1
        kernel.windows_fetched += 1
        stats.extensions += 1
        if myers_semiglobal_min(oriented, window) > self.edit_bound:
            stats.candidates_filtered += 1
            return None
        result = banded_extension_align(
            window, oriented, self.edit_bound, self.scheme
        )
        return self._survivor_extension(oriented, candidate, result, stats)


class BatchedBitvectorEngine(_BitvectorEngineBase):
    """The vectorized variant: a :class:`BatchExtensionEngine`.

    ``extend`` delegates to a one-job batch, so a single-candidate caller
    runs the same kernel the driver's ``extend_batch`` dispatch does.
    """

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
            span = self._window_span(oriented, candidate)
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
        distances = semiglobal_min_lanes(lane_patterns, lane_windows)
        surviving = [
            lane_id
            for lane_id, distance in enumerate(distances)
            if distance <= self.edit_bound
        ]
        aligned = batch_banded_extension_align(
            [lane_windows[lane_id] for lane_id in surviving],
            [lane_patterns[lane_id] for lane_id in surviving],
            [self.edit_bound] * len(surviving),
            self.scheme,
        )
        tracebacks: Dict[int, DPResult] = dict(zip(surviving, aligned))
        results: List[Optional[Extension]] = []
        for job_index, (oriented, candidate) in enumerate(jobs):
            stats.extensions += 1
            result = tracebacks.get(job_lane[job_index])
            if result is None:
                stats.candidates_filtered += 1
                results.append(None)
                continue
            # Shared tracebacks still charge every job's dp_cells, so the
            # counter surface is dedupe-invariant (and kernel-invariant).
            results.append(
                self._survivor_extension(oriented, candidate, result, stats)
            )
        return results


class BitvectorAligner:
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
        if self.config.kernel not in KERNELS:
            raise ValueError(
                f"unknown bitvector kernel {self.config.kernel!r} "
                f"(choose from {', '.join(KERNELS)})"
            )
        smem_config = SmemConfig(k=self.config.k, exact_match_fast_path=True)
        if tables is None:
            tables = self.build_tables(reference, self.config.k)
        self._lane = SeedingLane(tables, smem_config)
        engine_type = (
            BatchedBitvectorEngine
            if self.config.kernel == "batched"
            else ScalarBitvectorEngine
        )
        self._engine = engine_type(
            reference, self.config.edit_bound, self.config.scheme
        )
        self._cascade = build_cascade(
            self.config.filters or (),
            reference,
            self.config.edit_bound,
            self.config.edit_bound,
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

    @property
    def kernel_stats(self) -> BitvectorKernelStats:
        """The extension engine's kernel/dedupe counters."""
        return self._engine.kernel_stats

    # ----------------------------------------------------------------- API

    def align_read(self, name: str, sequence: str) -> MappedRead:
        """Map one read; returns an unmapped record if nothing scores."""
        return self._driver.align_read(name, sequence)

    def align_reads(self, reads: Iterable[ReadInput]) -> List[MappedRead]:
        """Map a batch of (name, sequence) pairs or Read objects."""
        return self._driver.align_reads(reads)

    def align_batch(self, reads: Iterable[ReadInput]) -> List[MappedRead]:
        """Batch mapping: candidates from *all* reads share each kernel
        dispatch (the throughput path for the batched kernel)."""
        return self._driver.align_batch(reads)
