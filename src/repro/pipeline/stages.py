"""Staged-pipeline framework: one mapping loop, pluggable backends.

The paper's concordance experiment (§VIII-A) is a comparison of two
*extension engines* behind an identical seed-and-extend outer loop.  This
module makes that structure literal, the way related accelerators are
organised (SneakySnake's universal pre-alignment filter, Scrooge's one
algorithm retargeted at CPUs/GPUs/ASICs): a backend is a composition of
three typed stages, and a single :class:`PipelineDriver` owns everything
the stages share —

* the input contract (bases folded to upper case before seeding),
* strand enumeration (forward + reverse complement),
* the exact-match fast path (§V optimization 3) and its once-per-read
  ``reads_exact`` accounting,
* candidate deduplication/ranking, one
  :class:`~repro.pipeline.common.CandidateTable` per dispatch (the rule
  of :func:`repro.pipeline.common.candidates_from_seeds`, on arrays),
* the pre-alignment filter cascade (:class:`repro.filters.FilterCascade`),
* best-hit selection and the mapped/unmapped counters,

in **one** mapping loop, with **one** entry: every read reaches it
through :meth:`PipelineDriver.align_batch`, and mapping one read is a
batch of one (:meth:`BatchMapper.align_read`).  Seeding runs in the order
the hardware runs (§VI): the whole batch is seeded against each segment
in turn, so a segmented provider streams each segment's tables once per
batch — one batch of *n* reads streams them once, *n* one-read batches
*n* times, and that traffic is the only counter the batch size moves.

Stage contracts
---------------

:class:`SeedProvider`
    ``seed_batch(oriented)`` returns a whole batch's seeds as one
    :class:`~repro.seeding.smem.SeedTable` of arrays, in global genome
    coordinates, with whole-read exact matches flagged.
:class:`repro.filters.FilterCascade`
    The ordered composition of :class:`~repro.filters.CandidateFilter`
    stages that vetoes candidate placements before the (expensive)
    extension engine runs, charging work to the shared
    :class:`~repro.align.records.AlignmentStats` and keeping per-stage
    reject and cycle counters.  The driver filters every gathered
    candidate of a batch in one cross-read ``filter_batch`` dispatch
    (:meth:`~repro.filters.FilterCascade.admit_batch_depths`) of one
    :class:`~repro.pipeline.common.CandidateTable`, the way it batches
    extension below; only the admitted candidates become
    :class:`~repro.pipeline.common.Candidate` objects and jobs.
:class:`ExtensionEngine`
    ``extend_batch(jobs, stats)`` verifies a whole job list of (oriented
    read, candidate) placements and returns one
    :class:`~repro.pipeline.common.Extension` (or ``None`` to drop it)
    per job, charging extension work to the shared stats.  It is the one
    extension contract: the driver dispatches every gathered candidate of
    a batch in one call — across *all* reads in ``align_batch``, so lane
    counts reach the hundreds the NumPy kernels need
    (:mod:`repro.align.bitvector`, :mod:`repro.align.banded`).

Backends compose stages into a :class:`StageSet` and hand it to a
:class:`PipelineDriver`; the registry (:mod:`repro.pipeline.registry`)
maps backend names to such compositions so drivers — including the
shard-parallel :class:`~repro.parallel.engine.ParallelAligner` — never
hard-code a backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    Generic,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    TypeVar,
)

import numpy
from numpy.typing import NDArray

from repro.align.records import (
    AlignmentStats,
    MappedRead,
    NamedRead,
    ReadInput,
    as_named_read,
)
from repro.filters.cascade import FilterCascade
from repro.align.scoring import BWA_MEM_SCHEME, ScoringScheme
from repro.pipeline.common import (
    CandidateTable,
    Extension,
    Job,
    exact_match_extensions,
    select_best,
    strands,
)
from repro.seeding.smem import SeedTable
from repro.telemetry.runtime import PipelineTelemetry, active_telemetry


class SeedProvider(Protocol):
    """Stage 1: find seeds for oriented read sequences."""

    def seed_batch(self, oriented: Sequence[str]) -> SeedTable:
        """Seed a whole oriented-sequence batch (segment-major order).

        Row ``i`` of the table holds the seeds of ``oriented[i]``.
        """
        ...


#: One batched-extension job: the oriented read and the placement to verify.
ExtensionJob = Job


class ExtensionEngine(Protocol):
    """Stage 3: verify many candidate placements per call.

    ``extend_batch`` must be pure batching — result ``i`` does not depend
    on the other jobs of the call, and the shared stats are charged per
    job, so one dispatch of *n* jobs charges what *n* dispatches of one
    job would (the tests that map each read in a batch of its own against
    one batch of them all hold every backend to it).  Lanes are therefore
    free to be regrouped, deduplicated or reordered internally, as long as
    outputs come back in job order.
    """

    def extend_batch(
        self, jobs: Sequence[ExtensionJob], stats: AlignmentStats
    ) -> List[Optional[Extension]]:
        """Verify every job; entry *i* answers ``jobs[i]`` (None drops it)."""
        ...


@dataclass(frozen=True)
class AdaptiveParams:
    """The per-read parameters an :class:`AdaptivePolicy` resolves."""

    min_score: int  # report threshold for this read length
    edit_budget: int  # edit-distance bound (the paper's K) for this read
    band: int  # banded-DP half-width sized to the edit budget
    gate_edits: int  # edit-distance cut for the pre-DP candidate gate


@dataclass(frozen=True)
class AdaptivePolicy:
    """Per-read parameter selection from read length (ROADMAP item 4).

    The paper sizes K once for its fixed 101 bp workload (§VIII-A: score
    > 30 implies edit distance < 32, run K = 40).  Variable-length reads
    break that: a 101 bp threshold applied to a 30 kbp nanopore read is
    meaningless, and a 30 kbp edit budget applied to a 101 bp read wastes
    the whole band.  This policy re-derives the paper's argument per
    read — the report threshold is a fixed fraction of the perfect score,
    and the edit budget is the strict
    :meth:`~repro.align.scoring.ScoringScheme.max_edits_for_score` bound
    for that threshold, clamped to ``[min_edit_budget, max_edit_budget]``.
    The band tracks the edit budget (an alignment within e edits drifts
    at most e diagonals).
    """

    scheme: ScoringScheme = BWA_MEM_SCHEME
    # min_score = fraction of the perfect score.  Under the BWA-MEM scheme
    # a read with per-base error rate e scores roughly (1 - 7e) per base
    # for the indel-dominated long-read error mix, so 0.25 accepts ~10%
    # error reads with margin while random placements stay far below.
    score_fraction: float = 0.25
    # band = read_length * band_fraction: indel drift is a random walk of
    # the per-base indel events, so its spread grows like sqrt(L) — a
    # linear fraction covers it (plus pre-anchor drift) with slack.
    band_fraction: float = 1 / 16
    min_edit_budget: int = 8
    max_edit_budget: int = 256
    # Pre-DP gate: drop a candidate whose semi-global edit distance
    # exceeds this fraction of the read length.  Real placements of a
    # ~10% error read sit near 0.1 L edits; random windows sit near
    # 0.5 L, so 0.35 separates them with margin on both sides.
    gate_fraction: float = 0.35

    def __post_init__(self) -> None:
        if not 0.0 < self.score_fraction <= 1.0:
            raise ValueError(
                f"score_fraction must be in (0, 1], got {self.score_fraction}"
            )
        if not 0.0 < self.band_fraction <= 1.0:
            raise ValueError(
                f"band_fraction must be in (0, 1], got {self.band_fraction}"
            )
        if not 0.0 < self.gate_fraction <= 1.0:
            raise ValueError(
                f"gate_fraction must be in (0, 1], got {self.gate_fraction}"
            )
        if self.min_edit_budget < 0 or self.max_edit_budget < self.min_edit_budget:
            raise ValueError(
                f"invalid edit-budget clamp [{self.min_edit_budget}, "
                f"{self.max_edit_budget}]"
            )

    def min_score_for(self, read_length: int) -> int:
        """The report threshold for one read: a fraction of its max score."""
        perfect = self.scheme.match * read_length
        return max(1, int(math.ceil(self.score_fraction * perfect)))

    def params_for(self, read_length: int) -> AdaptiveParams:
        """Resolve every adaptive parameter for one read length."""
        min_score = self.min_score_for(read_length)
        bound = self.scheme.max_edits_for_score(read_length, min_score)
        band = int(math.ceil(read_length * self.band_fraction))
        budget = max(
            self.min_edit_budget, min(self.max_edit_budget, min(bound, band))
        )
        gate = max(budget, int(math.ceil(read_length * self.gate_fraction)))
        return AdaptiveParams(
            min_score=min_score, edit_budget=budget, band=budget, gate_edits=gate
        )


@dataclass(frozen=True)
class StageSet:
    """One backend: a stage composition plus the shared-loop parameters.

    With ``adaptive`` set, the report threshold handed to selection is the
    policy's per-read ``min_score_for(len(read))`` instead of the fixed
    ``min_score`` (which remains the floor engines may assume for their
    own pruning).  Extension engines that want the matching per-read edit
    budget and band consult the same policy themselves (see
    :mod:`repro.pipeline.longread`), so both ends of the pipeline derive
    parameters from one place.
    """

    seeder: SeedProvider
    extender: ExtensionEngine
    match_score: int  # score of one exact-matched base (fast-path scoring)
    min_score: int  # report threshold fed to select_best
    max_candidates: Optional[int]  # per-strand candidate cap
    cascade: Optional[FilterCascade] = None
    adaptive: Optional[AdaptivePolicy] = None

    def min_score_for(self, read_length: int) -> int:
        """The selection threshold for one read (adaptive-aware)."""
        if self.adaptive is None:
            return self.min_score
        return self.adaptive.min_score_for(read_length)


def _folded(read: ReadInput) -> NamedRead:
    """The driver's input contract: bases are case-insensitive.

    Every entry point folds a read to upper case once, before seeding,
    so a soft-masked or lower-case read maps exactly like its upper-case
    copy on every backend (the seeders and kernels match upper-case ACGT
    only).
    """
    name, sequence = as_named_read(read)
    return name, sequence.upper()


MappingT = TypeVar("MappingT")


class BatchMapper(Generic[MappingT]):
    """The public mapping API: reads enter only through :meth:`align_batch`.

    :meth:`align_read` is the single-read convenience, a batch of one, so
    every mapper — the driver, the backend facades, the shard-parallel
    and assembly aligners — maps one read exactly as it maps a batch.
    """

    def align_batch(self, reads: Iterable[ReadInput]) -> List[MappingT]:
        """Map every read, in input order."""
        raise NotImplementedError

    def align_read(self, name: str, sequence: str) -> MappingT:
        """Map one read: a batch of one."""
        return self.align_batch([(name, sequence)])[0]


class PipelineDriver(BatchMapper[MappedRead]):
    """The one seed-and-extend outer loop every backend runs behind.

    Owns the shared :class:`AlignmentStats`; backends differ only in the
    :class:`StageSet` they compose.  :meth:`align_batch` is the one
    entry: a batch is seeded segment-major, then its seed hits go through
    one gather → filter → extend → select loop.  Batching changes no
    mapping and no counter except seeding traffic, which is the point
    (the tests map each read in a batch of its own against one batch).

    Telemetry is opt-in and run-scoped: when a
    :class:`~repro.telemetry.runtime.PipelineTelemetry` bundle is active
    at construction time (or passed explicitly), the driver brackets
    every seed/filter/extend/select dispatch with tracer spans and feeds
    the stage histograms.  With no bundle active — the default — every
    hook site reduces to one ``is None`` check and the mapping loop
    allocates nothing new (asserted by the tracemalloc guard test).
    Telemetry never influences mappings or the shared
    :class:`AlignmentStats`; the bit-identical concordance contract is
    unaffected either way.
    """

    def __init__(
        self,
        stages: StageSet,
        telemetry: Optional[PipelineTelemetry] = None,
    ) -> None:
        self.stages = stages
        self.stats = AlignmentStats()
        self.telemetry = (
            telemetry if telemetry is not None else active_telemetry()
        )

    # ----------------------------------------------------------------- API

    def align_batch(self, reads: Iterable[ReadInput]) -> List[MappedRead]:
        """Segment-major batch mapping — the order the hardware runs (§VI).

        All reads (both orientations) are handed to the seed provider at
        once, so a segmented provider streams each segment's tables once
        per batch instead of once per read; the buffered seed hits then
        flow through the shared filter/extend/select loop as one batch, so
        filter and extend lane counts scale with the whole batch.
        """
        named: List[NamedRead] = [_folded(read) for read in reads]
        oriented: List[str] = []
        for __, sequence in named:
            for variant, __reverse in strands(sequence):
                oriented.append(variant)
        tel = self.telemetry
        if tel is not None:
            tel.stage_begin("align_batch")
            tel.stage_begin("seed")
        seeds = self.stages.seeder.seed_batch(oriented)
        if tel is not None:
            tel.stage_end("seed")
        out = self._map(named, oriented, seeds)
        if tel is not None:
            tel.stage_end("align_batch")
        return out

    # ------------------------------------------------------------ internals

    def _map(
        self,
        named: Sequence[NamedRead],
        oriented: Sequence[str],
        seeds: SeedTable,
    ) -> List[MappedRead]:
        """The one mapping loop: gather, filter, extend, select.

        *oriented* and the rows of *seeds* hold two entries per read
        (forward, then reverse complement), in read order.  A strand with
        a whole-read exact seed takes the fast path; the hits of every
        other strand become one :class:`CandidateTable` for the dispatch.
        :class:`Candidate` objects are built only for the candidates the
        cascade admits.
        """
        stages = self.stages
        stats = self.stats
        stats.reads_total += len(named)
        exact_rows = numpy.zeros(len(oriented), dtype=bool)
        exact_rows[seeds.row[seeds.exact]] = True
        stats.reads_exact += int(exact_rows.reshape(-1, 2).any(axis=1).sum())
        candidates = CandidateTable.from_seeds(
            seeds,
            oriented,
            numpy.arange(len(oriented)) % 2 == 1,
            ~exact_rows,
            stages.max_candidates,
        )
        counts = numpy.bincount(candidates.row // 2, minlength=len(named)).tolist()
        extensions: List[List[Extension]] = [[] for __ in named]
        for row in numpy.flatnonzero(exact_rows).tolist():
            # Perfect match: no verification needed (§V item 4).
            exact = [seed for seed in seeds[row] if seed.exact_whole_read]
            extensions[row // 2].extend(
                exact_match_extensions(
                    exact, row % 2 == 1, len(oriented[row]), stages.match_score
                )
            )
        if self.telemetry is not None:
            self._observe_gather(seeds, counts)
        survivors = candidates.take(numpy.flatnonzero(self._filter(candidates)))
        self._extend(survivors, extensions)
        return [
            self._finish(name, len(sequence), read_extensions, count)
            for (name, sequence), read_extensions, count in zip(
                named, extensions, counts
            )
        ]

    def _observe_gather(self, seeds: SeedTable, counts: Sequence[int]) -> None:
        """Telemetry of the gather phase: a ``read`` span per read, with
        its strands' seeds and its candidate count."""
        tel = self.telemetry
        assert tel is not None
        for read, count in enumerate(counts):
            tel.stage_begin("read")
            tel.observe_seeds(seeds[2 * read])
            tel.observe_seeds(seeds[2 * read + 1])
            for __ in range(count):
                tel.observe_candidate()
            tel.stage_end("read")

    def _filter(self, candidates: CandidateTable) -> NDArray[numpy.bool_]:
        """Phase 2: one cross-read cascade dispatch; the admitted mask.

        Everything is admitted without a cascade.
        """
        cascade = self.stages.cascade
        if cascade is None or not len(candidates):
            return numpy.ones(len(candidates), dtype=bool)
        tel = self.telemetry
        if tel is not None:
            tel.stage_begin("filter_batch")
        depths = cascade.admit_batch_depths(candidates, self.stats)
        if tel is not None:
            tel.stage_end("filter_batch")
        if len(depths) != len(candidates):
            raise ValueError(
                f"cascade returned {len(depths)} depths for {len(candidates)} jobs"
            )
        if tel is not None:
            for depth in depths:
                tel.observe_cascade(depth)
        return numpy.asarray(depths) == len(cascade)

    def _extend(
        self, survivors: CandidateTable, extensions: List[List[Extension]]
    ) -> None:
        """Phase 3: one ``extend_batch`` call over every admitted candidate."""
        jobs = survivors.jobs()
        if not jobs:
            return
        tel = self.telemetry
        if tel is not None:
            tel.stage_begin("extend_batch")
            tel.observe_batch(len(jobs))
        results = self.stages.extender.extend_batch(jobs, self.stats)
        if tel is not None:
            tel.stage_end("extend_batch")
        if len(results) != len(jobs):
            raise ValueError(
                f"extend_batch returned {len(results)} results for "
                f"{len(jobs)} jobs"
            )
        for read, extension in zip((survivors.row // 2).tolist(), results):
            if extension is not None:
                if tel is not None:
                    tel.observe_extension(extension)
                extensions[read].append(extension)

    def _finish(
        self,
        name: str,
        read_length: int,
        extensions: List[Extension],
        candidate_count: int,
    ) -> MappedRead:
        """Phase 4: selection and the mapped/unmapped counters."""
        stats = self.stats
        tel = self.telemetry
        if tel is not None:
            tel.stage_begin("select")
        mapped = select_best(
            name,
            read_length,
            extensions,
            self.stages.min_score_for(read_length),
        )
        if tel is not None:
            tel.stage_end("select")
            tel.read_done(candidate_count)
        if mapped.is_unmapped:
            stats.reads_unmapped += 1
        else:
            stats.reads_mapped += 1
        return mapped


class DriverFacade(BatchMapper[MappedRead]):
    """A backend facade: one :class:`StageSet` behind one driver.

    A backend's constructor composes its stages into ``self._driver`` and
    re-exports the driver's ``stats``; the mapping API is the driver's
    one entry.
    """

    _driver: PipelineDriver
    stats: AlignmentStats

    def align_batch(self, reads: Iterable[ReadInput]) -> List[MappedRead]:
        """Segment-major batch mapping — the order the hardware runs (§VI)."""
        return self._driver.align_batch(reads)
