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
* candidate deduplication/ranking (:func:`repro.pipeline.common.candidates_from_seeds`),
* the pre-alignment filter cascade (:class:`repro.filters.FilterCascade`),
* best-hit selection and the mapped/unmapped counters,

in **one** mapping loop.  Only seeding has two orders: per-read (seed
one read's strands on demand) and segment-major batch (seed the whole
batch against each segment in turn — the order the hardware runs, §VI).
Both orders hand their seed hits to the same gather → filter → extend →
select loop, so they are functionally identical for any backend; the
seeding-traffic accounting difference is the point.

Stage contracts
---------------

:class:`SeedProvider`
    ``seed(oriented)`` / ``seed_batch(oriented)`` return
    :class:`~repro.seeding.accelerator.GlobalSeed` lists in global genome
    coordinates, with whole-read exact matches flagged.
:class:`repro.filters.FilterCascade`
    The ordered composition of :class:`~repro.filters.CandidateFilter`
    stages that vetoes candidate placements before the (expensive)
    extension engine runs, charging work to the shared
    :class:`~repro.align.records.AlignmentStats` and keeping per-stage
    reject/false-accept counters.  The driver filters every gathered
    candidate of a batch in one cross-read ``filter_batch`` dispatch
    (:meth:`~repro.filters.FilterCascade.admit_batch_depths`), the way it
    batches extension below.
:class:`ExtensionEngine`
    ``extend(oriented, candidate, stats)`` verifies one placement and
    returns an :class:`~repro.pipeline.common.Extension` (or ``None`` to
    drop it), charging extension work to the shared stats.
:class:`BatchExtensionEngine`
    An :class:`ExtensionEngine` that additionally accepts whole
    ``extend_batch`` job lists, for engines whose kernels are vectorized
    across (read, window) lanes (:mod:`repro.align.bitvector`).  The
    driver detects the capability structurally and dispatches every
    gathered candidate of a batch in one call — across *all* reads in
    ``align_batch``, so lane counts reach the hundreds the NumPy kernels
    need — and calls ``extend`` once per candidate for any other engine.

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
    TYPE_CHECKING,
    Callable,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

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
    Candidate,
    Extension,
    candidates_from_seeds,
    exact_match_extensions,
    select_best,
    strands,
)
from repro.seeding.accelerator import GlobalSeed
from repro.telemetry.runtime import PipelineTelemetry, active_telemetry

if TYPE_CHECKING:
    from repro.pipeline.pairs import PairMapping, PairRescuer


class SeedProvider(Protocol):
    """Stage 1: find seeds for oriented read sequences."""

    def seed(self, oriented: str) -> Sequence[GlobalSeed]:
        """Seed one oriented sequence (per-read execution order)."""
        ...

    def seed_batch(self, oriented: Sequence[str]) -> List[List[GlobalSeed]]:
        """Seed a whole oriented-sequence batch (segment-major order)."""
        ...


class ExtensionEngine(Protocol):
    """Stage 3: verify one candidate placement."""

    def extend(
        self, oriented: str, candidate: Candidate, stats: AlignmentStats
    ) -> Optional[Extension]:
        """Score the read against the candidate window; ``None`` drops it."""
        ...


#: One batched-extension job: the oriented read and the placement to verify.
ExtensionJob = Tuple[str, Candidate]


class BatchExtensionEngine(ExtensionEngine, Protocol):
    """Stage 3, batch-capable: verify many placements per vectorized call.

    ``extend_batch`` must be pure batching — result ``i`` equals what
    ``extend(*jobs[i], stats)`` would return, and the shared stats must be
    charged identically (the backend tests hold the batched engines to
    their scalar ``extend``).  Lanes are therefore free to be regrouped, deduplicated or
    reordered internally, as long as outputs come back in job order.
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


@dataclass
class _ReadPlan:
    """One read's gathered state between the filter and extend phases.

    The driver's one mapping loop runs in phases over a batch of plans:
    *gather* (fast path, candidate enumeration) fills a plan per read,
    one cross-read cascade dispatch drops the rejected jobs, one
    cross-read extend dispatch verifies the survivors, and *finish* runs
    selection.  ``extensions`` starts with the exact-match fast-path hits
    and receives the extend results in job order (selection is
    order-independent regardless; see
    :func:`repro.pipeline.common.select_best`).
    """

    name: str
    read_length: int
    extensions: List[Extension]
    jobs: List[ExtensionJob]
    candidate_count: int


def _folded(read: ReadInput) -> NamedRead:
    """The driver's input contract: bases are case-insensitive.

    Every entry point folds a read to upper case once, before seeding,
    so a soft-masked or lower-case read maps exactly like its upper-case
    copy on every backend (the seeders and kernels match upper-case ACGT
    only).
    """
    name, sequence = as_named_read(read)
    return name, sequence.upper()


class PipelineDriver:
    """The one seed-and-extend outer loop every backend runs behind.

    Owns the shared :class:`AlignmentStats`; backends differ only in the
    :class:`StageSet` they compose.  :meth:`align_read` and
    :meth:`align_batch` differ only in how they seed (per read vs
    segment-major); both hand the seed hits to the same gather → filter
    → extend → select loop, so mappings and counters agree (minus
    seeding-traffic counters that legitimately depend on the order — the
    tests assert the rest).

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

    def align_read(self, name: str, sequence: str) -> MappedRead:
        """Map one read, seeding each strand on demand (per-read order)."""
        sequence = sequence.upper()
        tel = self.telemetry
        if tel is not None:
            tel.stage_begin("align_read")
            tel.stage_begin("seed")
        seed_lists = [
            list(self.stages.seeder.seed(oriented))
            for oriented, __ in strands(sequence)
        ]
        if tel is not None:
            tel.stage_end("seed")
        mapped = self._map([(name, sequence)], seed_lists)[0]
        if tel is not None:
            tel.stage_end("align_read")
        return mapped

    def align_reads(self, reads: Iterable[ReadInput]) -> List[MappedRead]:
        """Map a batch in per-read order."""
        out: List[MappedRead] = []
        for read in reads:
            name, sequence = as_named_read(read)
            out.append(self.align_read(name, sequence))
        return out

    def align_pairs(
        self,
        pairs: Iterable[Tuple[ReadInput, ReadInput]],
        rescuer: Optional["PairRescuer"] = None,
    ) -> List["PairMapping"]:
        """Map mate pairs, with optional insert-window mate rescue.

        Both mates run through the ordinary single-end loop first.  When a
        :class:`~repro.pipeline.pairs.PairRescuer` is supplied and exactly
        one end maps confidently, the rescuer re-searches the mate inside
        the insert-size window the library's distribution predicts —
        recovering placements the seeding stage missed (too many errors,
        repeat-masked seeds) at banded-DP cost bounded by the window.  The
        rescuer charges its DP work to this driver's shared stats and
        keeps its own :class:`~repro.pipeline.pairs.PairStats`.
        """
        from repro.pipeline.pairs import resolve_pair

        out: List["PairMapping"] = []
        for first, second in pairs:
            first_name, first_seq = _folded(first)
            second_name, second_seq = _folded(second)
            mapped_first = self.align_read(first_name, first_seq)
            mapped_second = self.align_read(second_name, second_seq)
            out.append(
                resolve_pair(
                    mapped_first,
                    mapped_second,
                    first_seq,
                    second_seq,
                    rescuer,
                    self.stats,
                )
            )
        return out

    def align_batch(self, reads: Iterable[ReadInput]) -> List[MappedRead]:
        """Segment-major batch mapping — the order the hardware runs (§VI).

        All reads (both orientations) are handed to the seed provider at
        once, so a segmented provider streams each segment's tables once
        per batch instead of once per read; the buffered seed hits then
        flow through the shared filter/extend/select loop as one batch, so
        filter and extend lane counts scale with the whole batch.
        Functionally identical to :meth:`align_reads` (the tests enforce
        it).
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
        seed_lists = self.stages.seeder.seed_batch(oriented)
        if tel is not None:
            tel.stage_end("seed")
        out = self._map(named, seed_lists)
        if tel is not None:
            tel.stage_end("align_batch")
        return out

    # ------------------------------------------------------------ internals

    def _map(
        self,
        named: Sequence[NamedRead],
        seed_lists: Sequence[Sequence[GlobalSeed]],
    ) -> List[MappedRead]:
        """The one mapping loop: gather, filter, extend, select.

        *seed_lists* holds two entries per read (forward, then reverse
        complement), in read order.
        """
        plans = [
            self._gather(name, sequence, seed_lists[2 * index : 2 * index + 2])
            for index, (name, sequence) in enumerate(named)
        ]
        self._filter_plans(plans)
        self._dispatch_batch(plans)
        return [self._finish(plan) for plan in plans]

    def _gather(
        self,
        name: str,
        sequence: str,
        seed_lists: Sequence[Sequence[GlobalSeed]],
    ) -> _ReadPlan:
        """Phase 1: exact-match fast path and candidate enumeration.

        Every enumerated candidate becomes a pending job; filtering runs
        afterwards, in one cross-read dispatch (:meth:`_filter_plans`).
        """
        stages = self.stages
        stats = self.stats
        tel = self.telemetry
        stats.reads_total += 1
        if tel is not None:
            tel.stage_begin("read")
        extensions: List[Extension] = []
        jobs: List[ExtensionJob] = []
        exact_seen = False
        candidate_count = 0
        for (oriented, reverse), seeds in zip(strands(sequence), seed_lists):
            if tel is not None:
                tel.observe_seeds(seeds)
            exact = [s for s in seeds if s.exact_whole_read]
            if exact:
                # Perfect match: no verification needed (§V item 4).  The
                # flag — not a counter bump — makes ``reads_exact`` count
                # once per read even when both strands match exactly.
                exact_seen = True
                extensions.extend(
                    exact_match_extensions(
                        exact, reverse, len(oriented), stages.match_score
                    )
                )
                continue
            for candidate in candidates_from_seeds(
                seeds, reverse, stages.max_candidates
            ):
                candidate_count += 1
                if tel is not None:
                    tel.observe_candidate()
                jobs.append((oriented, candidate))
        if exact_seen:
            stats.reads_exact += 1
        if tel is not None:
            tel.stage_end("read")
        return _ReadPlan(name, len(sequence), extensions, jobs, candidate_count)

    def _filter_plans(self, plans: Sequence[_ReadPlan]) -> None:
        """Phase 2: one cross-read cascade dispatch over pending jobs.

        No-op without a cascade.  Rejected jobs are dropped from their
        plans; the survivors keep their job order.
        """
        cascade = self.stages.cascade
        if cascade is None:
            return
        jobs = [job for plan in plans for job in plan.jobs]
        if not jobs:
            return
        tel = self.telemetry
        if tel is not None:
            tel.stage_begin("filter_batch")
        depths = cascade.admit_batch_depths(jobs, self.stats)
        if tel is not None:
            tel.stage_end("filter_batch")
        if len(depths) != len(jobs):
            raise ValueError(
                f"cascade returned {len(depths)} depths for {len(jobs)} jobs"
            )
        admitted = len(cascade)
        index = 0
        for plan in plans:
            survivors: List[ExtensionJob] = []
            for job in plan.jobs:
                depth = depths[index]
                index += 1
                if tel is not None:
                    tel.observe_cascade(depth)
                if depth == admitted:
                    survivors.append(job)
            plan.jobs = survivors

    def _dispatch_batch(self, plans: Sequence[_ReadPlan]) -> None:
        """Phase 3: one extend dispatch over every plan's surviving jobs.

        A :class:`BatchExtensionEngine` gets the whole job list in one
        ``extend_batch`` call; any other engine gets one ``extend`` call
        per job, in job order — same results, same charges.
        """
        jobs = [job for plan in plans for job in plan.jobs]
        if not jobs:
            return
        extender = self.stages.extender
        stats = self.stats
        tel = self.telemetry
        if tel is not None:
            tel.stage_begin("extend_batch")
            tel.observe_batch(len(jobs))
        extend_batch: Optional[
            Callable[
                [Sequence[ExtensionJob], AlignmentStats],
                List[Optional[Extension]],
            ]
        ] = getattr(extender, "extend_batch", None)
        if extend_batch is not None:
            results = extend_batch(jobs, stats)
        else:
            results = [
                extender.extend(oriented, candidate, stats)
                for oriented, candidate in jobs
            ]
        if tel is not None:
            tel.stage_end("extend_batch")
        if len(results) != len(jobs):
            raise ValueError(
                f"extend_batch returned {len(results)} results for "
                f"{len(jobs)} jobs"
            )
        index = 0
        for plan in plans:
            for __ in plan.jobs:
                extension = results[index]
                index += 1
                if extension is not None:
                    if tel is not None:
                        tel.observe_extension(extension)
                    plan.extensions.append(extension)

    def _finish(self, plan: _ReadPlan) -> MappedRead:
        """Phase 4: selection and the mapped/unmapped counters."""
        stats = self.stats
        tel = self.telemetry
        if tel is not None:
            tel.stage_begin("select")
        mapped = select_best(
            plan.name,
            plan.read_length,
            plan.extensions,
            self.stages.min_score_for(plan.read_length),
        )
        if tel is not None:
            tel.stage_end("select")
            tel.read_done(plan.candidate_count)
        if mapped.is_unmapped:
            stats.reads_unmapped += 1
        else:
            stats.reads_mapped += 1
        return mapped
