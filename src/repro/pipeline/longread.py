"""Long-read backend: anchor chaining + adaptive banded verification.

The workload GenASM targets (PAPERS.md) and ROADMAP item 4 calls for:
kilobase-scale indel-heavy reads.  Two things change relative to the
short-read backends, and nothing else — the shared
:class:`~repro.pipeline.stages.PipelineDriver` outer loop is untouched:

* seeding is :class:`~repro.seeding.chain.ChainedSeedProvider` — sampled
  k-mer anchors chained on shared diagonals, one candidate per chain,
  instead of one candidate per SMEM window (which explodes at 10% error);
* extension is :class:`AdaptiveBandedEngine` — the same banded affine-gap
  DP as the ``bwamem`` backend, but the band and report threshold are
  resolved *per read* from its length by the
  :class:`~repro.pipeline.stages.AdaptivePolicy`, because no fixed K fits
  both a 101 bp and a 30 kbp read (§VIII-A sizes K for exactly one
  length).  The banded DP is where a kilobase read's time goes, so
  every candidate of a driver dispatch that passes the Myers gate is
  aligned in one
  :func:`~repro.align.banded.batch_banded_extension_align` call — a band
  row of every lane per NumPy step, each lane at its own band — exact
  against the scalar DP in score, span, CIGAR and cell count.

The ``longread-adaptive-vs-dp`` difftest pair pins the two kernels this
path runs (the Myers gate at the policy's bound, then the batched banded
DP) against full DP on the ``long_read_indel`` family; it rebuilds the
path from the policy rather than calling the engine, so the engine's own
gate is pinned by the ``longread`` goldens.  ``banded-batch-vs-scalar``
pins the batched DP against the scalar one, and the ``nanopore-small``
perf profile pins its work counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.align.banded import batch_banded_extension_align
from repro.align.myers import myers_semiglobal_min
from repro.align.records import AlignmentStats
from repro.align.scoring import BWA_MEM_SCHEME, ScoringScheme
from repro.genome.reference import ReferenceGenome
from repro.pipeline.common import (
    Candidate,
    Extension,
    dp_extension,
    fetch_window,
)
from repro.pipeline.stages import (
    AdaptivePolicy,
    DriverFacade,
    ExtensionJob,
    PipelineDriver,
    StageSet,
)
from repro.seeding.chain import ChainConfig, ChainStats, ChainedSeedProvider
from repro.seeding.index import KmerIndex


@dataclass
class LongReadConfig:
    """Tuning knobs for the long-read backend.

    Deliberately *without* fixed ``band``/``edit_bound`` fields: those are
    the per-read adaptive policy's job.  ``min_score`` is only the
    absolute selection floor; the effective threshold is the policy's
    ``min_score_for(len(read))``.
    """

    k: int = 13
    stride: int = 7
    max_hits_per_kmer: int = 16
    max_diagonal_gap: int = 48
    min_chain_anchors: int = 2
    max_candidates: Optional[int] = 4
    min_score: int = 30
    scheme: ScoringScheme = field(default_factory=lambda: BWA_MEM_SCHEME)
    policy: AdaptivePolicy = field(default_factory=AdaptivePolicy)
    # Shard-parallel driver knob (consumed by repro.parallel.ParallelAligner).
    jobs: int = 1

    def chain_config(self) -> ChainConfig:
        return ChainConfig(
            k=self.k,
            stride=self.stride,
            max_hits_per_kmer=self.max_hits_per_kmer,
            max_diagonal_gap=self.max_diagonal_gap,
            min_chain_anchors=self.min_chain_anchors,
            max_chains=self.max_candidates,
        )


class AdaptiveBandedEngine:
    """:class:`ExtensionEngine` whose band tracks each read's length.

    Identical DP to :class:`~repro.pipeline.bwamem.BandedExtensionEngine`
    except the band is ``policy.params_for(len(oriented)).band`` instead
    of a constructor constant — a 101 bp read gets a short-read band, a
    30 kbp read gets the clamped long-read budget, from the same policy
    the driver's selection threshold comes from.

    Before paying the O(band * L) DP, each candidate passes a
    bit-parallel semi-global edit-distance gate
    (:func:`~repro.align.myers.myers_semiglobal_min`): a chain pointing
    at the wrong locus has near-random edit distance (~0.5 L) and is
    dropped at O(L^2/w) word cost, so only plausible placements reach
    the DP.  Gate rejections are charged to the shared
    ``candidates_filtered`` counter like any pre-alignment filter.

    ``extend_batch`` gates every job, then aligns all survivors — each
    with its own read-length band — in one
    :func:`~repro.align.banded.batch_banded_extension_align` call.
    ``extend`` is a batch of one, for single-candidate callers.
    """

    def __init__(
        self,
        reference: ReferenceGenome,
        policy: AdaptivePolicy,
        scheme: ScoringScheme,
    ) -> None:
        self.reference = reference
        self.policy = policy
        self.scheme = scheme

    def extend(
        self, oriented: str, candidate: Candidate, stats: AlignmentStats
    ) -> Optional[Extension]:
        return self.extend_batch([(oriented, candidate)], stats)[0]

    def extend_batch(
        self, jobs: Sequence[ExtensionJob], stats: AlignmentStats
    ) -> List[Optional[Extension]]:
        results: List[Optional[Extension]] = [None] * len(jobs)
        survivors: List[int] = []
        windows: List[str] = []
        reads: List[str] = []
        bands: List[int] = []
        for index, (oriented, candidate) in enumerate(jobs):
            gated = self._gate(oriented, candidate, stats)
            if gated is None:
                continue
            survivors.append(index)
            windows.append(gated[0])
            reads.append(oriented)
            bands.append(gated[1])
        aligned = batch_banded_extension_align(
            windows, reads, bands, self.scheme
        )
        for index, result in zip(survivors, aligned):
            stats.extensions += 1
            stats.dp_cells += result.cells_computed
            results[index] = dp_extension(jobs[index][1], result.alignment)
        return results

    def _gate(
        self, oriented: str, candidate: Candidate, stats: AlignmentStats
    ) -> Optional[Tuple[str, int]]:
        """The candidate's ``(window, band)``, or None if the gate drops it."""
        params = self.policy.params_for(len(oriented))
        band = params.band
        window = fetch_window(self.reference, candidate, len(oriented), band)
        if myers_semiglobal_min(oriented, window) > params.gate_edits:
            stats.candidates_filtered += 1
            return None
        stats.candidates_survived += 1
        return window, band


class LongReadAligner(DriverFacade):
    """Chained-seeding adaptive-band aligner over one reference genome.

    The same thin-facade shape as :class:`~repro.pipeline.bwamem.BwaMemAligner`:
    compose a :class:`StageSet`, hand it to the shared driver, re-export
    the driver's stats.  ``tables`` lets the shard-parallel driver hand
    fork-shared prebuilt index tables to worker processes.
    """

    def __init__(
        self,
        reference: ReferenceGenome,
        config: Optional[LongReadConfig] = None,
        tables: Optional[KmerIndex] = None,
    ) -> None:
        self.reference = reference
        self.config = config or LongReadConfig()
        if tables is None:
            tables = self.build_tables(reference, self.config.k)
        self._seeder = ChainedSeedProvider(
            reference.sequence, self.config.chain_config(), index=tables
        )
        self._driver = PipelineDriver(
            StageSet(
                seeder=self._seeder,
                extender=AdaptiveBandedEngine(
                    reference, self.config.policy, self.config.scheme
                ),
                match_score=self.config.scheme.match,
                min_score=self.config.min_score,
                max_candidates=self.config.max_candidates,
                adaptive=self.config.policy,
            )
        )
        self.stats: AlignmentStats = self._driver.stats

    @property
    def chain_stats(self) -> ChainStats:
        """The chaining front-end's counters."""
        return self._seeder.stats

    @staticmethod
    def build_tables(reference: ReferenceGenome, k: int) -> KmerIndex:
        """Build the single whole-genome anchor index."""
        return KmerIndex.build(reference.sequence, k)
