"""Anchor chaining: a long-read seed provider over the k-mer index.

SMEM seeding breaks down on indel-heavy long reads: at a 10% error rate
an exact match longer than a dozen bases is rare, so a 20 kbp nanopore
read yields thousands of short seeds, each predicting its own candidate
window, and single-window verification drowns.  Every long-read mapper
(minimap2 being the canonical one, PAPERS.md) instead *chains*: sample
short k-mer anchors along the read, group the (read offset, reference
position) matches that sit on nearby diagonals — co-linear anchors from
one underlying alignment — and emit one candidate per chain.

:class:`ChainedSeedProvider` implements the pipeline's
:class:`~repro.pipeline.stages.SeedProvider` protocol with that strategy
over the same :class:`~repro.seeding.index.KmerIndex` tables the
accelerator streams, so the long-read backend slots behind the shared
:class:`~repro.pipeline.stages.PipelineDriver` unchanged.  The diagonal
tolerance bounds how much indel drift one chain absorbs and therefore
matches the adaptive band the extension engine will verify with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy

from repro.genome.sequence import encode_bases
from repro.seeding.accelerator import GlobalSeed
from repro.seeding.index import KmerIndex, kmer_codes_at
from repro.seeding.smem import SeedTable


@dataclass
class ChainStats:
    """Chaining counters (the long-read seeding observability surface)."""

    reads_seeded: int = 0
    anchors_sampled: int = 0  # k-mer probes issued along reads
    anchors_masked: int = 0  # probes skipped for exceeding the hit cap
    anchor_hits: int = 0  # (offset, position) matches fed to chaining
    chains_emitted: int = 0  # chains surviving the anchor floor

    def merge(self, other: "ChainStats") -> None:
        """Fold another provider's counters in (shard merging)."""
        self.reads_seeded += other.reads_seeded
        self.anchors_sampled += other.anchors_sampled
        self.anchors_masked += other.anchors_masked
        self.anchor_hits += other.anchor_hits
        self.chains_emitted += other.chains_emitted


@dataclass(frozen=True)
class ChainConfig:
    """Anchor-chaining knobs.

    ``max_hits_per_kmer`` masks repeat k-mers the way the accelerator's
    intersection engine caps CAM lists — an anchor matching everywhere
    carries no placement information.  ``max_diagonal_gap`` is the indel
    drift allowed inside one chain; it should not exceed the band the
    extension engine verifies with, or the chain promises an alignment
    the verifier cannot see.
    """

    k: int = 13
    stride: int = 7  # sample an anchor every this many read bases
    max_hits_per_kmer: int = 16
    max_diagonal_gap: int = 48
    min_chain_anchors: int = 2
    max_chains: Optional[int] = 32  # best-supported chains kept per strand

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if self.min_chain_anchors < 1:
            raise ValueError(
                f"min_chain_anchors must be >= 1, got {self.min_chain_anchors}"
            )


@dataclass(frozen=True)
class Chain:
    """One co-diagonal anchor cluster, before seed translation."""

    anchors: int  # supporting anchor count
    read_start: int  # first anchored read offset
    read_span: int  # read bases between first and last anchor (incl. k)
    position: int  # global position the first anchor maps to


class ChainedSeedProvider:
    """:class:`SeedProvider` that chains k-mer anchors on shared diagonals.

    Emits one :class:`GlobalSeed` per chain: the seed's offset/position
    pair reproduces the chain's diagonal (so the driver's
    :class:`~repro.pipeline.common.CandidateTable` derives the right
    window start) and its length is the chained read span (so
    better-supported chains outrank stray ones under the candidate cap).
    Chains never claim ``exact_whole_read`` — they are evidence, not
    verification, and must not trigger the driver's exact fast path.
    """

    def __init__(
        self,
        reference_sequence: str,
        config: Optional[ChainConfig] = None,
        index: Optional[KmerIndex] = None,
    ) -> None:
        self.config = config or ChainConfig()
        self.index = (
            index
            if index is not None
            else KmerIndex.build(reference_sequence, self.config.k)
        )
        if self.index.k != self.config.k:
            raise ValueError(
                f"index k={self.index.k} does not match config k={self.config.k}"
            )
        self.stats = ChainStats()

    # ------------------------------------------------------------ protocol

    def seed_batch(self, oriented: Sequence[str]) -> SeedTable:
        """Chain every oriented sequence; anchors are looked up batch-wide.

        One whole-genome index: batch order has no table locality to
        exploit, and chaining stays per read, so a batch gives exactly
        what one-read batches give.
        """
        return SeedTable.from_lists(self._chain_reads(oriented))

    # ----------------------------------------------------------- internals

    def _chain_reads(self, oriented: Sequence[str]) -> List[List[GlobalSeed]]:
        """Per oriented sequence, one seed per chain, in chain order."""
        self.stats.reads_seeded += len(oriented)
        out: List[List[GlobalSeed]] = []
        for anchors in self._collect_anchors(oriented):
            chains = self._chain(anchors)
            self.stats.chains_emitted += len(chains)
            out.append(
                [
                    GlobalSeed(
                        read_offset=chain.read_start,
                        length=chain.read_span,
                        positions=(chain.position,),
                        exact_whole_read=False,
                    )
                    for chain in chains
                ]
            )
        return out

    def _collect_anchors(
        self, oriented: Sequence[str]
    ) -> List[List[Tuple[int, int]]]:
        """Per read, the sampled (read offset, global position) anchor matches.

        Every read's k-mers at offsets ``0, stride, 2 * stride, ...`` are
        looked up in one :meth:`~repro.seeding.index.KmerIndex.lookup`
        call; a k-mer with more than ``max_hits_per_kmer`` hits is masked,
        and the hits of the rest come from one ``gather`` by row.
        Anchors are in read order, then offset, then position.
        """
        config = self.config
        lengths = numpy.fromiter(map(len, oriented), dtype=numpy.int64, count=len(oriented))
        read_starts = numpy.cumsum(lengths) - lengths
        sampled = -(-numpy.maximum(lengths - config.k + 1, 0) // config.stride)
        owner = numpy.repeat(numpy.arange(len(oriented)), sampled)
        firsts = numpy.cumsum(sampled) - sampled
        offsets = (numpy.arange(len(owner)) - firsts[owner]) * config.stride
        codes = kmer_codes_at(
            encode_bases("".join(oriented)), read_starts[owner] + offsets, config.k
        )
        rows = self.index.lookup(codes)
        counts = self.index.row_sizes[rows]
        masked = counts > config.max_hits_per_kmer
        used = (counts > 0) & ~masked
        hits = self.index.gather(rows[used], counts[used])
        anchor_owner = numpy.repeat(owner[used], counts[used])
        anchor_offset = numpy.repeat(offsets[used], counts[used])
        self.stats.anchors_sampled += len(codes)
        self.stats.anchors_masked += int(numpy.count_nonzero(masked))
        self.stats.anchor_hits += len(hits)
        anchors = list(zip(anchor_offset.tolist(), hits.tolist()))
        cuts = numpy.searchsorted(anchor_owner, numpy.arange(len(oriented) + 1))
        return [anchors[begin:end] for begin, end in zip(cuts[:-1], cuts[1:])]

    def _chain(self, anchors: List[Tuple[int, int]]) -> List[Chain]:
        """Cluster anchors whose diagonals sit within the gap tolerance."""
        if not anchors:
            return []
        config = self.config
        # Sorting by (diagonal, offset) makes clustering a single linear
        # scan: consecutive anchors either extend the open cluster or
        # start a new one when the diagonal jumps past the tolerance.
        anchors.sort(key=lambda anchor: (anchor[1] - anchor[0], anchor[0]))
        chains: List[Chain] = []
        cluster: List[Tuple[int, int]] = [anchors[0]]
        for anchor in anchors[1:]:
            previous = cluster[-1]
            diagonal_step = (anchor[1] - anchor[0]) - (
                previous[1] - previous[0]
            )
            if diagonal_step <= config.max_diagonal_gap:
                cluster.append(anchor)
            else:
                self._flush(cluster, chains)
                cluster = [anchor]
        self._flush(cluster, chains)
        if config.max_chains is not None and len(chains) > config.max_chains:
            # Keep the best-supported chains; ties break on coordinates
            # so the selection is deterministic.
            chains.sort(
                key=lambda chain: (
                    -chain.anchors,
                    -chain.read_span,
                    chain.position,
                    chain.read_start,
                )
            )
            chains = chains[: config.max_chains]
        # Seed consumers expect coordinate order, not support order.
        chains.sort(key=lambda chain: (chain.position, chain.read_start))
        return chains

    def _flush(
        self, cluster: List[Tuple[int, int]], chains: List[Chain]
    ) -> None:
        if len(cluster) < self.config.min_chain_anchors:
            return
        first = min(cluster, key=lambda anchor: anchor[0])
        last = max(cluster, key=lambda anchor: anchor[0])
        chains.append(
            Chain(
                anchors=len(cluster),
                read_start=first[0],
                read_span=last[0] + self.config.k - first[0],
                position=first[1],
            )
        )
