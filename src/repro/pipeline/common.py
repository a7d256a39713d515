"""Shared pipeline machinery: candidate generation and best-hit selection.

Both pipelines (software BWA-MEM-like and GenAx) share the same outer
logic — seed, enumerate candidate placements, extend each, keep the best —
and differ only in *how* seeds are found and extensions scored.  Keeping
the shared parts here makes the concordance experiment a comparison of the
two extension engines, not of incidental plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy
from numpy.typing import NDArray

from repro.align.cigar import Cigar
from repro.align.records import Alignment, MappedRead
from repro.genome.reference import ReferenceGenome
from repro.genome.sequence import reverse_complement
from repro.seeding.accelerator import GlobalSeed
from repro.seeding.smem import SeedTable


@dataclass(frozen=True)
class Candidate:
    """One placement to verify: align the read at this reference window."""

    window_start: int
    reverse: bool
    seed_length: int  # longest seed supporting this placement (for ordering)


def window_span(
    candidate: Candidate, read_length: int, slack: int
) -> Tuple[int, int]:
    """``(start, length)`` of the reference window verifying *candidate*.

    Every verification stage — pre-alignment filters, banded DP, the
    bit-parallel kernels — inspects the same window shape: the read's
    length plus a slack of insertions the alignment may absorb (the edit
    bound or DP band).  The span is the canonical identity of that
    window; the batched kernels key their fetch-dedupe caches on it.
    """
    return candidate.window_start, read_length + slack


def window_spans(
    starts: NDArray[numpy.int64],
    read_lengths: NDArray[numpy.int64],
    slack: int,
    genome_length: int,
) -> Tuple[NDArray[numpy.int64], NDArray[numpy.int64]]:
    """``(first, lengths)`` of the windows :func:`fetch_window` fetches.

    The array form of :func:`window_span` for many candidates, clamped to
    ``[0, genome_length)`` the way :meth:`ReferenceGenome.fetch` clamps:
    window ``i`` is ``sequence[first[i] : first[i] + lengths[i]]``.
    """
    first = numpy.maximum(starts, 0)
    end = numpy.minimum(genome_length, starts + read_lengths + slack)
    return first, numpy.maximum(end - first, 0)


def fetch_window(
    reference: ReferenceGenome,
    candidate: Candidate,
    read_length: int,
    slack: int,
) -> str:
    """Fetch the reference window named by :func:`window_span`."""
    start, length = window_span(candidate, read_length, slack)
    return reference.fetch(start, start + length)


def candidates_from_seeds(
    seeds: Sequence[GlobalSeed],
    reverse: bool,
    max_candidates: Optional[int] = None,
) -> List[Candidate]:
    """Translate one strand's seeds into deduplicated candidate window starts.

    A seed at read offset o hitting global position p predicts the read
    begins at ``p - o``.  Several seeds usually agree on the same start;
    they are merged, keeping the longest supporting seed.  When a cap is
    set, candidates backed by longer seeds are preferred (longer exact
    matches are stronger evidence).

    This is the per-strand, object-per-candidate statement of the rule;
    the driver runs it on arrays for a whole dispatch
    (:meth:`CandidateTable.from_seeds`), and the
    ``candidate-table-vs-per-read`` difftest pair holds the two equal.
    """
    support: Dict[int, int] = {}
    for seed in seeds:
        for position in seed.positions:
            start = position - seed.read_offset
            if start < 0:
                continue
            if seed.length > support.get(start, -1):
                support[start] = seed.length
    ordered = sorted(
        (Candidate(window_start=start, reverse=reverse, seed_length=length)
         for start, length in support.items()),
        key=lambda c: (-c.seed_length, c.window_start),
    )
    if max_candidates is not None:
        ordered = ordered[:max_candidates]
    return ordered


#: One (oriented read, placement) pair: a filter or extension job.
Job = Tuple[str, Candidate]


@dataclass(frozen=True, eq=False)
class CandidateTable:
    """The candidate placements of one dispatch, as columns.

    Candidate ``i`` places oriented read ``reads[row[i]]`` at reference
    window start ``start[i]`` on strand ``reverse[i]``, supported by a
    seed of ``seed_length[i]`` bases.  The filter cascade reads the
    columns directly; ``table[i]`` (and iteration) gives the
    ``(oriented read, Candidate)`` job, built on access, so
    :class:`Candidate` objects are made only for the entries a caller
    asks for (the driver asks for the survivors of the cascade).
    """

    reads: Sequence[str]
    row: NDArray[numpy.int64]
    start: NDArray[numpy.int64]
    seed_length: NDArray[numpy.int64]
    reverse: NDArray[numpy.bool_]

    @classmethod
    def from_jobs(cls, jobs: Sequence[Job]) -> "CandidateTable":
        """One row per job (tests hold job lists)."""
        count = len(jobs)
        return cls(
            reads=[oriented for oriented, __ in jobs],
            row=numpy.arange(count, dtype=numpy.int64),
            start=numpy.fromiter(
                (c.window_start for __, c in jobs), dtype=numpy.int64, count=count
            ),
            seed_length=numpy.fromiter(
                (c.seed_length for __, c in jobs), dtype=numpy.int64, count=count
            ),
            reverse=numpy.fromiter(
                (c.reverse for __, c in jobs), dtype=bool, count=count
            ),
        )

    @classmethod
    def from_seeds(
        cls,
        seeds: SeedTable,
        reads: Sequence[str],
        reverse: NDArray[numpy.bool_],
        searched: NDArray[numpy.bool_],
        max_candidates: Optional[int],
    ) -> "CandidateTable":
        """:func:`candidates_from_seeds` for every *searched* row at once.

        Row ``r`` of *seeds* is oriented read ``reads[r]`` on strand
        ``reverse[r]``.  Every hit predicts the start ``position -
        offset``; negative starts are dropped, each (row, start) keeps
        its longest seed, and each row's candidates are ordered by seed
        length descending, then start, and cut to the first
        *max_candidates* (no cap for ``None``).  The table is ordered by
        row, then that order.
        """
        sizes = seeds.sizes
        row = numpy.repeat(seeds.row, sizes)
        start = seeds.positions - numpy.repeat(seeds.offset, sizes)
        length = numpy.repeat(seeds.length, sizes)
        valid = searched[row] & (start >= 0)
        row, start, length = row[valid], start[valid], length[valid]
        # The longest seed of each (row, start): first after sorting by
        # row, start and length descending.
        order = numpy.lexsort((-length, start, row))
        row, start, length = row[order], start[order], length[order]
        first = numpy.ones(len(row), dtype=bool)
        first[1:] = (row[1:] != row[:-1]) | (start[1:] != start[:-1])
        row, start, length = row[first], start[first], length[first]
        order = numpy.lexsort((start, -length, row))
        row, start, length = row[order], start[order], length[order]
        if max_candidates is not None:
            rank = numpy.arange(len(row)) - numpy.searchsorted(row, row)
            kept = rank < max_candidates
            row, start, length = row[kept], start[kept], length[kept]
        return cls(
            reads=reads, row=row, start=start, seed_length=length, reverse=reverse[row]
        )

    def take(self, entries: NDArray[numpy.int64]) -> "CandidateTable":
        """The table of *entries* (indexes, in the order given)."""
        return CandidateTable(
            reads=self.reads,
            row=self.row[entries],
            start=self.start[entries],
            seed_length=self.seed_length[entries],
            reverse=self.reverse[entries],
        )

    def jobs(self) -> List[Job]:
        """Every entry as an ``(oriented read, Candidate)`` job."""
        reads = self.reads
        return [
            (reads[row], Candidate(start, reverse, length))
            for row, start, reverse, length in zip(
                self.row.tolist(),
                self.start.tolist(),
                self.reverse.tolist(),
                self.seed_length.tolist(),
            )
        ]

    def __len__(self) -> int:
        return len(self.row)

    def __iter__(self) -> Iterator[Job]:
        return iter(self.jobs())

    def __getitem__(self, entry: int) -> Job:
        return (
            self.reads[int(self.row[entry])],
            Candidate(
                int(self.start[entry]),
                bool(self.reverse[entry]),
                int(self.seed_length[entry]),
            ),
        )


@dataclass(frozen=True)
class Extension:
    """Result of verifying one candidate."""

    candidate: Candidate
    score: int
    position: int  # global alignment start (window_start + in-window offset)
    cigar: Optional[Cigar]
    query_end: int  # read bases consumed before clipping


def dp_extension(candidate: Candidate, alignment: Alignment) -> Extension:
    """The :class:`Extension` a DP alignment of *candidate*'s window gives.

    The fetched window starts at ``window_start`` clamped to the genome,
    so the alignment's in-window offset is added to the clamped start.
    """
    return Extension(
        candidate=candidate,
        score=alignment.score,
        position=max(0, candidate.window_start) + alignment.reference_start,
        cigar=alignment.cigar,
        query_end=alignment.query_end,
    )


def select_best(
    read_name: str,
    read_length: int,
    extensions: Iterable[Extension],
    min_score: int,
) -> MappedRead:
    """Pick the mapping: highest score; ties broken by position then strand.

    Mirrors the paper's observation (§VIII-A) that remaining differences
    between aligners come from tie-break policy among equal-score hits.
    """
    best: Optional[Extension] = None
    ties = 0
    for extension in extensions:
        if extension.score < min_score:
            continue
        if best is None or extension.score > best.score:
            best = extension
            ties = 0
        elif extension.score == best.score:
            ties += 1
            key = (extension.candidate.reverse, extension.position)
            if key < (best.candidate.reverse, best.position):
                best = extension
    if best is None:
        return MappedRead(
            read_name=read_name,
            position=-1,
            reverse=False,
            score=0,
            cigar=None,
            mapping_quality=0,
        )
    cigar = best.cigar
    if cigar is not None and best.query_end < read_length:
        cigar = Cigar.from_ops(list(cigar.ops) + [(read_length - best.query_end, "S")])
    mapq = 60 if ties == 0 else max(0, 60 - 17 * ties)
    return MappedRead(
        read_name=read_name,
        position=best.position,
        reverse=best.candidate.reverse,
        score=best.score,
        cigar=cigar,
        mapping_quality=mapq,
        secondary_count=ties,
    )


def exact_match_cigar(read_length: int) -> Cigar:
    """CIGAR of a perfect whole-read match."""
    return Cigar.from_ops([(read_length, "=")])


def exact_match_extensions(
    exact_seeds: Sequence[GlobalSeed],
    reverse: bool,
    read_length: int,
    match_score: int,
) -> List[Extension]:
    """Extensions for the exact-match fast path (§V optimization 3).

    A whole-read exact seed needs no SillaX verification: every hit
    position is already a perfect placement with the maximum score and an
    all-``=`` CIGAR.  The driver's mapping loop builds these for every
    strand with a whole-read exact seed, in place of extension.
    """
    out: List[Extension] = []
    for seed in exact_seeds:
        for position in seed.positions:
            out.append(
                Extension(
                    candidate=Candidate(position, reverse, read_length),
                    score=match_score * read_length,
                    position=position,
                    cigar=exact_match_cigar(read_length),
                    query_end=read_length,
                )
            )
    return out


def strands(read_sequence: str) -> List[Tuple[str, bool]]:
    """The two orientations to try: (sequence, is_reverse)."""
    return [(read_sequence, False), (reverse_complement(read_sequence), True)]
