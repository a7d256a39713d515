"""Shared pipeline machinery: candidate generation and best-hit selection.

Both pipelines (software BWA-MEM-like and GenAx) share the same outer
logic — seed, enumerate candidate placements, extend each, keep the best —
and differ only in *how* seeds are found and extensions scored.  Keeping
the shared parts here makes the concordance experiment a comparison of the
two extension engines, not of incidental plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.align.cigar import Cigar
from repro.align.records import Alignment, MappedRead
from repro.genome.reference import ReferenceGenome
from repro.genome.sequence import reverse_complement
from repro.seeding.accelerator import GlobalSeed


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
    """Translate seeds into deduplicated candidate window starts.

    A seed at read offset o hitting global position p predicts the read
    begins at ``p - o``.  Several seeds usually agree on the same start;
    they are merged, keeping the longest supporting seed.  When a cap is
    set, candidates backed by longer seeds are preferred (longer exact
    matches are stronger evidence).
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
    all-``=`` CIGAR.  Shared by the per-read and segment-major paths so
    their outputs stay bit-identical.
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
