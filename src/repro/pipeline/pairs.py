"""Paired-end mate rescue: insert-window re-search for half-mapped pairs.

A paired-end library (:mod:`repro.genome.pairs`) constrains where a read's
mate can be: in FR orientation the mate starts within one insert length of
the anchor, on the opposite strand.  When one end maps confidently and the
other comes back unmapped — too many sequencing errors for seeding, or
repeat-masked seed lists — the pair constraint turns an intractable
whole-genome search into a tiny banded-DP problem over the predicted
insert window.  Every production mapper ships this stage (BWA-MEM calls it
mate rescue / mate-SW); here ``repro align --paired``
(:func:`repro.cli._resolve_read_pairs`) calls it on the mates one
``align_batch`` mapped.

The search itself is two-phase, the same shape as the main pipeline:
:func:`~repro.align.myers.myers_search` scans the window for end positions
within the edit budget (cheap bit-parallel filter), then
:func:`~repro.align.banded.banded_extension_align` scores candidate start
placements to produce the affine-gap alignment (exact verifier).  The
``pairedend`` difftest family pins this fast path against the full-DP
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.align.banded import banded_extension_align
from repro.align.myers import myers_search
from repro.align.records import Alignment, AlignmentStats, MappedRead
from repro.align.scoring import BWA_MEM_SCHEME, ScoringScheme
from repro.genome.sequence import reverse_complement

#: Mapping quality assigned to rescued mates: the placement is evidence
#: from the pair constraint, not from independent seeding, so it reports
#: lower confidence than a uniquely seeded hit.
RESCUE_MAPQ = 20

#: Cap on banded-DP start placements verified per rescue (cost bound).
RESCUE_START_CAP = 64


@dataclass
class PairStats:
    """Pair-level counters (the ``--paired`` run summary reports them)."""

    pairs_total: int = 0
    both_mapped: int = 0  # pairs with both ends mapped (incl. rescued)
    rescue_attempts: int = 0  # insert-window searches launched
    rescued: int = 0  # attempts that produced an accepted mapping
    proper_pairs: int = 0  # both ends FR-oriented within the insert window

    def merge(self, other: "PairStats") -> None:
        """Fold another rescuer's counters in (shard merging)."""
        self.pairs_total += other.pairs_total
        self.both_mapped += other.both_mapped
        self.rescue_attempts += other.rescue_attempts
        self.rescued += other.rescued
        self.proper_pairs += other.proper_pairs


@dataclass(frozen=True)
class PairMapping:
    """One pair's final mappings plus how they were obtained."""

    first: MappedRead
    second: MappedRead
    rescued_first: bool = False
    rescued_second: bool = False
    proper: bool = False


def rescue_candidate_starts(
    ends: Tuple[int, ...],
    pattern_length: int,
    k: int,
    text_length: int,
    cap: int = RESCUE_START_CAP,
) -> List[int]:
    """Candidate window starts implied by semi-global match end positions.

    A match of an ``m``-base pattern within ``k`` edits that ends at text
    position ``e`` consumed between ``m - k`` and ``m + k`` text bases, so
    its start lies in ``[e - m - k, e - m + k]``.  Enumerating that whole
    interval (rather than the midpoint) is what makes the downstream
    anchored banded scorer exact: one of the candidates *is* the true
    start, where the anchored DP sees the alignment head-on instead of
    through boundary gap penalties.
    """
    starts = set()
    for end in ends:
        low = max(0, end - pattern_length - k)
        high = min(max(0, text_length - 1), end - pattern_length + k)
        for start in range(low, high + 1):
            starts.add(start)
    return sorted(starts)[:cap]


def rescue_search(
    text: str,
    pattern: str,
    k: int,
    scheme: ScoringScheme = BWA_MEM_SCHEME,
    stats: Optional[AlignmentStats] = None,
    cap: int = RESCUE_START_CAP,
) -> Optional[Tuple[int, Alignment]]:
    """Best affine-gap placement of *pattern* in *text* within *k* edits.

    Returns ``(window_start, alignment)`` — the alignment's coordinates
    are relative to ``text[window_start:]`` — or ``None`` when no end
    position survives the Myers filter.  Ties break toward the lowest
    start (candidates are scanned in sorted order and only a strictly
    better score displaces the incumbent), so results are deterministic.
    """
    if not pattern:
        return None
    ends = myers_search(pattern, text, k)
    if not ends:
        return None
    m = len(pattern)
    best: Optional[Tuple[int, Alignment]] = None
    for start in rescue_candidate_starts(ends, m, k, len(text), cap):
        window = text[start : start + m + k]
        result = banded_extension_align(window, pattern, k, scheme)
        if stats is not None:
            stats.extensions += 1
            stats.dp_cells += result.cells_computed
        if best is None or result.alignment.score > best[1].score:
            best = (start, result.alignment)
    return best


@dataclass
class PairRescuer:
    """The insert-window rescue stage: library model + search budget.

    ``insert_slack`` is the half-width of the insert window searched
    around ``insert_mean`` — size it to a few standard deviations of the
    library's insert distribution.  ``edit_budget`` bounds the Myers
    filter and the banded verifier; ``None`` derives it per mate from
    ``scheme.max_edits_for_score`` (clamped to ``max_edit_budget``),
    mirroring the adaptive policy's argument.
    """

    reference: str
    insert_mean: int = 350
    insert_slack: int = 140  # = 4 sigma for the simulator's default sd 35
    min_score: int = 35  # rescued mates below this stay unmapped
    scheme: ScoringScheme = BWA_MEM_SCHEME
    edit_budget: Optional[int] = None
    max_edit_budget: int = 32
    stats: PairStats = field(default_factory=PairStats)

    def __post_init__(self) -> None:
        if self.insert_mean < 1:
            raise ValueError(f"insert_mean must be >= 1, got {self.insert_mean}")
        if self.insert_slack < 0:
            raise ValueError(
                f"insert_slack must be >= 0, got {self.insert_slack}"
            )

    def _budget_for(self, mate_length: int) -> int:
        if self.edit_budget is not None:
            return self.edit_budget
        bound = self.scheme.max_edits_for_score(mate_length, self.min_score)
        return max(1, min(self.max_edit_budget, bound))

    def mate_window(
        self,
        anchor_position: int,
        anchor_reverse: bool,
        anchor_length: int,
        mate_length: int,
    ) -> Tuple[int, int, bool]:
        """Predicted mate start interval ``[low, high]`` and orientation.

        FR geometry: a forward anchor at ``a`` is the fragment's head, so
        the mate is reversed and starts near ``a + insert - mate_length``;
        a reverse anchor at ``a`` is the fragment's tail, so the mate is
        forward and starts near ``a + anchor_length - insert``.  The
        interval is clamped to the reference; ``high < low`` means the
        window falls entirely off the end.
        """
        if anchor_reverse:
            center = anchor_position + anchor_length - self.insert_mean
            mate_reverse = False
        else:
            center = anchor_position + self.insert_mean - mate_length
            mate_reverse = True
        low = max(0, center - self.insert_slack)
        high = min(
            len(self.reference) - max(1, mate_length),
            center + self.insert_slack,
        )
        return low, high, mate_reverse

    def rescue(
        self,
        anchor: MappedRead,
        anchor_length: int,
        mate_name: str,
        mate_sequence: str,
        stats: Optional[AlignmentStats] = None,
    ) -> Optional[MappedRead]:
        """Search the anchor's insert window for the unmapped mate.

        Returns the rescued :class:`MappedRead` (global coordinates,
        :data:`RESCUE_MAPQ`) or ``None`` when nothing in the window
        reaches ``min_score``.  Banded-DP work is charged to *stats* so
        rescue cost shows up in the driver's shared counters.
        """
        self.stats.rescue_attempts += 1
        low, high, mate_reverse = self.mate_window(
            anchor.position, anchor.reverse, anchor_length, len(mate_sequence)
        )
        if high < low or not mate_sequence:
            return None
        oriented = (
            reverse_complement(mate_sequence) if mate_reverse else mate_sequence
        )
        m = len(oriented)
        k = self._budget_for(m)
        # The searched text spans every candidate start in [low, high]
        # plus room for the longest within-budget alignment.
        text = self.reference[low : min(len(self.reference), high + m + k)]
        found = rescue_search(text, oriented, k, self.scheme, stats)
        if found is None:
            return None
        window_start, alignment = found
        if alignment.score < self.min_score:
            return None
        self.stats.rescued += 1
        return MappedRead(
            read_name=mate_name,
            position=low + window_start + alignment.reference_start,
            reverse=mate_reverse,
            score=alignment.score,
            cigar=alignment.cigar,
            mapping_quality=RESCUE_MAPQ,
        )

    def is_proper(
        self,
        first: MappedRead,
        second: MappedRead,
        first_length: int,
        second_length: int,
    ) -> bool:
        """FR-proper check: opposite strands, insert within the window."""
        if first.is_unmapped or second.is_unmapped:
            return False
        if first.reverse == second.reverse:
            return False
        forward, forward_length = (
            (first, first_length) if not first.reverse else (second, second_length)
        )
        reverse, reverse_length = (
            (second, second_length) if not first.reverse else (first, first_length)
        )
        insert = reverse.position + reverse_length - forward.position
        if insert < max(forward_length, reverse_length):
            return False
        return abs(insert - self.insert_mean) <= self.insert_slack


def resolve_pair(
    first: MappedRead,
    second: MappedRead,
    first_sequence: str,
    second_sequence: str,
    rescuer: Optional[PairRescuer],
    stats: Optional[AlignmentStats] = None,
) -> PairMapping:
    """Combine two single-end mappings into a pair result, rescuing one
    unmapped mate from the other's insert window when possible."""
    rescued_first = False
    rescued_second = False
    proper = False
    if rescuer is not None:
        rescuer.stats.pairs_total += 1
        if first.is_unmapped and not second.is_unmapped:
            replacement = rescuer.rescue(
                second,
                len(second_sequence),
                first.read_name,
                first_sequence,
                stats,
            )
            if replacement is not None:
                first = replacement
                rescued_first = True
        elif second.is_unmapped and not first.is_unmapped:
            replacement = rescuer.rescue(
                first,
                len(first_sequence),
                second.read_name,
                second_sequence,
                stats,
            )
            if replacement is not None:
                second = replacement
                rescued_second = True
        if not first.is_unmapped and not second.is_unmapped:
            rescuer.stats.both_mapped += 1
        proper = rescuer.is_proper(
            first, second, len(first_sequence), len(second_sequence)
        )
        if proper:
            rescuer.stats.proper_pairs += 1
    return PairMapping(
        first=first,
        second=second,
        rescued_first=rescued_first,
        rescued_second=rescued_second,
        proper=proper,
    )
