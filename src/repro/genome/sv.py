"""Structural-variant read simulation: chimeric reads spanning breakpoints.

Structural variants — inversions, translocations, and large indels — break
the single-window assumption every extension engine in the pipeline makes:
a read that crosses a breakpoint aligns as two segments to *different*
reference loci (possibly on different strands), so no single banded DP can
score it well.  These reads are what split-read SV callers consume, and
for the pipeline they are the adversarial workload: seeding must surface
two distinct candidate windows.

Each simulated read records its ground truth: the breakpoint offset inside
the read and the reference coordinates (and strand) of both segments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.genome.reads import (
    ErrorProfile,
    Read,
    SimulatedRead,
    inject_errors,
)
from repro.genome.reference import ReferenceGenome
from repro.genome.sequence import random_dna, reverse_complement

#: The structural-variant kinds the simulator cycles through.
SV_KINDS: Tuple[str, ...] = (
    "inversion",
    "translocation",
    "deletion",
    "insertion",
)


def sv_error_profile() -> ErrorProfile:
    """A deliberately mild error model for SV reads.

    The point of the ``sv`` profile is the breakpoint, not the base-level
    noise — keeping the per-base error rate low keeps each segment
    near-exact, so a read the pipeline misplaces points at the chimera
    handling, not at edit-budget exhaustion.
    """
    return ErrorProfile(rate_start=0.005, rate_end=0.01, indel_fraction=0.2)


@dataclass(frozen=True)
class SVRead:
    """A chimeric read plus the breakpoint ground truth.

    ``breakpoint`` is the read offset where the left segment ends (before
    error injection; indel errors can drift the realized boundary by the
    segment's edit count).  ``right_position``/``right_reverse`` describe
    where the right segment came from; for ``insertion`` the right segment
    is novel sequence and ``right_position`` is ``-1``.
    """

    simulated: SimulatedRead
    kind: str
    breakpoint: int
    left_position: int
    right_position: int
    right_reverse: bool


@dataclass
class SVSimulator:
    """Generate reads spanning inversion/translocation/indel breakpoints."""

    reference: ReferenceGenome
    read_length: int = 150
    min_segment: int = 30
    error_profile: ErrorProfile = field(default_factory=sv_error_profile)
    seed: int = 0
    rng: Optional[random.Random] = None  # explicit RNG; overrides ``seed``

    def __post_init__(self) -> None:
        # One explicitly seeded RNG instance threaded through every draw:
        # identical seeds give identical reads regardless of global RNG
        # state (genaxlint GX101).
        self._rng = self.rng if self.rng is not None else random.Random(self.seed)
        if self.read_length < 2:
            raise ValueError(f"read_length must be >= 2, got {self.read_length}")
        if self.read_length > len(self.reference):
            raise ValueError(
                f"read length {self.read_length} exceeds reference length "
                f"{len(self.reference)}"
            )
        # Both segments must fit the reference and honour min_segment.
        self._segment_floor = max(1, min(self.min_segment, self.read_length // 2))

    def simulate_sv(self, count: int) -> List[SVRead]:
        """Generate *count* chimeric reads with breakpoint ground truth."""
        return [self._one(i) for i in range(count)]

    def simulate(self, count: int) -> List[SimulatedRead]:
        """Generate *count* chimeric reads as plain simulated reads."""
        return [sv.simulated for sv in self.simulate_sv(count)]

    def _draw_breakpoint(self) -> int:
        floor = self._segment_floor
        return self._rng.randint(floor, self.read_length - floor)

    def _draw_segment(self, length: int) -> Tuple[str, int]:
        genome = self.reference.sequence
        start = self._rng.randrange(0, len(genome) - length + 1)
        return genome[start : start + length], start

    def _one(self, index: int) -> SVRead:
        rng = self._rng
        kind = SV_KINDS[index % len(SV_KINDS)]
        breakpoint = self._draw_breakpoint()
        left_len = breakpoint
        right_len = self.read_length - breakpoint
        left, left_position = self._draw_segment(left_len)
        right_reverse = False
        if kind == "inversion":
            # The right segment is the reverse complement of nearby
            # forward-strand sequence: same locus neighbourhood, flipped.
            source, right_position = self._draw_segment(right_len)
            right = reverse_complement(source)
            right_reverse = True
        elif kind == "translocation":
            # Distant donor locus on the forward strand.
            right, right_position = self._draw_segment(right_len)
        elif kind == "deletion":
            # Large deletion: the right segment resumes far downstream of
            # the left segment's end (when the reference allows it).
            genome = self.reference.sequence
            resume_floor = left_position + left_len + self.read_length
            if resume_floor + right_len <= len(genome):
                right_position = rng.randrange(
                    resume_floor, len(genome) - right_len + 1
                )
                right = genome[right_position : right_position + right_len]
            else:
                right, right_position = self._draw_segment(right_len)
        else:  # insertion
            # Novel inserted sequence: maps nowhere on the reference.
            right = random_dna(right_len, rng)
            right_position = -1
        fragment = left + right
        sequence, quality, errors = inject_errors(
            fragment, self.error_profile, rng, fixed_length=len(fragment)
        )
        read = Read(name=f"sv_{index}", sequence=sequence, quality=quality)
        simulated = SimulatedRead(
            read=read,
            true_position=left_position,
            reverse=False,
            error_count=errors,
            variant_edits=0,
        )
        return SVRead(
            simulated=simulated,
            kind=kind,
            breakpoint=breakpoint,
            left_position=left_position,
            right_position=right_position,
            right_reverse=right_reverse,
        )
