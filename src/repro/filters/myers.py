"""Myers bit-vector cascade stage: the exact within-budget membership test.

Runs Myers' semi-global recurrence over the same reference window the
extension engine would fetch (read length + ``window_slack``), so a
candidate survives iff the whole read matches *some* substring of that
window within ``max_edits`` edits.  This is the most precise — and most
expensive — stage the default cascade runs, which is why the registry
orders it last: the shouldered and SneakySnake stages are strictly
cheaper over-approximations of the same semi-global distance bound, so
anything they veto this stage would have vetoed too.

The cascade calls :meth:`MyersCandidateFilter.admit_batch`: every lane
of a dispatch is answered by one
:func:`~repro.align.bitvector.batch_semiglobal_min` call, and a lane is
admitted iff its minimum distance is ``<= max_edits``.  That is exactly
``bool(myers_search(...))``, the scalar :meth:`~MyersCandidateFilter.admit`
verdict, because both recurrences start the score at the pattern length
and :func:`~repro.align.myers.myers_search` reports a hit wherever the
running score is within budget.  The packed kernel takes upper-case ACGT
only, while the scalar scan compares any characters; a lane whose read or
window holds anything else keeps the scalar verdict, so dirty input maps
exactly as it does without batching.

Counter discipline (see :mod:`repro.filters.base`): the stage charges its
streamed window to ``stats.prefilter_cycles`` (the hardware analogue
streams one window character per cycle); the cascade owns the per-stage
checked/rejected/cycle counters and the once-per-candidate
``candidates_filtered`` / ``candidates_survived`` charges.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

from repro.align.bitvector import batch_semiglobal_min
from repro.align.myers import myers_search
from repro.align.records import AlignmentStats
from repro.filters.base import FilterJob
from repro.genome.reference import ReferenceGenome
from repro.genome.sequence import is_dna

if TYPE_CHECKING:
    from repro.pipeline.common import Candidate


class MyersCandidateFilter:
    """Bit-vector semi-global scan: exact within-budget membership test."""

    name = "myers"

    def __init__(
        self, reference: ReferenceGenome, max_edits: int, window_slack: int
    ) -> None:
        if max_edits < 0:
            raise ValueError(f"max_edits must be non-negative, got {max_edits}")
        # Deferred import: repro.pipeline imports this package at module
        # scope, so importing pipeline.common at import time would cycle.
        from repro.pipeline.common import fetch_window

        self._fetch_window = fetch_window
        self.reference = reference
        self.max_edits = max_edits
        self.window_slack = window_slack

    def _window(
        self, oriented: str, candidate: "Candidate", stats: AlignmentStats
    ) -> str:
        """The candidate's reference window, charged as streamed cycles."""
        window = self._fetch_window(
            self.reference, candidate, len(oriented), self.window_slack
        )
        stats.prefilter_cycles += len(window)
        return window

    def admit(
        self, oriented: str, candidate: "Candidate", stats: AlignmentStats
    ) -> bool:
        window = self._window(oriented, candidate, stats)
        return bool(myers_search(oriented, window, self.max_edits))

    def admit_batch(
        self, jobs: Sequence[FilterJob], stats: AlignmentStats
    ) -> List[bool]:
        lanes = [
            (oriented, self._window(oriented, candidate, stats))
            for oriented, candidate in jobs
        ]
        clean = [is_dna(read) and is_dna(window) for read, window in lanes]
        distances = iter(
            batch_semiglobal_min(
                [read for (read, _), ok in zip(lanes, clean) if ok],
                [window for (_, window), ok in zip(lanes, clean) if ok],
            ).tolist()
        )
        return [
            next(distances) <= self.max_edits
            if ok
            else bool(myers_search(read, window, self.max_edits))
            for (read, window), ok in zip(lanes, clean)
        ]
