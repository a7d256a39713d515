"""Myers bit-vector cascade stage: the exact within-budget membership test.

Runs :func:`repro.align.myers.myers_search` over the same reference
window the extension engine would fetch (read length + ``window_slack``),
so a candidate survives iff the whole read matches *some* substring of
that window within ``max_edits`` edits.  This is the most precise — and
most expensive — stage the default cascade runs, which is why the
registry orders it last: the shouldered and SneakySnake stages are
strictly cheaper over-approximations of the same semi-global distance
bound, so anything they veto this stage would have vetoed too.

Counter discipline (see :mod:`repro.filters.base`): the stage charges its
streamed window to ``stats.prefilter_cycles`` (the hardware analogue
streams one window character per cycle); the cascade owns the per-stage
checked/rejected/cycle counters and the once-per-candidate
``candidates_filtered`` / ``candidates_survived`` charges.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.align.myers import myers_search
from repro.align.records import AlignmentStats
from repro.genome.reference import ReferenceGenome

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

    def admit(
        self, oriented: str, candidate: "Candidate", stats: AlignmentStats
    ) -> bool:
        window = self._fetch_window(
            self.reference, candidate, len(oriented), self.window_slack
        )
        stats.prefilter_cycles += len(window)
        return bool(myers_search(oriented, window, self.max_edits))
