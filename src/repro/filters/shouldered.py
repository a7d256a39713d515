"""Base-count ("shouldered") cascade stage: the cheapest veto that exists.

The observation (GateKeeper/magnet-style filtering, q-gram counting in
the lossless-filter literature): a semi-global alignment of the read into
the window pairs every non-edited read base with a *distinct* same-letter
window base.  So for each letter ``b``, any excess of ``b`` in the read
over the window — ``max(0, count_read(b) - count_window(b))`` — names
read bases that cannot be matched and must each cost at least one edit
(substitution or deletion).  Summing the excesses over the four letters
lower-bounds the semi-global edit distance; a candidate whose bound
already exceeds ``max_edits`` cannot survive the Myers stage either, so
the veto is lossless relative to the cascade's edit budget.

Four ``str.count`` passes per side is all it costs — no per-position
work, no DP, no bit-vectors — which is why the default cascade runs this
stage first ("shoulder" the obvious junk before anything per-base runs).
This stage deliberately implements only the scalar ``admit`` path: it
documents (and the default cascade exercises) the cascade's mixed
scalar/batched composition.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.align.records import AlignmentStats
from repro.genome.reference import ReferenceGenome
from repro.genome.sequence import ALPHABET

if TYPE_CHECKING:
    from repro.pipeline.common import Candidate


class ShoulderedFilter:
    """Per-letter base-count lower bound on the semi-global edit distance."""

    name = "shouldered"

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

    def distance_bound(self, oriented: str, window: str) -> int:
        """Lower bound on the read↔window semi-global edit distance."""
        return sum(
            max(0, oriented.count(base) - window.count(base))
            for base in ALPHABET
        )

    def admit(
        self, oriented: str, candidate: "Candidate", stats: AlignmentStats
    ) -> bool:
        window = self._fetch_window(
            self.reference, candidate, len(oriented), self.window_slack
        )
        stats.prefilter_cycles += len(window)
        return self.distance_bound(oriented, window) <= self.max_edits
