"""The filter-stage contract every cascade stage satisfies.

A *pre-alignment filter* vetoes candidate placements before the
(expensive) extension engine runs.  GenAx itself has none — every seed
candidate goes to a SillaX lane — but on repeat-rich input most
candidates are decoys, and one exact within-budget test answered for a
whole dispatch at once costs less than extending them.

:class:`CandidateFilter`
    ``admit_batch(candidates, stats)`` answers every candidate of one
    dispatch, given as a :class:`~repro.pipeline.common.CandidateTable`
    (columns, readable as a sequence of ``(oriented read, Candidate)``
    jobs), charging its streaming work to the shared
    :class:`~repro.align.records.AlignmentStats` (``prefilter_cycles``).
    A filter must never bump ``candidates_filtered`` /
    ``candidates_survived`` itself — the cascade charges those exactly
    once per candidate, whatever the stage count.

The protocol is structural; :class:`~repro.filters.cascade.FilterCascade`
checks it once, at construction, and calls ``admit_batch`` once per
stage per dispatch — the same one-call-per-dispatch shape as
:class:`~repro.pipeline.stages.ExtensionEngine`'s ``extend_batch``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence, Union, runtime_checkable

import numpy
from numpy.typing import NDArray

from repro.align.records import AlignmentStats

if TYPE_CHECKING:
    # Type-only: repro.pipeline imports this package at module scope, so
    # a runtime import of repro.pipeline.common here would cycle.
    from repro.pipeline.common import CandidateTable

#: A stage's answer: one admit flag per candidate, as a list or an array.
Verdicts = Union[Sequence[bool], NDArray[numpy.bool_]]


@runtime_checkable
class CandidateFilter(Protocol):
    """One cascade stage: veto candidate placements before extension."""

    #: Stable stage name (registry key, telemetry label, bench column).
    name: str

    def admit_batch(
        self, candidates: "CandidateTable", stats: AlignmentStats
    ) -> Verdicts:
        """Answer every candidate; entry *i* is True iff candidate *i* may
        proceed."""
        ...


@dataclass
class FilterStageStats:
    """Per-stage cascade counters (mergeable across shards)."""

    checked: int = 0
    rejected: int = 0
    cycles: int = 0  # modelled streaming cycles attributed to this stage

    @property
    def survived(self) -> int:
        return self.checked - self.rejected

    @property
    def reject_fraction(self) -> float:
        if not self.checked:
            return 0.0
        return self.rejected / self.checked

    def merge(self, other: "FilterStageStats") -> None:
        self.checked += other.checked
        self.rejected += other.rejected
        self.cycles += other.cycles
