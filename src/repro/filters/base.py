"""The filter-stage contract every cascade stage satisfies.

A *pre-alignment filter* vetoes candidate placements before the
(expensive) extension engine runs.  GenAx itself has none — every seed
candidate goes to a SillaX lane — but on repeat-rich input most
candidates are decoys, and one exact within-budget test answered for a
whole dispatch at once costs less than extending them.

:class:`CandidateFilter`
    ``admit_batch(jobs, stats)`` answers every (oriented read, candidate)
    job of one dispatch, charging its streaming work to the shared
    :class:`~repro.align.records.AlignmentStats` (``prefilter_cycles``).
    A filter must never bump ``candidates_filtered`` /
    ``candidates_survived`` itself — the cascade charges those exactly
    once per candidate, whatever the stage count.

The protocol is structural; :class:`~repro.filters.cascade.FilterCascade`
checks it once, at construction, and calls ``admit_batch`` once per
stage per dispatch — the same one-call-per-dispatch shape as
:class:`~repro.pipeline.stages.BatchExtensionEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    List,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.align.records import AlignmentStats

if TYPE_CHECKING:
    # Type-only: repro.pipeline imports this package at module scope, so
    # a runtime import of repro.pipeline.common here would cycle.
    from repro.pipeline.common import Candidate

#: One filter job: the oriented read and the placement to veto or admit.
FilterJob = Tuple[str, "Candidate"]


@runtime_checkable
class CandidateFilter(Protocol):
    """One cascade stage: veto candidate placements before extension."""

    #: Stable stage name (registry key, telemetry label, bench column).
    name: str

    def admit_batch(
        self, jobs: Sequence[FilterJob], stats: AlignmentStats
    ) -> List[bool]:
        """Answer every job; entry *i* is True iff ``jobs[i]`` may proceed."""
        ...


@dataclass
class FilterStageStats:
    """Per-stage cascade counters (mergeable across shards).

    ``false_accepts`` counts candidates this stage admitted that a
    *later* cascade stage then rejected — the measurable slice of the
    stage's false-accept rate (candidates the whole cascade admits are
    resolved by the extension engine, outside the cascade's view).
    """

    checked: int = 0
    rejected: int = 0
    false_accepts: int = 0
    cycles: int = 0  # modelled streaming cycles attributed to this stage

    @property
    def survived(self) -> int:
        return self.checked - self.rejected

    @property
    def reject_fraction(self) -> float:
        if not self.checked:
            return 0.0
        return self.rejected / self.checked

    @property
    def false_accept_fraction(self) -> float:
        if not self.survived:
            return 0.0
        return self.false_accepts / self.survived

    def merge(self, other: "FilterStageStats") -> None:
        self.checked += other.checked
        self.rejected += other.rejected
        self.false_accepts += other.false_accepts
        self.cycles += other.cycles
