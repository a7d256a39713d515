"""Filter-stage contracts: the protocols every cascade stage satisfies.

A *pre-alignment filter* vetoes candidate placements before the
(expensive) extension engine runs.  Related accelerators stack several of
them — GateKeeper/Shouldered base-count vetoes, SneakySnake's universal
filter, a Myers bit-vector scan — ordered cheapest first, so most
spurious seed hits die before anything quadratic executes.  This module
defines the contracts the :class:`~repro.filters.cascade.FilterCascade`
composes:

:class:`CandidateFilter`
    ``admit(oriented, candidate, stats)`` answers one placement, charging
    its streaming work to the shared
    :class:`~repro.align.records.AlignmentStats` (``prefilter_cycles``).
    A filter must never bump ``candidates_filtered`` /
    ``candidates_survived`` itself — the cascade charges those exactly
    once per candidate, whatever the stage count.
:class:`BatchCandidateFilter`
    A :class:`CandidateFilter` that additionally accepts whole
    ``admit_batch`` job lists, for filters whose kernels are vectorized
    across (read, window) lanes.  ``admit_batch`` must be pure batching —
    verdict ``i`` equals ``admit(*jobs[i], stats)`` and the shared stats
    are charged identically (the stage tests hold each batched stage to
    its scalar ``admit``) — mirroring the
    :class:`~repro.pipeline.stages.BatchExtensionEngine` contract.

Both protocols are structural: the cascade's one entry point,
:meth:`~repro.filters.cascade.FilterCascade.admit_batch_depths`, calls a
stage's ``admit_batch`` when it has one (detected once at construction)
and its ``admit`` once per lane otherwise.
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

    def admit(
        self, oriented: str, candidate: Candidate, stats: AlignmentStats
    ) -> bool:
        """True iff *candidate* may proceed to the next stage."""
        ...


@runtime_checkable
class BatchCandidateFilter(CandidateFilter, Protocol):
    """A cascade stage with a vectorized multi-lane path."""

    def admit_batch(
        self, jobs: Sequence[FilterJob], stats: AlignmentStats
    ) -> List[bool]:
        """Answer every job; entry *i* is the verdict for ``jobs[i]``."""
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
