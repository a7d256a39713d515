"""The ordered composition of pre-alignment filters.

A :class:`FilterCascade` owns the veto pipeline between candidate
enumeration and seed extension: stages run in order (cheapest first by
convention), a candidate rejected at stage *i* never reaches stage
*i + 1*, and a candidate is charged to the shared
:class:`~repro.align.records.AlignmentStats` exactly once —
``candidates_filtered`` when any stage vetoes it, ``candidates_survived``
when it clears the whole cascade.  The cascade also keeps one
:class:`~repro.filters.base.FilterStageStats` per stage (checked /
rejected / cycle counters), attributing each stage's
``prefilter_cycles`` delta to the stage that streamed it.

The cascade has one entry point, :meth:`admit_batch_depths`, which the
driver calls once per batch with the dispatch's
:class:`~repro.pipeline.common.CandidateTable`.  Evaluation is
stage-major over the candidates still alive: each stage answers, in one
``admit_batch`` call, the sub-table of candidates every earlier stage
admitted.  A stage without ``admit_batch`` is rejected at construction.

The *depth* of a candidate is the number of stages it passed: a depth
equal to ``len(cascade)`` means admitted; anything lower names the
rejecting stage.  Depths drive the telemetry cascade histogram.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy

from repro.align.records import AlignmentStats
from repro.filters.base import CandidateFilter, FilterStageStats

if TYPE_CHECKING:
    from repro.pipeline.common import CandidateTable


class FilterCascade:
    """An ordered chain of :class:`CandidateFilter` stages."""

    def __init__(self, stages: Sequence[CandidateFilter]) -> None:
        if not stages:
            raise ValueError("a FilterCascade needs at least one stage")
        self._stages: Tuple[CandidateFilter, ...] = tuple(stages)
        self.stage_names: Tuple[str, ...] = tuple(
            getattr(stage, "name", type(stage).__name__.lower())
            for stage in self._stages
        )
        for name, stage in zip(self.stage_names, self._stages):
            if not callable(getattr(stage, "admit_batch", None)):
                raise TypeError(f"filter {name!r} has no admit_batch")
        self.stage_stats: Tuple[FilterStageStats, ...] = tuple(
            FilterStageStats() for _ in self._stages
        )

    def __len__(self) -> int:
        return len(self._stages)

    @property
    def stages(self) -> Tuple[CandidateFilter, ...]:
        return self._stages

    def admit_batch_depths(
        self, candidates: "CandidateTable", stats: AlignmentStats
    ) -> List[int]:
        """Depth per candidate; entry *i* answers candidate *i*.

        A depth of ``len(self)`` means admitted; a lower depth names the
        rejecting stage.  Each candidate is charged to *stats* exactly
        once (``candidates_filtered`` or ``candidates_survived``), and
        each stage's ``prefilter_cycles`` delta is attributed to it.
        """
        depths = numpy.zeros(len(candidates), dtype=numpy.int64)
        alive = numpy.arange(len(candidates))
        for index, stage in enumerate(self._stages):
            if not alive.size:
                break
            subset = candidates if index == 0 else candidates.take(alive)
            stage_stats = self.stage_stats[index]
            stage_stats.checked += len(alive)
            before = stats.prefilter_cycles
            verdicts = numpy.asarray(stage.admit_batch(subset, stats), dtype=bool)
            if len(verdicts) != len(alive):
                raise ValueError(
                    f"filter {self.stage_names[index]!r} returned "
                    f"{len(verdicts)} verdicts for {len(alive)} jobs"
                )
            stage_stats.cycles += stats.prefilter_cycles - before
            stage_stats.rejected += len(alive) - int(numpy.count_nonzero(verdicts))
            alive = alive[verdicts]
            depths[alive] += 1
        survived = int(numpy.count_nonzero(depths == len(self)))
        stats.candidates_survived += survived
        stats.candidates_filtered += len(candidates) - survived
        return depths.tolist()

    # ----------------------------------------------------------- reporting

    def report(self) -> List[Tuple[str, FilterStageStats]]:
        """(stage name, counters) rows in cascade order, for rendering."""
        return list(zip(self.stage_names, self.stage_stats))
