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
driver calls once per batch with every gathered candidate.  Evaluation
is stage-major over the lanes still alive: each stage answers, in one
``admit_batch`` call, only the candidates every earlier stage admitted.
A stage without ``admit_batch`` is rejected at construction.

The *depth* of a candidate is the number of stages it passed: a depth
equal to ``len(cascade)`` means admitted; anything lower names the
rejecting stage.  Depths drive the telemetry cascade histogram.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.align.records import AlignmentStats
from repro.filters.base import CandidateFilter, FilterJob, FilterStageStats


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
        self, jobs: Sequence[FilterJob], stats: AlignmentStats
    ) -> List[int]:
        """Depth per job; entry *i* answers ``jobs[i]``.

        A depth of ``len(self)`` means admitted; a lower depth names the
        rejecting stage.  Each candidate is charged to *stats* exactly
        once (``candidates_filtered`` or ``candidates_survived``), and
        each stage's ``prefilter_cycles`` delta is attributed to it.
        """
        depths = [0] * len(jobs)
        alive = list(range(len(jobs)))
        for index, stage in enumerate(self._stages):
            if not alive:
                break
            subset = [jobs[i] for i in alive]
            stage_stats = self.stage_stats[index]
            stage_stats.checked += len(subset)
            before = stats.prefilter_cycles
            verdicts = stage.admit_batch(subset, stats)
            if len(verdicts) != len(subset):
                raise ValueError(
                    f"filter {self.stage_names[index]!r} returned "
                    f"{len(verdicts)} verdicts for {len(subset)} jobs"
                )
            stage_stats.cycles += stats.prefilter_cycles - before
            survivors: List[int] = []
            for job_index, admitted in zip(alive, verdicts):
                if admitted:
                    depths[job_index] += 1
                    survivors.append(job_index)
                else:
                    stage_stats.rejected += 1
            alive = survivors
        admitted_depth = len(self)
        for depth in depths:
            if depth == admitted_depth:
                stats.candidates_survived += 1
            else:
                stats.candidates_filtered += 1
        return depths

    # ----------------------------------------------------------- reporting

    def report(self) -> List[Tuple[str, FilterStageStats]]:
        """(stage name, counters) rows in cascade order, for rendering."""
        return list(zip(self.stage_names, self.stage_stats))
