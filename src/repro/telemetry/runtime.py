"""Run-scoped telemetry: the bundle the pipeline records into.

:class:`PipelineTelemetry` pairs one :class:`Tracer` with one
:class:`MetricRegistry` and pre-creates every hot-path metric handle, so
the :class:`~repro.pipeline.stages.PipelineDriver` never does a
name-lookup (let alone an allocation) while recording.

Activation model
----------------

Telemetry is **off by default and globally scoped**, like the stdlib
``logging`` module: entry points (the CLI, a benchmark harness, a test)
call :func:`activate` around a run, and every ``PipelineDriver``
constructed while a bundle is active records into it.  The driver's
disabled path is a single ``is None`` comparison — no wrapper objects,
no no-op method calls, zero allocations (the guard test in
``tests/telemetry/test_overhead.py`` asserts exactly this with
``tracemalloc``).

The global is also what makes the multiprocess story work: the
shard-parallel :class:`~repro.parallel.engine.ParallelAligner` notices a
bundle is active in the parent, has each worker record into a fresh
per-chunk bundle, ships picklable :meth:`PipelineTelemetry.snapshot`
payloads back with the shard results, and folds them into the parent
bundle in deterministic chunk order — the same protocol
:class:`~repro.pipeline.registry.BackendRunStats` uses, with the same
associative/commutative merge guarantees.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from contextlib import contextmanager

from repro.telemetry.clock import Clock, monotonic_s
from repro.telemetry.metrics import MetricRegistry
from repro.telemetry.tracer import TraceEvent, Tracer

__all__ = [
    "PipelineTelemetry",
    "TelemetrySnapshot",
    "activate",
    "active_telemetry",
    "deactivate",
    "telemetry_session",
]

#: Span-duration buckets in seconds (5 us .. 1 s, then overflow).
SECONDS_BUCKETS: Tuple[float, ...] = (
    5e-6, 2e-5, 1e-4, 5e-4, 2e-3, 1e-2, 5e-2, 0.25, 1.0,
)

#: Candidate-placements-per-read buckets.
COUNT_BUCKETS: Tuple[float, ...] = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: SMEM seed-length buckets (read lengths are ~100-150 bp here).
LENGTH_BUCKETS: Tuple[float, ...] = (
    11.0, 15.0, 19.0, 25.0, 33.0, 49.0, 75.0, 101.0, 151.0,
)

#: Edit-distance buckets for accepted extensions.
EDIT_BUCKETS: Tuple[float, ...] = (0.0, 1.0, 2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0)

#: Lanes-per-dispatch buckets for the extension stage (cross-read
#: batches reach hundreds to thousands of lanes).
BATCH_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 4096.0,
)

#: Cascade-depth buckets: stages a candidate passed before its verdict
#: (registered cascades run up to a handful of stages).
CASCADE_BUCKETS: Tuple[float, ...] = (
    0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0,
)

#: Stages the driver brackets (kept in sync with exporters.PROFILE_STAGES
#: by a test); each gets a pipeline_stage_seconds_<stage> histogram.
STAGES: Tuple[str, ...] = (
    "seed", "filter_batch", "extend_batch", "select",
)

TelemetrySnapshot = Dict[str, Any]
"""Picklable payload a worker ships back: metric states + trace events."""


class PipelineTelemetry:
    """One run's tracer + metric registry, with pre-created hot handles."""

    __slots__ = (
        "tracer",
        "metrics",
        "_stage_histograms",
        "_reads",
        "_seeds",
        "_candidates",
        "_extensions",
        "_candidates_per_read",
        "_seed_lengths",
        "_edit_distances",
        "_batch_lanes",
        "_cascade_depths",
    )

    def __init__(
        self, clock: Clock = monotonic_s, pid: int = 0
    ) -> None:
        self.tracer = Tracer(clock=clock, pid=pid)
        self.metrics = MetricRegistry()
        self._stage_histograms = {
            stage: self.metrics.histogram(
                f"pipeline_stage_seconds_{stage}",
                SECONDS_BUCKETS,
                f"wall seconds spent in the {stage} stage, per stage instance",
            )
            for stage in STAGES
        }
        self._reads = self.metrics.counter(
            "pipeline_reads_total", "reads mapped through the driver"
        )
        self._seeds = self.metrics.counter(
            "pipeline_seeds_total", "seeds produced by the seed provider"
        )
        self._candidates = self.metrics.counter(
            "pipeline_candidates_total", "candidate placements considered"
        )
        self._extensions = self.metrics.counter(
            "pipeline_extensions_total", "extensions accepted by the engine"
        )
        self._candidates_per_read = self.metrics.histogram(
            "pipeline_candidates_per_read",
            COUNT_BUCKETS,
            "candidate placements per read (both strands)",
        )
        self._seed_lengths = self.metrics.histogram(
            "pipeline_smem_length",
            LENGTH_BUCKETS,
            "SMEM seed lengths in bases",
        )
        self._edit_distances = self.metrics.histogram(
            "pipeline_edit_distance",
            EDIT_BUCKETS,
            "edit distance of accepted extensions (from CIGAR)",
        )
        self._batch_lanes = self.metrics.histogram(
            "pipeline_batch_lanes",
            BATCH_BUCKETS,
            "candidate lanes per extension dispatch",
        )
        self._cascade_depths = self.metrics.histogram(
            "pipeline_cascade_depth",
            CASCADE_BUCKETS,
            "filter-cascade stages a candidate passed before its verdict",
        )

    # ------------------------------------------------- driver-facing hooks

    def stage_begin(self, name: str) -> None:
        """Open a span; *name* may be a stage or any grouping span."""
        self.tracer.begin(name)

    def stage_end(self, name: str) -> float:
        """Close the innermost span; stage spans also feed histograms."""
        duration = self.tracer.end()
        histogram = self._stage_histograms.get(name)
        if histogram is not None:
            histogram.observe(duration)
        return duration

    def observe_seeds(self, seeds: Sequence[Any]) -> None:
        """Record seed count and SMEM-length distribution for one strand."""
        self._seeds.inc(len(seeds))
        observe = self._seed_lengths.observe
        for seed in seeds:
            observe(seed.length)

    def observe_candidate(self) -> None:
        self._candidates.inc()

    def observe_extension(self, extension: Any) -> None:
        """Record one accepted extension (edit distance from its CIGAR)."""
        self._extensions.inc()
        cigar = extension.cigar
        if cigar is not None:
            self._edit_distances.observe(cigar.edit_count())

    def observe_batch(self, lane_count: int) -> None:
        """Record one extension dispatch (its lane count)."""
        self._batch_lanes.observe(float(lane_count))

    def observe_cascade(self, depth: int) -> None:
        """Record one candidate's cascade depth (stages passed)."""
        self._cascade_depths.observe(float(depth))

    def read_done(self, candidate_count: int) -> None:
        """Close out one read's accounting."""
        self._reads.inc()
        self._candidates_per_read.observe(candidate_count)

    # ----------------------------------------------------------- merging

    def snapshot(self) -> TelemetrySnapshot:
        """Picklable copy of all state, for shipping across processes."""
        return {
            "metrics": self.metrics.snapshot(),
            "events": self.tracer.snapshot_events(),
        }

    def merge_snapshot(self, snap: TelemetrySnapshot, pid: int = 0) -> None:
        """Fold a worker snapshot in; its spans land on timeline lane *pid*."""
        self.metrics.merge_snapshot(snap["metrics"])
        events: List[TraceEvent] = snap["events"]
        self.tracer.absorb(events, pid)


# ------------------------------------------------------- activation global

_ACTIVE: Optional[PipelineTelemetry] = None


def activate(telemetry: PipelineTelemetry) -> PipelineTelemetry:
    """Install *telemetry* as the process-wide active bundle."""
    global _ACTIVE
    _ACTIVE = telemetry
    return telemetry


def deactivate() -> None:
    """Clear the active bundle (drivers built afterwards are no-op)."""
    global _ACTIVE
    _ACTIVE = None


def active_telemetry() -> Optional[PipelineTelemetry]:
    """The active bundle, or ``None`` when telemetry is off (the default)."""
    return _ACTIVE


@contextmanager
def telemetry_session(
    telemetry: Optional[PipelineTelemetry] = None,
) -> Iterator[PipelineTelemetry]:
    """Activate a bundle for a ``with`` block, restoring the previous one."""
    previous = _ACTIVE
    bundle = telemetry if telemetry is not None else PipelineTelemetry()
    activate(bundle)
    try:
        yield bundle
    finally:
        if previous is None:
            deactivate()
        else:
            activate(previous)
