"""Hardware-counter rollup: one report for a whole pipeline run.

A real accelerator exposes performance counters; this module aggregates
every statistic the GenAx simulator tracks (pipeline, seeding, SillaX
lanes) into a single structured report with a readable rendering — what
`quickstart.py` prints and what operations dashboards would scrape.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Optional, Protocol

from repro.align.records import AlignmentStats
from repro.filters import FilterCascade
from repro.pipeline.bitvector import BitvectorKernelStats
from repro.pipeline.pairs import PairStats
from repro.seeding.accelerator import SeedingStats
from repro.sillax.lane import LaneStats
from repro.telemetry.metrics import MetricRegistry


class CounterSource(Protocol):
    """Any aligner the counter rollup can snapshot.

    Satisfied by :class:`repro.pipeline.genax.GenAxAligner`, the
    shard-parallel :class:`repro.parallel.engine.ParallelAligner`, and
    every backend registered in :mod:`repro.pipeline.registry` — the
    rollup never cares which driver produced the counters.  Only the
    universal ``stats`` surface is required; backends that model the
    hardware additionally expose ``lane_stats`` / ``seeding_stats``
    properties, which :func:`collect_counters` reads dynamically and
    degrades to zeros (with a warning) when absent.
    """

    stats: AlignmentStats


@dataclass(frozen=True)
class GenAxCounters:
    """A snapshot of every counter after a run."""

    reads_total: int
    reads_mapped: int
    reads_exact: int
    reads_unmapped: int
    extensions: int
    sillax_cycles: int
    sillax_cycles_per_extension: float
    rerun_events: int
    rerun_fraction: float
    index_lookups: int
    intersection_lookups: int
    seeding_cycles: int
    table_bytes_streamed: int
    candidates_filtered: int = 0
    candidates_survived: int = 0
    prefilter_cycles: int = 0

    @property
    def prefilter_reject_fraction(self) -> float:
        checked = self.candidates_filtered + self.candidates_survived
        if not checked:
            return 0.0
        return self.candidates_filtered / checked

    @property
    def mapped_fraction(self) -> float:
        if not self.reads_total:
            return 0.0
        return self.reads_mapped / self.reads_total

    @property
    def exact_fraction(self) -> float:
        if not self.reads_total:
            return 0.0
        return self.reads_exact / self.reads_total

    def as_dict(self) -> Dict[str, float]:
        return {
            "reads_total": self.reads_total,
            "reads_mapped": self.reads_mapped,
            "reads_exact": self.reads_exact,
            "reads_unmapped": self.reads_unmapped,
            "extensions": self.extensions,
            "sillax_cycles": self.sillax_cycles,
            "sillax_cycles_per_extension": self.sillax_cycles_per_extension,
            "rerun_events": self.rerun_events,
            "rerun_fraction": self.rerun_fraction,
            "index_lookups": self.index_lookups,
            "intersection_lookups": self.intersection_lookups,
            "seeding_cycles": self.seeding_cycles,
            "table_bytes_streamed": self.table_bytes_streamed,
            "candidates_filtered": self.candidates_filtered,
            "candidates_survived": self.candidates_survived,
            "prefilter_cycles": self.prefilter_cycles,
        }

    def render(self) -> str:
        """Human-readable counter block."""
        lines = [
            "GenAx counters",
            f"  reads: {self.reads_total} total, {self.reads_mapped} mapped "
            f"({self.mapped_fraction:.0%}), {self.reads_exact} exact "
            f"({self.exact_fraction:.0%})",
            f"  seed extension: {self.extensions} extensions, "
            f"{self.sillax_cycles_per_extension:.0f} cycles each, "
            f"{self.rerun_fraction:.1%} re-executed",
            f"  seeding: {self.index_lookups} index lookups, "
            f"{self.intersection_lookups} intersection lookups, "
            f"{self.seeding_cycles} cycles",
            f"  memory: {self.table_bytes_streamed:,} table bytes streamed",
        ]
        if self.candidates_filtered or self.candidates_survived:
            lines.insert(
                3,
                f"  prefilter: {self.candidates_filtered} rejected / "
                f"{self.candidates_filtered + self.candidates_survived} checked "
                f"({self.prefilter_reject_fraction:.0%}), "
                f"{self.prefilter_cycles} cycles",
            )
        return "\n".join(lines)


def collect_counters(aligner: CounterSource) -> GenAxCounters:
    """Snapshot an aligner's counters.

    Backends that do not model the SillaX lanes or the seeding
    accelerator (pure-software backends, the assembly facade) simply
    lack ``lane_stats`` / ``seeding_stats``; those counter groups
    degrade to zeros with a :class:`RuntimeWarning` instead of an
    ``AttributeError`` — a counter report must never take the run down.
    ``extensions`` is not one of them: it comes from the shared
    ``stats``, which every backend's extension engine charges once per
    job (on genax it equals the SillaX lanes' own count).
    """
    lane = getattr(aligner, "lane_stats", None)
    if lane is None:
        warnings.warn(
            f"{type(aligner).__name__} exposes no lane_stats; SillaX "
            "cycle and re-run counters report as zero",
            RuntimeWarning,
            stacklevel=2,
        )
        lane = LaneStats()
    seeding = getattr(aligner, "seeding_stats", None)
    if seeding is None:
        warnings.warn(
            f"{type(aligner).__name__} exposes no seeding_stats; seeding "
            "accelerator counters report as zero",
            RuntimeWarning,
            stacklevel=2,
        )
        seeding = SeedingStats()
    return GenAxCounters(
        reads_total=aligner.stats.reads_total,
        reads_mapped=aligner.stats.reads_mapped,
        reads_exact=aligner.stats.reads_exact,
        reads_unmapped=aligner.stats.reads_unmapped,
        extensions=aligner.stats.extensions,
        sillax_cycles=lane.cycles,
        sillax_cycles_per_extension=lane.cycles_per_extension,
        rerun_events=lane.rerun_events,
        rerun_fraction=lane.rerun_fraction,
        index_lookups=seeding.finder.index_lookups,
        intersection_lookups=seeding.intersections.total_lookups,
        seeding_cycles=seeding.cycles,
        table_bytes_streamed=seeding.table_bytes_streamed,
        candidates_filtered=aligner.stats.candidates_filtered,
        candidates_survived=aligner.stats.candidates_survived,
        prefilter_cycles=aligner.stats.prefilter_cycles,
    )


def publish_counters(
    registry: MetricRegistry, counters: GenAxCounters, backend: str
) -> None:
    """Publish a counter snapshot into a telemetry metric registry.

    This is the bridge between the simulator's ground-truth counters and
    the observability surface: integer totals become Prometheus counters,
    derived ratios become gauges, all prefixed ``<backend>_``.  Called
    once per run (after mapping finishes), so the exported metrics carry
    the backend's hardware-model counters alongside the pipeline's own
    stage metrics.
    """
    for name, value in sorted(counters.as_dict().items()):
        metric_name = f"{backend}_{name}"
        if isinstance(value, int):
            registry.counter(
                metric_name, f"{backend} hardware counter {name}"
            ).inc(value)
        else:
            registry.gauge(
                metric_name, f"{backend} derived counter {name}"
            ).set_max(float(value))


def publish_cascade(
    registry: MetricRegistry,
    cascade: Optional[FilterCascade],
    backend: str,
) -> None:
    """Publish a filter cascade's per-stage counters into a registry.

    One counter per (stage, field): ``<backend>_filter_<stage>_checked``
    / ``_rejected`` / ``_cycles``, plus a ``_reject_fraction`` gauge per
    stage — the observability surface for per-stage reject rates.  No-op when the
    backend runs without a cascade (or, shard-parallel, when the
    per-stage breakdown died with the worker processes).
    """
    if cascade is None:
        return
    for stage_name, stage in cascade.report():
        prefix = f"{backend}_filter_{stage_name}"
        fields = (
            ("checked", stage.checked, "candidates this stage examined"),
            ("rejected", stage.rejected, "candidates this stage vetoed"),
            ("cycles", stage.cycles, "modelled filter cycles charged"),
        )
        for field, value, help_text in fields:
            registry.counter(
                f"{prefix}_{field}", f"{stage_name} stage: {help_text}"
            ).inc(value)
        registry.gauge(
            f"{prefix}_reject_fraction",
            f"{stage_name} stage: fraction of checked candidates vetoed",
        ).set_max(stage.reject_fraction)


def publish_kernel(
    registry: MetricRegistry,
    kernel: Optional[BitvectorKernelStats],
    backend: str,
) -> None:
    """Publish batch-kernel dedupe counters into a registry.

    One counter per field — ``<backend>_kernel_lanes`` vs.
    ``_kernel_lanes_scored`` is the in-batch deduplication story, and
    ``_windows_requested`` vs. ``_windows_fetched`` is the window-fetch
    dedupe — plus a ``_window_dedupe_rate`` gauge.  No-op for backends
    without a batch kernel.
    """
    if kernel is None:
        return
    prefix = f"{backend}_kernel"
    fields = (
        ("batches", kernel.batches, "extend_batch dispatches"),
        ("lanes", kernel.lanes, "(read, window) verification jobs received"),
        (
            "lanes_scored",
            kernel.kernel_lanes,
            "lanes actually scored after in-batch deduplication",
        ),
        (
            "windows_requested",
            kernel.windows_requested,
            "window fetches the lanes implied",
        ),
        (
            "windows_fetched",
            kernel.windows_fetched,
            "unique windows fetched and encoded",
        ),
    )
    for field, value, help_text in fields:
        registry.counter(
            f"{prefix}_{field}", f"{backend} batch kernel: {help_text}"
        ).inc(value)
    registry.gauge(
        f"{prefix}_window_dedupe_rate",
        f"{backend} batch kernel: fraction of window fetches deduplicated",
    ).set_max(kernel.window_dedupe_rate)


def publish_pairs(
    registry: MetricRegistry,
    pairs: Optional["PairStats"],
    backend: str,
) -> None:
    """Publish paired-end rescue counters into a registry.

    One counter per field — ``<backend>_pairs_rescue_attempts`` vs.
    ``_pairs_rescued`` is the insert-window rescue hit rate — plus a
    ``_pairs_proper_fraction`` gauge.  No-op for single-end runs.
    """
    if pairs is None:
        return
    prefix = f"{backend}_pairs"
    fields = (
        ("total", pairs.pairs_total, "mate pairs processed"),
        ("both_mapped", pairs.both_mapped, "pairs with both ends mapped"),
        (
            "rescue_attempts",
            pairs.rescue_attempts,
            "insert-window rescue searches launched",
        ),
        ("rescued", pairs.rescued, "rescues that produced a mapping"),
        (
            "proper",
            pairs.proper_pairs,
            "pairs FR-oriented within the insert window",
        ),
    )
    for field, value, help_text in fields:
        registry.counter(
            f"{prefix}_{field}", f"{backend} paired-end: {help_text}"
        ).inc(value)
    proper_fraction = (
        pairs.proper_pairs / pairs.pairs_total if pairs.pairs_total else 0.0
    )
    registry.gauge(
        f"{prefix}_proper_fraction",
        f"{backend} paired-end: fraction of pairs mapped proper",
    ).set_max(proper_fraction)
