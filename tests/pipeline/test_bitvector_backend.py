"""Tests for the bitvector backend and the driver's batch dispatch path.

Two contracts:

* the batched NumPy kernel and the scalar reference kernel produce
  bit-identical mappings *and* bit-identical ``AlignmentStats`` (the
  dedupe/lane bookkeeping lives in the engine-level
  ``BitvectorKernelStats``, never in the shared counter surface);
* the window/lane dedupe counters prove their rates on a crafted
  duplicate-heavy batch.
"""

import dataclasses

import pytest

from repro.align.records import AlignmentStats
from repro.pipeline.bitvector import (
    BatchedBitvectorEngine,
    BitvectorAligner,
    BitvectorConfig,
    ScalarBitvectorEngine,
)
from repro.pipeline.common import Candidate
from repro.telemetry import telemetry_session

from tests.pipeline.golden_fixtures import EDIT_BOUND, mapping_rows


def stats_dict(stats: AlignmentStats):
    return dataclasses.asdict(stats)


@pytest.fixture(scope="module")
def batch(simulated_reads):
    return [(s.name, s.sequence) for s in simulated_reads]


class TestKernelIdentity:
    """Scalar reference kernel vs batched NumPy lanes: bit-identical."""

    def test_batched_equals_scalar(self, small_reference, batch):
        scalar = BitvectorAligner(
            small_reference,
            BitvectorConfig(edit_bound=EDIT_BOUND, kernel="scalar"),
        )
        batched = BitvectorAligner(
            small_reference,
            BitvectorConfig(edit_bound=EDIT_BOUND, kernel="batched"),
        )
        scalar_mapped = scalar.align_batch(batch)
        batched_mapped = batched.align_batch(batch)
        assert mapping_rows(batched_mapped) == mapping_rows(scalar_mapped)
        assert stats_dict(batched.stats) == stats_dict(scalar.stats)

    def test_unknown_kernel_rejected(self, small_reference):
        with pytest.raises(ValueError, match="unknown bitvector kernel"):
            BitvectorAligner(
                small_reference, BitvectorConfig(kernel="simd")
            )

    def test_kernel_stats_surface(self, small_reference, batch):
        aligner = BitvectorAligner(
            small_reference, BitvectorConfig(edit_bound=EDIT_BOUND)
        )
        aligner.align_batch(batch)
        kstats = aligner.kernel_stats
        assert kstats.batches >= 1
        assert kstats.lanes == aligner.stats.extensions
        assert kstats.kernel_lanes <= kstats.lanes
        assert kstats.windows_fetched <= kstats.windows_requested
        assert 0.0 <= kstats.window_dedupe_rate <= 1.0

    def test_kernel_stats_never_leak_into_alignment_stats(self):
        field_names = {f.name for f in dataclasses.fields(AlignmentStats)}
        assert not field_names & {"batches", "lanes", "windows_requested"}


class TestWindowDedupe:
    """The dedupe counters on a crafted duplicate-heavy extend_batch."""

    def test_duplicate_jobs_share_windows_and_lanes(self, small_reference):
        engine = BatchedBitvectorEngine(
            small_reference, EDIT_BOUND, BitvectorConfig().scheme
        )
        oriented = small_reference.fetch(500, 601)
        candidate = Candidate(window_start=500, reverse=False, seed_length=40)
        stats = AlignmentStats()
        results = engine.extend_batch([(oriented, candidate)] * 4, stats)
        assert len(results) == 4
        assert all(r is not None for r in results)
        kstats = engine.kernel_stats
        assert kstats.windows_requested == 4
        assert kstats.windows_fetched == 1
        assert kstats.window_dedupe_rate == pytest.approx(0.75)
        assert kstats.lanes == 4
        assert kstats.kernel_lanes == 1  # one unique (pattern, window) lane
        # Shared traceback still charges every job's counters identically.
        assert stats.extensions == 4
        assert stats.candidates_survived == 4

    def test_scalar_engine_counts_every_fetch(self, small_reference):
        engine = ScalarBitvectorEngine(
            small_reference, EDIT_BOUND, BitvectorConfig().scheme
        )
        oriented = small_reference.fetch(500, 601)
        candidate = Candidate(window_start=500, reverse=False, seed_length=40)
        stats = AlignmentStats()
        for _ in range(3):
            assert engine.extend(oriented, candidate, stats) is not None
        kstats = engine.kernel_stats
        assert kstats.windows_requested == 3
        assert kstats.windows_fetched == 3
        assert kstats.window_dedupe_rate == 0.0


class TestBatchTelemetry:
    def test_batch_histogram_and_stage_span(self, small_reference, batch):
        with telemetry_session() as telemetry:
            aligner = BitvectorAligner(
                small_reference, BitvectorConfig(edit_bound=EDIT_BOUND)
            )
            aligner.align_batch(batch)
        lanes = telemetry.metrics.get("pipeline_batch_lanes")
        assert lanes.count >= 1
        assert lanes.total == aligner.kernel_stats.lanes
        stage_names = {name for __, name, __ts, __pid in telemetry.tracer.events}
        assert "extend_batch" in stage_names
