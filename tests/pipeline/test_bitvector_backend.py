"""Tests for the bitvector backend and the driver's batch dispatch path.

Two contracts:

* a cross-read ``align_batch`` dispatch gives the mappings *and* the
  ``AlignmentStats`` of one-read dispatches (an ``align_batch`` call per
  read), dirty reads included (the dedupe/lane bookkeeping lives in the engine-level
  ``BitvectorKernelStats``, never in the shared counter surface);
* the window/lane dedupe counters prove their rates on a crafted
  duplicate-heavy batch.

The kernels themselves are pinned against their scalar references by
difftest pairs: ``bitvector-semiglobal-vs-myers`` (the windowed Myers
kernel, fed one 2-bit code array plus window spans, never packed
strings), ``bitvector-batch-vs-banded`` (the ``myers`` stage's verdict,
then the batched banded traceback) and ``banded-batch-vs-scalar``.  The
backend's mappings and stats are pinned by the bitvector golden.
"""

import dataclasses

import pytest

from repro.align.records import AlignmentStats
from repro.pipeline.bitvector import (
    BatchedBitvectorEngine,
    BitvectorAligner,
    BitvectorConfig,
)
from repro.pipeline.common import Candidate
from repro.telemetry import telemetry_session

from tests.pipeline.golden_fixtures import EDIT_BOUND


def stats_dict(stats: AlignmentStats):
    return dataclasses.asdict(stats)


@pytest.fixture(scope="module")
def batch(simulated_reads):
    return [(s.name, s.sequence) for s in simulated_reads]


class TestKernelIdentity:
    """Cross-read dispatch vs one read per dispatch: identical output."""

    def test_n_read_in_a_batch_matches_scalar(self, small_reference, batch):
        # An N read base matches no equality plane of the myers stage's
        # kernel, so it scores as a mismatch instead of aborting the batch.
        # One read per dispatch is the reference the mixed batch must
        # reproduce record for record and counter for counter.
        read = small_reference.sequence[5000:5101]
        mixed = batch[:6] + [("n_read", read[:50] + "N" + read[51:])] + batch[6:]
        per_read = BitvectorAligner(
            small_reference, BitvectorConfig(edit_bound=EDIT_BOUND)
        )
        batched = BitvectorAligner(
            small_reference, BitvectorConfig(edit_bound=EDIT_BOUND)
        )
        batched_mapped = batched.align_batch(mixed)
        per_read_mapped = [per_read.align_batch([read])[0] for read in mixed]
        assert batched_mapped == per_read_mapped
        assert stats_dict(batched.stats) == stats_dict(per_read.stats)
        assert batched.kernel_stats.batches == 1
        n_record = batched_mapped[6]
        assert (n_record.position, str(n_record.cigar)) == (5000, "50=1X50=")

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
        # Shared traceback still charges every job's counters identically;
        # the verdict counters belong to the cascade, not the engine.
        assert stats.extensions == 4
        assert stats.candidates_survived == stats.candidates_filtered == 0


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
