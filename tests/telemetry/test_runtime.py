"""The activation global, the session context, and the pipeline bundle."""

import pytest

from repro.telemetry.clock import ManualClock
from repro.telemetry.runtime import (
    STAGES,
    PipelineTelemetry,
    activate,
    active_telemetry,
    deactivate,
    telemetry_session,
)


@pytest.fixture(autouse=True)
def clean_global():
    deactivate()
    yield
    deactivate()


class TestActivation:
    def test_off_by_default(self):
        assert active_telemetry() is None

    def test_activate_and_deactivate(self):
        bundle = PipelineTelemetry(clock=ManualClock())
        assert activate(bundle) is bundle
        assert active_telemetry() is bundle
        deactivate()
        assert active_telemetry() is None

    def test_session_restores_previous_bundle(self):
        outer = activate(PipelineTelemetry(clock=ManualClock()))
        with telemetry_session() as inner:
            assert active_telemetry() is inner
            assert inner is not outer
        assert active_telemetry() is outer

    def test_session_restores_none(self):
        with telemetry_session():
            assert active_telemetry() is not None
        assert active_telemetry() is None

    def test_session_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with telemetry_session():
                raise RuntimeError("boom")
        assert active_telemetry() is None

    def test_session_accepts_explicit_bundle(self):
        bundle = PipelineTelemetry(clock=ManualClock())
        with telemetry_session(bundle) as active:
            assert active is bundle


class _FakeSeed:
    def __init__(self, length):
        self.length = length


class _FakeCigar:
    def __init__(self, edits):
        self._edits = edits

    def edit_count(self):
        return self._edits


class _FakeExtension:
    def __init__(self, edits=None):
        self.cigar = None if edits is None else _FakeCigar(edits)


class TestPipelineTelemetry:
    def test_stage_histograms_precreated_for_all_stages(self):
        telemetry = PipelineTelemetry(clock=ManualClock())
        for stage in STAGES:
            assert f"pipeline_stage_seconds_{stage}" in telemetry.metrics

    def test_stage_end_feeds_stage_histogram(self):
        clock = ManualClock()
        telemetry = PipelineTelemetry(clock=clock)
        telemetry.stage_begin("extend_batch")
        clock.advance(0.5)
        assert telemetry.stage_end("extend_batch") == 0.5
        hist = telemetry.metrics.get("pipeline_stage_seconds_extend_batch")
        assert hist.count == 1
        assert hist.total == 0.5

    def test_non_stage_span_does_not_feed_histograms(self):
        clock = ManualClock()
        telemetry = PipelineTelemetry(clock=clock)
        telemetry.stage_begin("align_run")
        clock.advance(1.0)
        telemetry.stage_end("align_run")
        for stage in STAGES:
            assert telemetry.metrics.get(
                f"pipeline_stage_seconds_{stage}"
            ).count == 0

    def test_observe_seeds_counts_and_lengths(self):
        telemetry = PipelineTelemetry(clock=ManualClock())
        telemetry.observe_seeds([_FakeSeed(20), _FakeSeed(101)])
        assert telemetry.metrics.get("pipeline_seeds_total").value == 2
        assert telemetry.metrics.get("pipeline_smem_length").count == 2

    def test_observe_extension_reads_cigar(self):
        telemetry = PipelineTelemetry(clock=ManualClock())
        telemetry.observe_extension(_FakeExtension(edits=3))
        telemetry.observe_extension(_FakeExtension(edits=None))
        assert telemetry.metrics.get("pipeline_extensions_total").value == 2
        # The cigar-less extension contributes no distance observation.
        assert telemetry.metrics.get("pipeline_edit_distance").count == 1

    def test_read_done_feeds_candidate_histogram(self):
        telemetry = PipelineTelemetry(clock=ManualClock())
        telemetry.observe_candidate()
        telemetry.read_done(candidate_count=1)
        assert telemetry.metrics.get("pipeline_reads_total").value == 1
        assert telemetry.metrics.get("pipeline_candidates_per_read").count == 1

    def test_snapshot_merge_roundtrip_with_pid_lanes(self):
        clock = ManualClock()
        worker = PipelineTelemetry(clock=clock)
        worker.stage_begin("seed")
        clock.advance(0.25)
        worker.stage_end("seed")
        worker.read_done(0)

        parent = PipelineTelemetry(clock=ManualClock())
        parent.merge_snapshot(worker.snapshot(), pid=4)
        assert parent.metrics.get("pipeline_reads_total").value == 1
        assert parent.metrics.get("pipeline_stage_seconds_seed").count == 1
        assert [e[3] for e in parent.tracer.events] == [4, 4]
