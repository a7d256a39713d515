"""The regression gate: pass / fail / missing-baseline / fingerprint paths.

Everything runs against a ManualClock-driven fake history store; no
benchmark is executed, so the gate's decision logic is tested in
isolation with hand-built matrix envelopes.
"""

import copy

import pytest

from repro.perf.gate import (
    GATE_WALL_CLOCK,
    GATE_WORK_COUNT,
    evaluate_gate,
)
from repro.perf.history import HistoryStore
from repro.perf.schema import bench_envelope, compute_run_id
from repro.telemetry.clock import ManualClock


def make_matrix_result(
    *,
    candidates=100,
    extensions=40,
    reads_mapped=16,
    elapsed_s=1.0,
    jobs=1,
    backend="genax",
    extra_cell=None,
):
    cells = [{
        "backend": backend,
        "jobs": jobs,
        "profile": "illumina-small",
        "work": {
            "candidates_checked": candidates,
            "extensions": extensions,
            "reads_mapped": reads_mapped,
        },
        "wall": {"elapsed_s": elapsed_s, "reads_per_s": 16 / elapsed_s},
    }]
    if extra_cell is not None:
        cells.append(extra_cell)
    return bench_envelope(
        "perf_matrix",
        quick=True,
        workload={"profiles": {"illumina-small": {"reads": 16}}},
        payload={"cells": cells},
    )


def refresh_run_id(result):
    """Re-address a hand-mutated envelope (payload edits change the id)."""
    result["run_id"] = compute_run_id(result)
    return result


@pytest.fixture()
def store(tmp_path):
    return HistoryStore(tmp_path / "history", clock=ManualClock())


class TestPassPath:
    def test_identical_runs_pass(self, store):
        baseline = make_matrix_result()
        store.append(baseline)
        current = refresh_run_id(
            copy.deepcopy(make_matrix_result(elapsed_s=1.1))
        )
        report = evaluate_gate(current, store, mode=GATE_WORK_COUNT)
        assert report.passed
        assert report.outcome == "pass"
        assert report.baseline_run_id == baseline["run_id"]
        assert report.cells_compared == 1
        assert report.metrics_compared == 3
        assert report.findings == []

    def test_work_improvement_passes(self, store):
        store.append(make_matrix_result(candidates=100))
        current = make_matrix_result(candidates=50, elapsed_s=0.9)
        report = evaluate_gate(current, store, mode=GATE_WORK_COUNT)
        assert report.passed


class TestFailPath:
    def test_injected_2x_candidate_regression_fails_with_diagnostic(
        self, store
    ):
        # The acceptance-criteria scenario: double the candidate count,
        # the gate must fail naming the metric, the backend, and the
        # baseline run id.
        baseline = make_matrix_result(candidates=100)
        store.append(baseline)
        current = make_matrix_result(candidates=200, elapsed_s=1.2)
        report = evaluate_gate(current, store, mode=GATE_WORK_COUNT)
        assert not report.passed
        assert report.outcome == "fail"
        finding = next(
            f for f in report.findings if f.metric == "candidates_checked"
        )
        assert finding.backend == "genax"
        assert finding.baseline_run_id == baseline["run_id"]
        assert finding.current == 200
        assert finding.baseline == 100
        rendered = report.render()
        assert "candidates_checked" in rendered
        assert "genax" in rendered
        assert baseline["run_id"] in rendered
        assert "FAIL" in rendered

    def test_single_extra_unit_of_work_fails_at_default_tolerance(
        self, store
    ):
        # Work counts are deterministic: tolerance 1.0 means any
        # increase at all is a regression.
        store.append(make_matrix_result(extensions=40))
        current = make_matrix_result(extensions=41)
        report = evaluate_gate(current, store, mode=GATE_WORK_COUNT)
        assert not report.passed

    def test_lost_mapped_read_fails_even_though_count_decreased(self, store):
        store.append(make_matrix_result(reads_mapped=16))
        current = make_matrix_result(reads_mapped=15)
        report = evaluate_gate(current, store, mode=GATE_WORK_COUNT)
        assert not report.passed
        finding = report.findings[0]
        assert finding.metric == "reads_mapped"
        assert finding.direction == "decrease"
        assert "fell below" in finding.render()

    def test_tolerance_widens_the_limit(self, store):
        store.append(make_matrix_result(candidates=100))
        current = make_matrix_result(candidates=150)
        assert not evaluate_gate(
            current, store, mode=GATE_WORK_COUNT
        ).passed
        assert evaluate_gate(
            current, store, mode=GATE_WORK_COUNT, tolerance=1.6
        ).passed


class TestMissingBaseline:
    def test_empty_history_fails_closed(self, store):
        report = evaluate_gate(make_matrix_result(), store)
        assert report.outcome == "missing-baseline"
        assert not report.passed
        assert "no recorded baseline" in report.render()

    def test_allow_missing_downgrades_to_pass(self, store):
        report = evaluate_gate(
            make_matrix_result(), store, allow_missing=True
        )
        assert report.passed

    def test_different_workload_is_not_a_baseline(self, store):
        other = make_matrix_result()
        other_workload = bench_envelope(
            "perf_matrix",
            quick=False,
            workload={"profiles": {"repeat-rich": {"reads": 8}}},
            payload=other["payload"],
        )
        store.append(other_workload)
        report = evaluate_gate(make_matrix_result(), store)
        assert report.outcome == "missing-baseline"

    def test_own_recording_is_not_its_baseline(self, store):
        current = make_matrix_result()
        store.append(current)
        report = evaluate_gate(current, store, mode=GATE_WORK_COUNT)
        assert report.outcome == "missing-baseline"


class TestWallClockMode:
    def test_fingerprint_mismatch_outcome(self, store):
        baseline = make_matrix_result()
        mismatched = dict(copy.deepcopy(baseline))
        mismatched["machine_fingerprint"] = "f" * 16
        refresh_run_id(mismatched)
        store.append(mismatched)
        report = evaluate_gate(
            make_matrix_result(elapsed_s=1.0), store, mode=GATE_WALL_CLOCK
        )
        assert report.outcome == "fingerprint-mismatch"
        assert not report.passed
        assert "machine" in report.render()

    def test_within_tolerance_band_passes(self, store):
        store.append(make_matrix_result(elapsed_s=1.0))
        report = evaluate_gate(
            make_matrix_result(elapsed_s=1.2), store, mode=GATE_WALL_CLOCK
        )
        assert report.passed
        assert report.tolerance == 1.25

    def test_beyond_tolerance_band_fails(self, store):
        store.append(make_matrix_result(elapsed_s=1.0))
        report = evaluate_gate(
            make_matrix_result(elapsed_s=1.3), store, mode=GATE_WALL_CLOCK
        )
        assert not report.passed
        assert report.findings[0].metric == "elapsed_s"

    def test_work_count_ignores_machine_fingerprint(self, store):
        baseline = make_matrix_result()
        mismatched = dict(copy.deepcopy(baseline))
        mismatched["machine_fingerprint"] = "f" * 16
        refresh_run_id(mismatched)
        store.append(mismatched)
        report = evaluate_gate(
            make_matrix_result(elapsed_s=2.0), store, mode=GATE_WORK_COUNT
        )
        assert report.passed


class TestShapeChanges:
    def test_new_cell_is_noted_not_failed(self, store):
        store.append(make_matrix_result())
        current = make_matrix_result(extra_cell={
            "backend": "bitvector",
            "jobs": 1,
            "profile": "illumina-small",
            "work": {"candidates_checked": 5},
            "wall": {"elapsed_s": 0.1, "reads_per_s": 160.0},
        })
        report = evaluate_gate(current, store, mode=GATE_WORK_COUNT)
        assert report.passed
        assert any("no baseline" in note for note in report.notes)

    def test_missing_cell_is_noted(self, store):
        store.append(make_matrix_result(extra_cell={
            "backend": "bitvector",
            "jobs": 1,
            "profile": "illumina-small",
            "work": {"candidates_checked": 5},
            "wall": {"elapsed_s": 0.1, "reads_per_s": 160.0},
        }))
        report = evaluate_gate(make_matrix_result(), store)
        assert report.passed
        assert any(
            "missing from the current run" in note for note in report.notes
        )

    def test_missing_metric_is_noted(self, store):
        store.append(make_matrix_result())
        current = make_matrix_result()
        del current["payload"]["cells"][0]["work"]["extensions"]
        report = evaluate_gate(refresh_run_id(current), store)
        assert report.passed
        assert report.metrics_compared == 2
        assert any(
            "baseline metric extensions" in note
            and "missing from the current run" in note
            for note in report.notes
        )

    def test_cell_without_wall_time_is_noted_not_passed_as_zero(self, store):
        store.append(make_matrix_result(elapsed_s=1.0))
        current = make_matrix_result()
        del current["payload"]["cells"][0]["wall"]
        report = evaluate_gate(
            refresh_run_id(current), store, mode=GATE_WALL_CLOCK
        )
        assert report.metrics_compared == 0
        assert report.findings == []
        assert any(
            "baseline metric elapsed_s" in note
            and "missing from the current run" in note
            for note in report.notes
        )


class TestValidation:
    def test_unknown_mode_rejected(self, store):
        with pytest.raises(ValueError, match="unknown gate mode"):
            evaluate_gate(make_matrix_result(), store, mode="vibes")

    def test_non_matrix_result_rejected(self, store):
        other = bench_envelope(
            "bench_filters", quick=True, workload={}, payload={}
        )
        with pytest.raises(ValueError, match="perf_matrix"):
            evaluate_gate(other, store)
