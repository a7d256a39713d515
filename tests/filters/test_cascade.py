"""Unit tests for the FilterCascade composition semantics.

These tests use stub stages so every property of the cascade itself —
ordering, short-circuiting, once-per-candidate charging, per-stage
cycle attribution, the one-``admit_batch``-per-stage dispatch — is pinned
through the cascade's one entry point, ``admit_batch_depths``,
independently of any concrete filter kernel (the ``myers`` stage gets
its own admissibility tests in test_stage_bounds.py).
"""

import dataclasses

import pytest

from repro.align.records import AlignmentStats
from repro.filters import FilterCascade, FilterStageStats
from repro.pipeline.common import Candidate, CandidateTable

CANDIDATE = Candidate(window_start=0, reverse=False, seed_length=7)


class Stub:
    """A stage that admits a read iff the verdict function says so."""

    def __init__(self, name, verdict, cycles=3):
        self.name = name
        self._verdict = verdict
        self._cycles = cycles
        self.calls = []
        self.batch_calls = 0

    def admit_batch(self, jobs, stats):
        self.batch_calls += 1
        verdicts = []
        for oriented, __ in jobs:
            self.calls.append(oriented)
            stats.prefilter_cycles += self._cycles
            verdicts.append(self._verdict(oriented))
        return verdicts


class BrokenStub(Stub):
    """A stage violating the one-verdict-per-job contract."""

    def admit_batch(self, jobs, stats):
        return []


class ScalarOnlyStub:
    """A stage with only the removed per-candidate ``admit`` hook."""

    name = "scalar-only"

    def admit(self, oriented, candidate, stats):
        return True


def jobs_for(reads):
    return CandidateTable.from_jobs([(read, CANDIDATE) for read in reads])


class TestConstruction:
    def test_empty_cascade_rejected(self):
        with pytest.raises(ValueError):
            FilterCascade(())

    def test_stage_names_follow_stage_order(self):
        cascade = FilterCascade(
            [Stub("first", bool), Stub("second", bool)]
        )
        assert cascade.stage_names == ("first", "second")
        assert len(cascade) == 2

    def test_stage_without_admit_batch_rejected_at_construction(self):
        with pytest.raises(TypeError, match="scalar-only"):
            FilterCascade([Stub("fine", bool), ScalarOnlyStub()])

    def test_one_admit_batch_call_per_stage_per_dispatch(self):
        first, second = Stub("a", bool), Stub("b", bool)
        cascade = FilterCascade([first, second])
        cascade.admit_batch_depths(jobs_for(["AC", "GT"]), AlignmentStats())
        assert (first.batch_calls, second.batch_calls) == (1, 1)
        assert first.calls == second.calls == ["AC", "GT"]

    def test_report_pairs_names_with_counters(self):
        cascade = FilterCascade([Stub("only", bool)])
        rows = cascade.report()
        assert [name for name, _ in rows] == ["only"]
        assert all(isinstance(s, FilterStageStats) for _, s in rows)


class TestScalarPath:
    """Per-candidate cascade semantics through the one entry point."""

    def test_depth_counts_stages_passed(self):
        cascade = FilterCascade(
            [Stub("a", lambda r: True),
             Stub("b", lambda r: r != "TT"),
             Stub("c", lambda r: True)]
        )
        depths = cascade.admit_batch_depths(
            jobs_for(["AA", "TT"]), AlignmentStats()
        )
        assert depths == [3, 1]

    def test_rejection_short_circuits_later_stages(self):
        first = Stub("a", lambda r: r != "AC")
        second = Stub("b", lambda r: True)
        cascade = FilterCascade([first, second])
        depths = cascade.admit_batch_depths(
            jobs_for(["AC", "GT"]), AlignmentStats()
        )
        assert depths == [0, 2]
        assert first.calls == ["AC", "GT"]
        assert second.calls == ["GT"]

    def test_shared_stats_charged_exactly_once_per_candidate(self):
        cascade = FilterCascade(
            [Stub("a", lambda r: True),
             Stub("b", lambda r: r != "TT")]
        )
        stats = AlignmentStats()
        cascade.admit_batch_depths(jobs_for(["AA", "TT"]), stats)
        assert stats.candidates_survived == 1
        assert stats.candidates_filtered == 1

    def test_cycles_attributed_to_the_charging_stage(self):
        cascade = FilterCascade(
            [Stub("cheap", lambda r: True, cycles=2),
             Stub("dear", lambda r: r != "AC", cycles=11)]
        )
        stats = AlignmentStats()
        cascade.admit_batch_depths(jobs_for(["AC", "GT"]), stats)
        by_name = dict(cascade.report())
        assert by_name["cheap"].cycles == 4
        assert by_name["dear"].cycles == 22
        assert stats.prefilter_cycles == 26

    def test_stage_stats_derived_fractions(self):
        stage = FilterStageStats(checked=10, rejected=6)
        assert stage.survived == 4
        assert stage.reject_fraction == pytest.approx(0.6)
        assert FilterStageStats().reject_fraction == 0.0


class TestBatchPath:
    READS = ["AAAA", "TTTT", "ACGT", "GGGG", "TTAA"]

    @staticmethod
    def build():
        return FilterCascade(
            [Stub("a", lambda r: "G" not in r),
             Stub("b", lambda r: r != "TTTT"),
             Stub("c", lambda r: r[0] != "T")]
        )

    def test_batch_depths_match_scalar_path(self):
        # Hand-evaluated per candidate, stage by stage, for READS:
        #   AAAA passes a, b, c -> 3     TTTT passes a, fails b -> 1
        #   ACGT, GGGG fail a -> 0       TTAA passes a, b, fails c -> 2
        # Stage a sees 5 lanes, b sees 3, c sees 2; each call costs 3.
        cascade = self.build()
        stats = AlignmentStats()
        depths = cascade.admit_batch_depths(jobs_for(self.READS), stats)
        assert depths == [3, 1, 0, 0, 2]
        assert stats.candidates_survived == 1
        assert stats.candidates_filtered == 4
        assert stats.prefilter_cycles == 30
        assert [dataclasses.astuple(row) for _, row in cascade.report()] == [
            # (checked, rejected, cycles)
            (5, 2, 15),
            (3, 1, 9),
            (2, 1, 6),
        ]

    def test_later_stage_sees_only_survivors(self):
        first = Stub("a", lambda r: "G" not in r)
        second = Stub("b", bool)
        cascade = FilterCascade([first, second])
        cascade.admit_batch_depths(jobs_for(self.READS), AlignmentStats())
        assert second.calls == [r for r in self.READS if "G" not in r]

    def test_empty_batch_is_a_no_op(self):
        cascade = self.build()
        stats = AlignmentStats()
        assert cascade.admit_batch_depths(jobs_for([]), stats) == []
        assert stats.candidates_filtered == 0
        assert stats.candidates_survived == 0

    def test_wrong_verdict_count_raises(self):
        cascade = FilterCascade([BrokenStub("broken", bool)])
        with pytest.raises(ValueError, match="broken"):
            cascade.admit_batch_depths(jobs_for(self.READS), AlignmentStats())
