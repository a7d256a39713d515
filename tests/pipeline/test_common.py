"""Tests for repro.pipeline.common."""

import numpy
import pytest

from repro.align.cigar import Cigar
from repro.pipeline.common import (
    Candidate,
    CandidateTable,
    Extension,
    candidates_from_seeds,
    exact_match_cigar,
    fetch_window,
    select_best,
    strands,
    window_spans,
)
from repro.genome.reference import ReferenceGenome
from repro.seeding.accelerator import GlobalSeed
from repro.seeding.smem import SeedTable


def global_seed(offset, length, positions):
    return GlobalSeed(read_offset=offset, length=length, positions=tuple(positions))


class TestCandidates:
    def test_seed_predicts_window_start(self):
        candidates = candidates_from_seeds([global_seed(10, 20, [110])], reverse=False)
        assert candidates[0].window_start == 100

    def test_agreeing_seeds_merged(self):
        candidates = candidates_from_seeds(
            [global_seed(0, 20, [100]), global_seed(30, 15, [130])], reverse=False
        )
        assert len(candidates) == 1
        assert candidates[0].seed_length == 20  # longest supporter kept

    def test_negative_window_dropped(self):
        candidates = candidates_from_seeds([global_seed(50, 10, [5])], reverse=False)
        assert candidates == []

    def test_cap_prefers_long_seeds(self):
        seeds = [
            global_seed(0, 10, [100]),
            global_seed(0, 40, [500]),
            global_seed(0, 25, [900]),
        ]
        candidates = candidates_from_seeds(seeds, reverse=False, max_candidates=2)
        assert [c.seed_length for c in candidates] == [40, 25]

    def test_reverse_flag_propagates(self):
        candidates = candidates_from_seeds([global_seed(0, 10, [100])], reverse=True)
        assert candidates[0].reverse


class TestCandidateTable:
    """The per-dispatch table applies ``candidates_from_seeds`` per row."""

    STRANDS = [
        # Negative starts, a start supported twice, equal-length ties.
        [
            global_seed(50, 10, [5, 60, 300]),
            global_seed(0, 12, [10, 250]),
            global_seed(3, 12, [13, 90]),
        ],
        [
            global_seed(0, 10, [100]),
            global_seed(0, 40, [500]),
            global_seed(0, 25, [900, 40]),
        ],
        [],
        [
            global_seed(7, 9, [7, 8, 9, 1_000]),
            global_seed(2, 9, [3, 999]),
            global_seed(0, 30, [4]),
        ],
    ]

    @pytest.mark.parametrize("cap", [0, 1, 2, None])
    def test_matches_per_strand_candidates(self, cap):
        reads = ["R%d" % row for row in range(len(self.STRANDS))]
        reverse = numpy.array([row % 2 == 1 for row in range(len(reads))])
        searched = numpy.array([True, True, True, False])
        table = CandidateTable.from_seeds(
            SeedTable.from_lists(self.STRANDS), reads, reverse, searched, cap
        )
        want = [
            (reads[row], candidate)
            for row, seeds in enumerate(self.STRANDS)
            if searched[row]
            for candidate in candidates_from_seeds(seeds, bool(reverse[row]), cap)
        ]
        assert table.jobs() == want
        assert list(table) == want

    def test_from_jobs_round_trips(self):
        jobs = [("ACGT", Candidate(4, True, 9)), ("GG", Candidate(-2, False, 3))]
        table = CandidateTable.from_jobs(jobs)
        assert table.jobs() == jobs
        assert table[1] == jobs[1]
        assert table.take(numpy.array([1])).jobs() == jobs[1:]


class TestWindowSpans:
    def test_matches_fetch_window_at_both_genome_ends(self):
        reference = ReferenceGenome("ACGTTGCAAC" * 3)
        starts = numpy.array([-7, -2, 0, 5, 20, 25, 29, 30, 45])
        read_lengths = numpy.array([4, 6, 3, 8, 5, 9, 2, 4, 3])
        first, lengths = window_spans(starts, read_lengths, 2, len(reference))
        for start, read_length, begin, size in zip(
            starts.tolist(), read_lengths.tolist(), first.tolist(), lengths.tolist()
        ):
            window = fetch_window(reference, Candidate(start, False, 1), read_length, 2)
            assert reference.sequence[begin : begin + size] == window
            assert size == len(window)


class TestSelectBest:
    def _extension(self, score, position, reverse=False, query_end=10):
        return Extension(
            candidate=Candidate(position, reverse, 10),
            score=score,
            position=position,
            cigar=Cigar.from_ops([(query_end, "=")]),
            query_end=query_end,
        )

    def test_highest_score_wins(self):
        best = select_best("r", 10, [self._extension(5, 0), self._extension(9, 50)], 1)
        assert best.position == 50
        assert best.score == 9

    def test_min_score_filters(self):
        best = select_best("r", 10, [self._extension(5, 0)], min_score=6)
        assert best.is_unmapped
        assert best.mapping_quality == 0

    def test_tie_break_lowest_position_forward_first(self):
        best = select_best(
            "r",
            10,
            [self._extension(7, 300), self._extension(7, 100), self._extension(7, 200)],
            1,
        )
        assert best.position == 100
        assert best.secondary_count == 2

    def test_tie_lowers_mapping_quality(self):
        unique = select_best("r", 10, [self._extension(7, 1)], 1)
        tied = select_best("r", 10, [self._extension(7, 1), self._extension(7, 2)], 1)
        assert unique.mapping_quality > tied.mapping_quality

    def test_clip_appended_to_cigar(self):
        best = select_best("r", 15, [self._extension(8, 0, query_end=10)], 1)
        assert str(best.cigar).endswith("5S")

    def test_no_extensions(self):
        assert select_best("r", 10, [], 1).is_unmapped


class TestHelpers:
    def test_exact_match_cigar(self):
        assert str(exact_match_cigar(101)) == "101="

    def test_strands(self):
        pairs = strands("AACG")
        assert pairs[0] == ("AACG", False)
        assert pairs[1] == ("CGTT", True)
