"""The lane-batched banded DP equals the scalar banded DP in every field."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.align import banded
from repro.align.banded import (
    banded_extension_align,
    batch_banded_extension_align,
)
from repro.align.scoring import BWA_MEM_SCHEME, EDIT_DISTANCE_SCHEME

# N is in the alphabet: the kernel must score any letter like str ==.
bases = st.text(alphabet="ACGTN", max_size=24)
lane = st.tuples(bases, bases, st.integers(0, 12))


def fields(result):
    alignment = result.alignment
    return (
        alignment.score,
        alignment.reference_start,
        alignment.reference_end,
        alignment.query_start,
        alignment.query_end,
        str(alignment.cigar),
        result.cells_computed,
    )


def assert_matches_scalar(references, queries, bands, scheme=BWA_MEM_SCHEME):
    batched = batch_banded_extension_align(references, queries, bands, scheme)
    assert len(batched) == len(references)
    for reference, query, band, result in zip(
        references, queries, bands, batched
    ):
        scalar = banded_extension_align(reference, query, band, scheme)
        assert fields(result) == fields(scalar), (reference, query, band)


@given(
    st.lists(lane, min_size=1, max_size=6),
    st.sampled_from([BWA_MEM_SCHEME, EDIT_DISTANCE_SCHEME]),
)
@settings(max_examples=150, deadline=None)
def test_ragged_batch_equals_scalar_per_lane(lanes, scheme):
    references, queries, bands = (list(column) for column in zip(*lanes))
    assert_matches_scalar(references, queries, bands, scheme)


def test_band_zero():
    # Band 0 allows only the main diagonal: no gaps, mismatches clip.
    assert_matches_scalar(
        ["ACGTACGT", "ACGAACGT", "AACGT"], ["ACGTACGT", "ACGTACGT", "ACGT"],
        [0, 0, 0],
    )


def test_one_lane():
    assert_matches_scalar(["ACGTTGCAACGT"], ["ACGATGCAACG"], [3])


def test_lanes_with_no_scoring_cell():
    # Empty window, empty read, and an all-mismatch lane keep the origin
    # as their best cell next to a lane that aligns.
    assert_matches_scalar(
        ["", "ACGTACGT", "AAAAAA", "ACGTTACGGT"],
        ["ACGT", "", "CCCCCC", "ACGTACGGT"],
        [4, 4, 2, 6],
    )


def test_window_shorter_than_read():
    assert_matches_scalar(
        ["ACGTAC", "ACG", "ACGTACGTAC"],
        ["ACGTACGTACGT", "ACGTA", "ACGTACGTACGTAA"],
        [2, 5, 1],
    )


def test_zero_gap_open():
    # gap_open = 0: an E or F run and a fresh gap from H tie in cost.
    assert_matches_scalar(
        ["ACGTTTACGGA", "AACCGGTT", "ACGT"],
        ["ACGTACGGA", "ACAACCGGTTT", "AACCGGTT"],
        [3, 4, 5],
        EDIT_DISTANCE_SCHEME,
    )


def test_batch_over_the_pointer_budget_runs_in_chunks(monkeypatch):
    # 7 lanes with a 13 bp window at band 3 need 14 * 7 = 98 pointer
    # bytes each; a 200 byte budget forces even chunks of two lanes.
    references = ["ACGTTGCAACGTA", "ACGTACGT", "TTTTACGTAC", "ACG",
                  "GATTACAGATTAC", "CCGGAAT", "ACGTTGCAAC"]
    queries = ["ACGATGCAACG", "ACGTCGT", "TTTACGTACC", "ACGTA",
               "GATACAGATTA", "CCGAAT", "ACGTGCAAC"]
    bands = [3, 2, 1, 3, 2, 0, 3]
    passes = []
    original = banded._banded_pass

    def counting_pass(*args):
        passes.append(len(args[0]))
        return original(*args)

    monkeypatch.setattr(banded, "POINTER_BUDGET", 200)
    monkeypatch.setattr(banded, "_banded_pass", counting_pass)
    assert_matches_scalar(references, queries, bands)
    assert passes == [2, 2, 2, 1]


def test_empty_batch():
    assert batch_banded_extension_align([], [], []) == []


def test_rejects_negative_band_and_ragged_arguments():
    with pytest.raises(ValueError, match="band must be non-negative"):
        batch_banded_extension_align(["AC"], ["AC"], [-1])
    with pytest.raises(ValueError, match="one of each per lane"):
        batch_banded_extension_align(["AC", "AC"], ["AC"], [1, 1])
