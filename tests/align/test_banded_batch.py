"""The lane-batched banded DP equals the scalar banded DP in every field."""

import random

import numpy as np
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


def test_lanes_ending_in_different_row_blocks(monkeypatch):
    # Band 2 gives 7 padded columns per lane.  With room for four rows of
    # four lanes, rows 1-4 form the first block (the 4 bp window ends
    # exactly on its last row), rows 5-9 the second (three lanes; the
    # 6 and 8 bp windows end inside it) and rows 10-13 the last.
    monkeypatch.setattr(
        banded, "_BLOCK_BYTES", 4 * 4 * 7 * banded._BLOCK_CELL_BYTES
    )
    assert_matches_scalar(
        ["ACGTTGCAACGTA", "ACGTACGT", "ACGT", "TTACGA"],
        ["ACGATGCAACGTA", "ACGTCGT", "ACGTT", "TTACGAC"],
        [2, 2, 2, 2],
    )


def _random_dna(rng, length):
    return "".join(rng.choice("ACGT") for _ in range(length))


def _mutated(rng, sequence, rate):
    out = []
    for base in sequence:
        roll = rng.random()
        if roll < rate / 3:
            continue  # deletion
        if roll < 2 * rate / 3:
            out.append(rng.choice("ACGT"))  # insertion before the base
        elif roll < rate:
            base = rng.choice("ACGT")  # substitution
        out.append(base)
    return "".join(out)


def test_band_zero_beside_a_long_read_band():
    rng = random.Random(5)
    window = _random_dna(rng, 320)
    read = _mutated(rng, window[:300], 0.1)
    assert_matches_scalar(
        [window, window[:120], window],
        [read, read[:110], window[:300]],
        [125, 0, 0],
    )


def test_empty_window_and_empty_read_beside_a_long_lane():
    rng = random.Random(7)
    window = _random_dna(rng, 2040)
    read = _mutated(rng, window[:2000], 0.1)
    assert_matches_scalar(
        [window, "", window[:50]],
        [read, read[:40], ""],
        [20, 20, 20],
    )


def test_n_bases_compare_like_any_letter():
    assert_matches_scalar(
        ["ACGNNACGTA", "NNNN", "ACGTACGT"],
        ["ACGNNACGTA", "NNNN", "ACGNACGT"],
        [2, 1, 3],
    )


def test_int32_guard_falls_back_to_int64(monkeypatch):
    # A 2 kbp lane at band 125 fits the int32 kernel by a wide margin.
    assert banded._score_dtype(2000, 2000, 251, BWA_MEM_SCHEME) is np.int32
    monkeypatch.setattr(banded, "_INT32_REACH", 0)
    assert banded._score_dtype(1, 1, 1, BWA_MEM_SCHEME) is np.int64
    assert_matches_scalar(
        ["ACGTTGCAACGTA", "", "ACGTAC"],
        ["ACGATGCAACG", "ACG", "ACGTTAC"],
        [3, 1, 2],
    )


def test_f_never_reads_past_a_narrow_band_edge():
    # In a frame widened by the band-8 lane, the band-1 lane's cells just
    # right of its band hold E values; F on its band edge must not read
    # them (an insertion out of the band and a deletion back would score
    # 4 here, where the banded DP's best is 2).
    assert_matches_scalar(
        ["AAGACCCA", "ACGTACGTACGT"],
        ["AAATGACCA", "ACGTACGTACGT"],
        [1, 8],
        EDIT_DISTANCE_SCHEME,
    )
