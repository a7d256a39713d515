"""Tests for repro.align.bitvector (batched NumPy bit-parallel kernels).

The contract under test: every batched kernel equals its scalar
reference (``myers_distance`` / ``myers_bounded`` /
``myers_semiglobal_min``) element-wise over ragged batches, including
empty lanes and pattern lengths that straddle the 64-bit word boundary.
The hypothesis properties run under the suite-wide derandomized
profile (tests/conftest.py), so every machine draws the same examples.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.align.bitvector import (
    batch_myers_bounded,
    batch_myers_distance,
    batch_semiglobal_min,
    semiglobal_min_windows,
)
from repro.align.myers import myers_bounded, myers_distance, myers_semiglobal_min
from repro.genome.sequence import encode_bases, random_dna

dna = st.text(alphabet="ACGT", max_size=90)
lanes = st.lists(st.tuples(dna, dna), max_size=12)


def ragged_batch(seed, count=48, max_len=200):
    """Random ragged lanes spanning 0..max_len, crossing word boundaries."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        pairs.append(
            (random_dna(rng.randrange(0, max_len), rng),
             random_dna(rng.randrange(0, max_len), rng))
        )
    # Pin the interesting boundary lengths explicitly.
    for n in (63, 64, 65, 127, 128, 129):
        pairs.append((random_dna(n, rng), random_dna(n + 3, rng)))
    pairs.extend([("", "ACGT"), ("ACGT", ""), ("", "")])
    return pairs


class TestBatchDistance:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scalar_myers(self, seed):
        pairs = ragged_batch(seed)
        scores = batch_myers_distance(
            [p for p, _ in pairs], [t for _, t in pairs]
        )
        assert [int(s) for s in scores] == [
            myers_distance(p, t) for p, t in pairs
        ]

    @given(lanes)
    @settings(max_examples=60, deadline=None)
    def test_property_matches_scalar_myers(self, pairs):
        scores = batch_myers_distance(
            [p for p, _ in pairs], [t for _, t in pairs]
        )
        assert [int(s) for s in scores] == [
            myers_distance(p, t) for p, t in pairs
        ]

    def test_empty_batch(self):
        assert list(batch_myers_distance([], [])) == []

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            batch_myers_distance(["A"], [])


class TestBatchBounded:
    @pytest.mark.parametrize("k", [0, 1, 4, 12])
    def test_matches_scalar_bounded(self, k):
        pairs = ragged_batch(seed=k + 10)
        got = batch_myers_bounded(
            [p for p, _ in pairs], [t for _, t in pairs], k
        )
        assert got == [myers_bounded(p, t, k) for p, t in pairs]

    @given(lanes, st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_property_matches_scalar_bounded(self, pairs, k):
        got = batch_myers_bounded(
            [p for p, _ in pairs], [t for _, t in pairs], k
        )
        assert got == [myers_bounded(p, t, k) for p, t in pairs]


class TestBatchSemiglobal:
    @pytest.mark.parametrize("seed", [5, 6])
    def test_matches_scalar_semiglobal(self, seed):
        pairs = ragged_batch(seed)
        scores = batch_semiglobal_min(
            [p for p, _ in pairs], [t for _, t in pairs]
        )
        assert [int(s) for s in scores] == [
            myers_semiglobal_min(p, t) for p, t in pairs
        ]

    @given(lanes)
    @settings(max_examples=60, deadline=None)
    def test_property_matches_scalar_semiglobal(self, pairs):
        scores = batch_semiglobal_min(
            [p for p, _ in pairs], [t for _, t in pairs]
        )
        assert [int(s) for s in scores] == [
            myers_semiglobal_min(p, t) for p, t in pairs
        ]

    def test_substring_scores_zero(self):
        reference = random_dna(300, random.Random(7))
        window = reference[100:180]
        scores = batch_semiglobal_min([window], [reference])
        assert int(scores[0]) == 0

    def test_dirty_lanes_take_the_scalar_recurrence(self):
        # N, IUPAC and lower-case pattern bases cannot be packed as ACGT;
        # in the windowed kernel they match no equality plane, so each
        # scores one edit against the ACGT reference, exactly like the
        # scalar recurrence comparing raw characters.
        rng = random.Random(8)
        reference = random_dna(400, rng)
        patterns = [
            reference[40:100],
            reference[120:150][:10] + "N" + reference[131:150],
            reference[200:230][:5] + "R" + reference[206:230],
            reference[250:290].lower(),
            "NNNN",
            "",
        ]
        rows, starts, lengths = [], [], []
        for row in range(len(patterns)):
            for start, length in ((0, 400), (30, 80), (115, 45), (395, 5)):
                rows.append(row)
                starts.append(start)
                lengths.append(length)
        scores = semiglobal_min_windows(
            patterns,
            np.array(rows, dtype=np.int64),
            encode_bases(reference),
            np.array(starts, dtype=np.int64),
            np.array(lengths, dtype=np.int64),
        )
        assert scores.tolist() == [
            myers_semiglobal_min(
                patterns[row], reference[start : start + length]
            )
            for row, start, length in zip(rows, starts, lengths)
        ]
