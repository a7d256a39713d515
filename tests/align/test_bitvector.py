"""Tests for repro.align.bitvector (batched NumPy bit-parallel kernels).

The contract under test: every batched kernel equals its scalar
reference (``myers_distance`` / ``myers_bounded`` /
``myers_semiglobal_min``) element-wise over ragged batches, including
empty lanes and pattern lengths that straddle the 64-bit word boundary.
The hypothesis properties run under the suite-wide derandomized
profile (tests/conftest.py), so every machine draws the same examples.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.align.bitvector import (
    batch_myers_bounded,
    batch_myers_distance,
    batch_semiglobal_min,
    semiglobal_min_lanes,
)
from repro.align.myers import myers_bounded, myers_distance, myers_semiglobal_min
from repro.genome.sequence import random_dna

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
        # N, IUPAC and lower-case lanes cannot be packed; they get the
        # scalar answer in place while clean lanes share the kernel call.
        pairs = ragged_batch(seed=8, count=12, max_len=60)
        pairs[2] = ("ACGNACGT", pairs[2][1])
        pairs[5] = (pairs[5][0], "TTRACGTACGTT")
        pairs[9] = ("acgtacgt", "TTACGTACGTT")
        scores = semiglobal_min_lanes(
            [p for p, _ in pairs], [t for _, t in pairs]
        )
        assert scores == [myers_semiglobal_min(p, t) for p, t in pairs]

    def test_lane_helper_rejects_ragged_arguments(self):
        with pytest.raises(ValueError):
            semiglobal_min_lanes(["ACGT"], [])
