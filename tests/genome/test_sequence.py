"""Tests for repro.genome.sequence."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.genome.sequence import (
    ALPHABET,
    complement,
    decode,
    encode,
    gc_content,
    hamming_distance,
    is_dna,
    kmers,
    random_dna,
    reverse_complement,
    validate_dna,
)

dna = st.text(alphabet="ACGT", max_size=40)


class TestAlphabet:
    def test_alphabet_order_matches_two_bit_encoding(self):
        assert ALPHABET == "ACGT"
        assert encode("ACGT") == [0, 1, 2, 3]

    def test_is_dna_accepts_valid(self):
        assert is_dna("ACGTACGT")

    def test_is_dna_rejects_lowercase(self):
        assert not is_dna("acgt")

    def test_is_dna_rejects_iupac_ambiguity_codes(self):
        assert not is_dna("ACGN")

    def test_is_dna_empty_string(self):
        assert is_dna("")

    def test_validate_dna_returns_sequence(self):
        assert validate_dna("ACGT") == "ACGT"

    def test_validate_dna_reports_position(self):
        with pytest.raises(ValueError, match="position 2"):
            validate_dna("ACNT")


class TestEncodeDecode:
    def test_roundtrip(self):
        assert decode(encode("GATTACA")) == "GATTACA"

    def test_encode_rejects_bad_base(self):
        with pytest.raises(ValueError):
            encode("ACGX")

    def test_decode_rejects_bad_code(self):
        with pytest.raises(ValueError):
            decode([0, 4])

    def test_empty(self):
        assert encode("") == []
        assert decode([]) == ""

    @given(dna)
    def test_roundtrip_property(self, sequence):
        assert decode(encode(sequence)) == sequence


class TestComplement:
    def test_complement_pairs(self):
        assert complement("ACGT") == "TGCA"

    def test_reverse_complement(self):
        assert reverse_complement("AACG") == "CGTT"

    def test_reverse_complement_involution(self):
        assert reverse_complement(reverse_complement("GATTACA")) == "GATTACA"

    @given(dna)
    def test_revcomp_involution_property(self, sequence):
        assert reverse_complement(reverse_complement(sequence)) == sequence

    @given(dna)
    def test_revcomp_preserves_length(self, sequence):
        assert len(reverse_complement(sequence)) == len(sequence)


class TestGCContent:
    def test_all_gc(self):
        assert gc_content("GCGC") == 1.0

    def test_no_gc(self):
        assert gc_content("ATAT") == 0.0

    def test_half(self):
        assert gc_content("ATGC") == 0.5

    def test_empty_is_zero(self):
        assert gc_content("") == 0.0


class TestKmers:
    def test_all_kmers(self):
        assert list(kmers("ACGTA", 3)) == ["ACG", "CGT", "GTA"]

    def test_k_equals_length(self):
        assert list(kmers("ACGT", 4)) == ["ACGT"]

    def test_k_longer_than_sequence(self):
        assert list(kmers("AC", 3)) == []

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            list(kmers("ACGT", 0))

    def test_kmer_count(self):
        assert sum(1 for _ in kmers("A" * 100, 12)) == 89


class TestRandomDNA:
    def test_deterministic_with_seed(self):
        assert random_dna(50, random.Random(1)) == random_dna(50, random.Random(1))

    def test_length(self):
        assert len(random_dna(123, random.Random(0))) == 123

    def test_alphabet(self):
        assert is_dna(random_dna(200, random.Random(2)))

    def test_gc_bias(self):
        sequence = random_dna(20_000, random.Random(3), gc=0.8)
        assert 0.75 < gc_content(sequence) < 0.85

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            random_dna(-1, random.Random(0))

    def test_bad_gc_rejected(self):
        with pytest.raises(ValueError):
            random_dna(10, random.Random(0), gc=1.5)


class TestHamming:
    def test_zero(self):
        assert hamming_distance("ACGT", "ACGT") == 0

    def test_counts_mismatches(self):
        assert hamming_distance("AAAA", "ATAT") == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hamming_distance("A", "AA")

