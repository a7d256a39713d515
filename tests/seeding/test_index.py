"""Tests for repro.seeding.index."""

import pytest

from repro.genome.reference import make_reference
from repro.seeding.index import (
    IndexTables,
    KmerIndex,
    PackedKmerIndex,
    build_segment_tables,
    kmer_code,
)


class TestKmerCode:
    def test_two_bit_packing(self):
        assert kmer_code("A") == 0
        assert kmer_code("T") == 3
        assert kmer_code("AC") == 1
        assert kmer_code("CA") == 4

    def test_distinct_codes(self):
        codes = {kmer_code(a + b + c) for a in "ACGT" for b in "ACGT" for c in "ACGT"}
        assert len(codes) == 64

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            kmer_code("AN")


class TestKmerIndex:
    def test_hits_sorted_positions(self):
        index = KmerIndex.build("ACGACGACG", k=3)
        assert list(index.hits("ACG")) == [0, 3, 6]

    def test_absent_kmer(self):
        index = KmerIndex.build("AAAA", k=2)
        assert list(index.hits("GT")) == []

    def test_every_kmer_indexed(self):
        sequence = "ACGTACCGTA"
        index = KmerIndex.build(sequence, k=4)
        for start in range(len(sequence) - 3):
            assert start in index.hits(sequence[start : start + 4])

    def test_total_positions(self):
        index = KmerIndex.build("ACGTACGT", k=3)
        assert index.total_positions == 6

    def test_wrong_query_length_rejected(self):
        index = KmerIndex.build("ACGT", k=2)
        with pytest.raises(ValueError):
            index.hits("ACG")

    def test_sequence_shorter_than_k(self):
        index = KmerIndex.build("AC", k=3)
        assert index.total_positions == 0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            KmerIndex.build("ACGT", k=0)

    def test_contains(self):
        index = KmerIndex.build("ACGT", k=2)
        assert index.contains("CG")
        assert not index.contains("GA")

    @pytest.mark.parametrize("packed", [False, True], ids=["dict", "packed"])
    def test_non_acgt_kmers_are_absent_not_errors(self, packed):
        index = KmerIndex.build("ACGTACGT", k=4)
        if packed:
            index = PackedKmerIndex.pack(index)
        assert index.contains("ACGT")
        for kmer in ("ACGN", "acgt", "RCGT"):
            assert not index.contains(kmer)
            assert index.hit_count(kmer) == 0
            assert list(index.hits(kmer)) == []
        assert index.hits_code(-1) == ()

    def test_hit_histogram(self):
        index = KmerIndex.build("AAAAA", k=2)  # "AA" occurs 4 times
        assert index.hit_histogram() == {4: 1}

    def test_table_sizes(self):
        index = KmerIndex.build("ACGT" * 100, k=12)
        assert index.position_table_bytes() == index.total_positions * 4
        assert index.index_table_bytes() == (4**12) * 6

    def test_rolling_build_matches_naive(self):
        sequence = make_reference(2_000, seed=3).sequence
        index = KmerIndex.build(sequence, k=5)
        for start in (0, 17, 500, 1994):
            kmer = sequence[start : start + 5]
            if len(kmer) == 5:
                assert start in index.hits(kmer)


class TestSegmentTables:
    def test_build_per_segment(self):
        ref = make_reference(4_000, seed=9)
        tables = build_segment_tables(ref.segments(4), k=6)
        assert len(tables) == 4
        assert tables[2].segment_start == ref.segments(4)[2].start
        assert all(t.sram_bytes > 0 for t in tables)

    def test_segment_hits_are_local(self):
        ref = make_reference(3_000, seed=2)
        views = ref.segments(3)
        tables = build_segment_tables(views, k=8)
        for view, table in zip(views, tables):
            kmer = view.sequence[:8]
            assert 0 in table.index.hits(kmer)
