"""Tests for integer k-mer codes and the batched, segment-major seeding path."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.genome.reference import make_reference
from repro.pipeline.bwamem import WholeGenomeSeedProvider
from repro.seeding.accelerator import SeedingAccelerator, SeedingLane
from repro.seeding.cache import IndexCache
from repro.seeding.index import (
    MAX_K,
    IndexTables,
    KmerIndex,
    kmer_code,
    kmer_codes,
)
from repro.seeding.smem import ReadBatch, SmemConfig

# Clean bases plus N, IUPAC ambiguity codes and lower case.
reads = st.text(alphabet="ACGTNRYKMacgtn", max_size=40)


class TestKmerCodes:
    @given(reads, st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_matches_kmer_code_or_marks_dirty_kmers(self, read, k):
        codes = kmer_codes(read, k)
        assert len(codes) == max(0, len(read) - k + 1)
        for offset, code in enumerate(codes):
            kmer = read[offset : offset + k]
            if set(kmer) <= set("ACGT"):
                assert code == kmer_code(kmer)
            else:
                assert code == -1

    @pytest.mark.parametrize("read", ["", "A", "ACG", "NNN"])
    def test_read_shorter_than_k(self, read):
        assert kmer_codes(read, 4) == []

    def test_dirty_base_spoils_every_kmer_covering_it(self):
        assert kmer_codes("ACGTNACGT", 3) == [6, 27, -1, -1, -1, 6, 27]

    def test_lower_case_is_not_acgt(self):
        assert kmer_codes("ACgT", 2) == [1, -1, -1]

    @given(
        st.lists(st.text(alphabet="ACGTNRacgt\u00e9", max_size=40), max_size=6),
        st.integers(1, MAX_K),
    )
    @settings(max_examples=200, deadline=None)
    def test_batch_encoding_matches_per_read_codes(self, batch, k):
        encoded = ReadBatch(batch, k)
        want = [kmer_codes(read, k) for read in batch]
        assert encoded.codes == want
        assert encoded.flat_codes.tolist() == [code for codes in want for code in codes]

    def test_codes_must_fit_int64(self):
        with pytest.raises(ValueError, match="at most"):
            SmemConfig(k=MAX_K + 1)
        with pytest.raises(ValueError, match="at most"):
            kmer_codes("A" * 40, MAX_K + 1)


def _counters(stats):
    return dataclasses.asdict(stats)


def _batch_reads(reference):
    sequence = reference.sequence
    with_n = list(sequence[3_000:3_080])
    with_n[40] = "N"
    return [
        sequence[100:180],  # clean, inside one segment
        sequence[2_990:3_070],  # clean, across a segment boundary
        "".join(with_n),  # clean k-mers on both sides of an N
        sequence[500:540].lower(),  # no clean k-mer at all
        "ACGTAC",  # shorter than k
        "",
        "N" * 30,
        sequence[4_000:4_050] + "GATTACA" + sequence[1_000:1_050],  # chimera
    ]


class TestBatchMatchesOneReadCalls:
    """Batched seeding must equal one-read calls, seeds and counters alike."""

    @pytest.fixture(scope="class")
    def reference(self):
        return make_reference(6_000, seed=17)

    def _tables(self, reference, kind, tmp_path):
        if kind == "dict":
            return None
        cache = IndexCache(tmp_path)
        cache.load_or_build(reference, 10, 3, SeedingAccelerator.SEGMENT_OVERLAP)
        tables = cache.load_or_build(
            reference, 10, 3, SeedingAccelerator.SEGMENT_OVERLAP
        )
        assert cache.stats.hits == 1  # the tables below were read back from disk
        return tables

    @pytest.mark.parametrize("kind", ["dict", "packed"])
    @pytest.mark.parametrize(
        "config",
        [
            SmemConfig(k=10),
            SmemConfig(k=10, probe=True, exact_match_fast_path=True),
        ],
        ids=["plain", "probe-exact"],
    )
    def test_accelerator(self, reference, kind, config, tmp_path):
        tables = self._tables(reference, kind, tmp_path)
        batch_reads = _batch_reads(reference)
        batched = SeedingAccelerator(reference, config, segment_count=3, tables=tables)
        single = SeedingAccelerator(reference, config, segment_count=3, tables=tables)
        got = list(batched.seed_reads(batch_reads))
        want = [single.seed_read(read) for read in batch_reads]
        assert got == want
        assert any(got)
        assert _counters(batched.stats.finder) == _counters(single.stats.finder)
        assert _counters(batched.stats.intersections) == _counters(
            single.stats.intersections
        )

    def test_whole_genome_provider(self, reference):
        tables = IndexTables(0, 0, KmerIndex.build(reference.sequence, 10))
        config = SmemConfig(k=10, exact_match_fast_path=True)
        batched = WholeGenomeSeedProvider(SeedingLane(tables, config))
        single = WholeGenomeSeedProvider(SeedingLane(tables, config))
        batch_reads = _batch_reads(reference)
        assert list(batched.seed_batch(batch_reads)) == [
            single.lane.seed_read(read) for read in batch_reads
        ]
        assert _counters(batched.lane.finder.stats) == _counters(
            single.lane.finder.stats
        )
        assert _counters(batched.lane.engine.stats) == _counters(
            single.lane.engine.stats
        )
