"""Tests for repro.seeding.cache and the CSR index it deserializes to."""

import pytest

from repro.genome.reference import make_reference
from repro.seeding.cache import IndexCache, _deserialize, _serialize, index_fingerprint
from repro.seeding.index import IndexTables, KmerIndex

K = 8
SEGMENTS = 3
OVERLAP = 64


@pytest.fixture(scope="module")
def reference():
    return make_reference(4_000, seed=41)


def assert_tables_equivalent(actual, expected, probes):
    assert len(actual) == len(expected)
    for a, b in zip(actual, expected):
        assert (a.segment_index, a.segment_start) == (
            b.segment_index,
            b.segment_start,
        )
        assert a.index.k == b.index.k
        assert a.index.distinct_kmers == b.index.distinct_kmers
        assert a.index.total_positions == b.index.total_positions
        assert a.index.hit_histogram() == b.index.hit_histogram()
        assert a.sram_bytes == b.sram_bytes
        for kmer in probes:
            assert list(a.index.hits(kmer)) == list(b.index.hits(kmer))


class TestFingerprint:
    def test_stable(self, reference):
        assert index_fingerprint(reference, K, SEGMENTS, OVERLAP) == (
            index_fingerprint(reference, K, SEGMENTS, OVERLAP)
        )

    def test_invalidation_rules(self, reference):
        """Any of (sequence, k, segment count, overlap) changes the key."""
        base = index_fingerprint(reference, K, SEGMENTS, OVERLAP)
        other_reference = make_reference(4_000, seed=42)
        assert index_fingerprint(other_reference, K, SEGMENTS, OVERLAP) != base
        assert index_fingerprint(reference, K + 1, SEGMENTS, OVERLAP) != base
        assert index_fingerprint(reference, K, SEGMENTS + 1, OVERLAP) != base
        assert index_fingerprint(reference, K, SEGMENTS, OVERLAP + 1) != base


class TestIndexCache:
    def test_cold_then_warm(self, reference, tmp_path):
        probes = [reference.sequence[i : i + K] for i in (0, 100, 900)]
        cold = IndexCache(tmp_path)
        built = cold.load_or_build(reference, K, SEGMENTS, OVERLAP)
        assert (cold.stats.misses, cold.stats.hits) == (1, 0)
        assert all(isinstance(t.index, KmerIndex) for t in built)

        warm = IndexCache(tmp_path)
        loaded = warm.load_or_build(reference, K, SEGMENTS, OVERLAP)
        assert (warm.stats.misses, warm.stats.hits) == (0, 1)
        assert all(isinstance(t.index, KmerIndex) for t in loaded)
        assert_tables_equivalent(loaded, built, probes)

    def test_same_instance_hits_second_time(self, reference, tmp_path):
        cache = IndexCache(tmp_path)
        cache.load_or_build(reference, K, SEGMENTS, OVERLAP)
        cache.load_or_build(reference, K, SEGMENTS, OVERLAP)
        assert (cache.stats.misses, cache.stats.hits) == (1, 1)

    def test_different_k_is_a_miss(self, reference, tmp_path):
        cache = IndexCache(tmp_path)
        cache.load_or_build(reference, K, SEGMENTS, OVERLAP)
        cache.load_or_build(reference, K + 2, SEGMENTS, OVERLAP)
        assert cache.stats.misses == 2

    @pytest.mark.parametrize(
        "garbage",
        [b"", b"not a cache entry", b"GENAXIDX\n\xff\xff\xff\xff"],
        ids=["empty", "bad-magic", "bad-header"],
    )
    def test_corrupt_entry_rebuilds(self, reference, tmp_path, garbage):
        cache = IndexCache(tmp_path)
        fingerprint = index_fingerprint(reference, K, SEGMENTS, OVERLAP)
        path = cache.entry_path(fingerprint)
        cache.load_or_build(reference, K, SEGMENTS, OVERLAP)
        path.write_bytes(garbage)
        tables = cache.load_or_build(reference, K, SEGMENTS, OVERLAP)
        assert cache.stats.misses == 2
        assert tables  # rebuilt fine, and the entry is re-written
        warm = IndexCache(tmp_path)
        warm.load_or_build(reference, K, SEGMENTS, OVERLAP)
        assert warm.stats.hits == 1

    def test_truncated_entry_rebuilds(self, reference, tmp_path):
        cache = IndexCache(tmp_path)
        fingerprint = index_fingerprint(reference, K, SEGMENTS, OVERLAP)
        path = cache.entry_path(fingerprint)
        cache.load_or_build(reference, K, SEGMENTS, OVERLAP)
        path.write_bytes(path.read_bytes()[:-16])
        cache.load_or_build(reference, K, SEGMENTS, OVERLAP)
        assert cache.stats.misses == 2

    def test_creates_missing_directory(self, reference, tmp_path):
        cache = IndexCache(tmp_path / "nested" / "cache")
        cache.load_or_build(reference, K, SEGMENTS, OVERLAP)
        warm = IndexCache(tmp_path / "nested" / "cache")
        warm.load_or_build(reference, K, SEGMENTS, OVERLAP)
        assert warm.stats.hits == 1


class TestPackedKmerIndex:
    """A built index and its copy read back from the cache's layout."""

    @pytest.fixture(scope="class")
    def pair(self, reference):
        index = KmerIndex.build(reference.sequence[:1500], K)
        return index, _deserialize(_serialize([IndexTables(0, 0, index)]))[0].index

    def test_hits_identical_for_all_kmers(self, reference, pair):
        index, packed = pair
        sequence = reference.sequence[:1500]
        for offset in range(0, len(sequence) - K + 1, 7):
            kmer = sequence[offset : offset + K]
            hits = packed.hits(kmer)
            assert list(hits) == list(index.hits(kmer))
            assert all(type(position) is int for position in hits)

    def test_absent_and_ambiguous_kmers(self, pair):
        index, packed = pair
        assert list(packed.hits("T" * K)) == list(index.hits("T" * K))
        assert packed.hits("N" * K) == ()
        assert packed.hit_count("N" * K) == 0
        assert not packed.contains("N" * K)

    def test_wrong_length_raises(self, pair):
        __, packed = pair
        with pytest.raises(ValueError):
            packed.hits("ACG")

    def test_summary_statistics_match(self, pair):
        index, packed = pair
        assert packed.distinct_kmers == index.distinct_kmers
        assert packed.total_positions == index.total_positions
        assert packed.hit_histogram() == index.hit_histogram()
        assert packed.position_table_bytes() == index.position_table_bytes()
        assert packed.index_table_bytes() == index.index_table_bytes()
        assert packed.hit_count("A" * K) == index.hit_count("A" * K)
