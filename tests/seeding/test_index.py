"""Tests for repro.seeding.index."""

import numpy
import pytest

from repro.genome.reference import make_reference
from repro.seeding.cache import _deserialize, _serialize
from repro.seeding.index import (
    SLOTS_PER_KEY,
    IndexTables,
    KeyTable,
    KmerIndex,
    base_words_at,
    build_segment_tables,
    hash_slots,
    kmer_code,
    pack_bases,
)


def reloaded(index):
    """*index* written to and read back from the cache's on-disk layout."""
    return _deserialize(_serialize([IndexTables(0, 0, index)]))[0].index


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
            index = reloaded(index)
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


def brute_force_tables(sequence, k):
    """Every k-mer's positions, keyed by code, by direct scanning."""
    table = {}
    for start in range(len(sequence) - k + 1):
        table.setdefault(kmer_code(sequence[start : start + k]), []).append(start)
    return table


class TestCsrBuild:
    """The NumPy build gives exactly a brute-force dict's tables."""

    @staticmethod
    def assert_tables(index, sequence, k):
        want = brute_force_tables(sequence, k)
        keys = sorted(want)
        assert index.keys.tolist() == keys
        assert numpy.diff(index.offsets).tolist() == [len(want[key]) for key in keys]
        assert index.positions.tolist() == [p for key in keys for p in want[key]]
        assert index.offsets[0] == 0
        for dtype in (index.keys.dtype, index.offsets.dtype, index.positions.dtype):
            assert dtype == numpy.int64

    @pytest.mark.parametrize("seed", range(6))
    def test_random_sequences(self, seed):
        rng = numpy.random.default_rng(seed)
        sequence = "".join(rng.choice(list("ACGT"), int(rng.integers(1, 400))))
        for k in (1, 2, 3, 5, 8, 13):
            self.assert_tables(KmerIndex.build(sequence, k), sequence, k)

    @pytest.mark.parametrize("sequence,k", [("ACGTA", 6), ("ACGTA", 5), ("", 3)])
    def test_k_at_and_past_the_length(self, sequence, k):
        index = KmerIndex.build(sequence, k)
        self.assert_tables(index, sequence, k)
        assert index.total_positions == max(0, len(sequence) - k + 1)

    def test_homopolymer(self):
        index = KmerIndex.build("A" * 40, 7)
        self.assert_tables(index, "A" * 40, 7)
        assert index.hits("A" * 7) == list(range(34))
        assert index.hit_histogram() == {34: 1}

    def test_hits_code_returns_plain_ints(self):
        index = KmerIndex.build("ACGACGACG", 3)
        hits = index.hits_code(kmer_code("ACG"))
        assert hits == [0, 3, 6]
        assert all(type(hit) is int for hit in hits)
        assert index.hits_code(kmer_code("TTT")) == ()

    def test_non_acgt_sequence_rejected(self):
        with pytest.raises(ValueError):
            KmerIndex.build("ACGNACGT", 3)


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


class TestSearchTables:
    """The RMEM search's lookups: batched hit counts, gathers, 2-bit bases."""

    @pytest.fixture(params=["dict", "packed"])
    def index(self, request):
        index = KmerIndex.build(make_reference(1_500, seed=4).sequence, k=5)
        return reloaded(index) if request.param == "packed" else index

    def test_hit_counts_match_scalar_lookups(self, index):
        codes = numpy.array(
            [kmer_code("ACGTA"), kmer_code("TTTTT"), -1, kmer_code("GATTA")] * 2
        )
        want = [len(index.hits_code(int(code))) for code in codes]
        assert index.hit_counts(codes).tolist() == want

    def test_gather_hits_concatenates_hit_lists(self, index):
        codes = numpy.array([kmer_code("ACGTA"), kmer_code("CAGTC")])
        counts = index.hit_counts(codes)
        want = [hit for code in codes for hit in index.hits_code(int(code))]
        assert index.gather_hits(codes[counts > 0], counts[counts > 0]).tolist() == want

    def test_base_words_pack_the_sequence(self, index):
        sequence = make_reference(1_500, seed=4).sequence
        positions = numpy.arange(len(sequence))
        words = base_words_at(index.base_words, positions)
        firsts = (words & numpy.uint64(3)).tolist()
        assert "".join("ACGT"[base] for base in firsts) == sequence

    def test_base_words_at_every_phase(self):
        bases = numpy.array([(7 * i) % 4 for i in range(200)], dtype=numpy.uint8)
        words = pack_bases(bases)
        for position in range(0, 150):
            word = int(base_words_at(words, numpy.array([position]))[0])
            got = [(word >> (2 * j)) & 3 for j in range(32)]
            assert got == bases[position : position + 32].tolist()


class TestKeyTable:
    """The hashed key -> count table behind ``hit_counts``."""

    @staticmethod
    def _table(keys, counts):
        return KeyTable.build(
            numpy.array(keys, dtype=numpy.int64), numpy.array(counts, dtype=numpy.int64)
        )

    @pytest.mark.parametrize("kind", ["dict", "packed"])
    def test_empty_index_counts_nothing(self, kind):
        index = KmerIndex.build("ACG", k=5)
        if kind == "packed":
            index = reloaded(index)
        codes = numpy.array([0, 7, -1, kmer_code("ACGTA")])
        assert index.hit_counts(codes).tolist() == [0, 0, 0, 0]

    def test_minus_one_and_absent_codes_count_zero(self):
        table = self._table([0, 5, 1 << 40], [3, 1, 2])
        codes = numpy.array([-1, 5, 4, 0, (1 << 40) + 1, 1 << 40, -1])
        assert table.lookup(codes).tolist() == [0, 1, 0, 3, 0, 2, 0]

    def test_size_follows_key_count(self):
        for count in (0, 1, 2, 3, 100, 1_000):
            table = self._table(range(count), [1] * count)
            slots = len(table.keys)
            assert slots == 1 << table.bits
            assert slots >= SLOTS_PER_KEY * count
            assert slots < 2 * SLOTS_PER_KEY * max(count, 1)

    def test_keys_in_one_probe_chain(self):
        # More keys than a lookup round probes, all with one home slot,
        # placed around the end of the table and wrapped to its start.
        bits = (SLOTS_PER_KEY * 24 - 1).bit_length()
        candidates = numpy.arange(1 << 16, dtype=numpy.int64)
        homes = hash_slots(candidates, bits)
        last = (1 << bits) - 1
        chained = candidates[homes == last][:20].tolist()
        others = candidates[homes == 3][:4].tolist()
        assert len(chained) == 20 and len(others) == 4
        keys = chained + others
        table = self._table(keys, range(1, len(keys) + 1))
        assert len(table.keys) == 1 << bits
        absent = candidates[homes == last][20:23].tolist()
        codes = numpy.array(keys[::-1] + absent + [-1])
        want = list(range(len(keys), 0, -1)) + [0, 0, 0, 0]
        assert table.lookup(codes).tolist() == want

    def test_matches_dict_on_random_keys(self):
        rng = numpy.random.default_rng(7)
        keys = numpy.unique(rng.integers(0, 1 << 24, 3_000))
        counts = rng.integers(1, 9, len(keys))
        table = KeyTable.build(keys, counts)
        codes = numpy.concatenate([keys, rng.integers(-1, 1 << 24, 3_000)])
        want = dict(zip(keys.tolist(), counts.tolist()))
        assert table.lookup(codes).tolist() == [
            want.get(code, 0) for code in codes.tolist()
        ]


class TestDerivedSeedingState:
    """The search's derived tables are built on first use, once per index."""

    @staticmethod
    def _state(tables):
        return [
            {name: entry.index.__dict__.get(name) for name in _DERIVED}
            for entry in tables
        ]

    @pytest.mark.parametrize("backend", ["bitvector", "genax"])
    def test_built_on_first_seed_and_shared(self, backend):
        from repro.perf.matrix import _backend_config
        from repro.pipeline.registry import get_backend

        reference = make_reference(20_000, seed=5)
        spec = get_backend(backend)
        config = _backend_config(backend, "illumina-small", jobs=1)
        shared = spec.prepare(reference, config)
        tables = shared if isinstance(shared, list) else [shared]
        first = spec.build(reference, config, shared)
        assert all(
            value is None for state in self._state(tables) for value in state.values()
        )
        # One substitution, so the read misses the exact-match fast path.
        window = reference.sequence[1_000:1_101]
        read = window[:50] + "ACGT"[("ACGT".index(window[50]) + 1) % 4] + window[51:]
        first.align_batch([("r", read)])
        built = self._state(tables)
        assert all(
            value is not None for state in built for value in state.values()
        )
        second = spec.build(reference, config, shared)
        second.align_batch([("r", read)])
        again = self._state(tables)
        for before, after in zip(built, again):
            for name in _DERIVED:
                assert after[name] is before[name]


_DERIVED = ("key_table", "base_words")
