"""Tests for repro.seeding.index."""

import numpy
import pytest

from repro.genome.reference import make_reference
from repro.seeding.cache import _deserialize, _serialize
from repro.seeding.index import (
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
        assert index.row_sizes[index.lookup(codes)].tolist() == want

    def test_gather_hits_concatenates_hit_lists(self, index):
        codes = numpy.array([kmer_code(kmer) for kmer in ("ACGTA", "TTTTT", "CAGTC")])
        rows = index.lookup(codes)
        counts = index.row_sizes[rows]
        want = [hit for code in codes for hit in index.hits_code(int(code))]
        used = counts > 0
        assert index.gather(rows[used], counts[used]).tolist() == want

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
    """The hash-bucketed code -> row table behind ``lookup``."""

    @staticmethod
    def _table(*stack):
        return KeyTable.build([numpy.array(keys, dtype=numpy.int64) for keys in stack])

    @pytest.mark.parametrize("kind", ["dict", "packed"])
    def test_empty_index_counts_nothing(self, kind):
        index = KmerIndex.build("ACG", k=5)
        if kind == "packed":
            index = reloaded(index)
        codes = numpy.array([0, 7, -1, kmer_code("ACGTA")])
        rows = index.lookup(codes)
        assert rows.tolist() == [-1, -1, -1, -1]
        assert index.row_sizes[rows].tolist() == [0, 0, 0, 0]

    def test_minus_one_and_absent_codes_count_zero(self):
        keys = [0, 5, 1 << 40]
        table = self._table(keys)
        codes = numpy.array([-1, 5, 4, 0, (1 << 40) + 1, 1 << 40, -1])
        assert table.lookup(codes).tolist() == [[-1, 1, -1, 0, -1, 2, -1]]
        sizes = numpy.array([3, 1, 2, 0])  # with the trailing 0 row -1 reads
        assert sizes[table.lookup(codes)[0]].tolist() == [0, 1, 0, 3, 0, 2, 0]

    def test_size_follows_key_count(self):
        for count in (0, 1, 2, 3, 100, 1_000):
            table = self._table(range(count))
            slots = 1 << table.bits
            assert len(table.starts) == slots + 1
            assert count <= slots < 2 * max(count, 2)
            assert table.starts[-1] == len(table.keys) == count
            assert table.rows.shape == (1, count + 1)

    def test_keys_sharing_one_home_slot(self):
        # More keys in one home slot than a lookup usually steps through,
        # in the table's last slot and in a middle one, beside keys with
        # homes of their own.
        bits = 5
        candidates = numpy.arange(1 << 16, dtype=numpy.int64)
        homes = hash_slots(candidates, bits)
        last = (1 << bits) - 1
        crowded = candidates[homes == last][:12].tolist()
        middle = candidates[homes == 3][:5].tolist()
        single = [int(candidates[homes == slot][0]) for slot in (0, 7, 20)]
        keys = sorted(crowded + middle + single)
        assert len(keys) == 20
        table = self._table(keys)
        assert table.bits == bits
        assert table.starts[last + 1] - table.starts[last] == 12
        absent = candidates[homes == last][12:15].tolist()
        absent += candidates[homes == 3][5:7].tolist()
        codes = numpy.array(keys[::-1] + absent + [-1])
        want = list(range(len(keys) - 1, -1, -1)) + [-1] * 6
        assert table.lookup(codes)[0].tolist() == want

    def test_matches_dict_on_random_keys(self):
        rng = numpy.random.default_rng(7)
        keys = numpy.unique(rng.integers(0, 1 << 24, 3_000))
        table = KeyTable.build([keys])
        codes = numpy.concatenate([keys, rng.integers(-1, 1 << 24, 3_000), [-1]])
        want = {code: row for row, code in enumerate(keys.tolist())}
        assert table.lookup(codes)[0].tolist() == [
            want.get(code, -1) for code in codes.tolist()
        ]

    def test_stacked_rows_match_searchsorted(self):
        # Overlapping key sets, one empty: each index's rows are its own.
        reference = make_reference(6_000, seed=11).sequence
        indexes = [
            KmerIndex.build(reference[begin : begin + size], k=6)
            for begin, size in ((0, 2_500), (2_000, 2_500), (0, 3), (4_000, 2_000))
        ]
        table = KeyTable.build([index.keys for index in indexes])
        union = numpy.unique(numpy.concatenate([index.keys for index in indexes]))
        assert sorted(table.keys.tolist()) == union.tolist()
        rng = numpy.random.default_rng(3)
        codes = numpy.concatenate([union, rng.integers(-1, 4**6, 2_000)])
        rows = table.lookup(codes)
        assert rows.shape == (len(indexes), len(codes))
        for index, got in zip(indexes, rows):
            place = numpy.searchsorted(index.keys, codes)
            present = place < len(index.keys)
            present[present] = index.keys[place[present]] == codes[present]
            assert got.tolist() == numpy.where(present, place, -1).tolist()
            assert (index.row_sizes[got] > 0).tolist() == present.tolist()


class TestDerivedSeedingState:
    """The search's derived tables are built on first use, once."""

    @staticmethod
    def _state(tables):
        return [
            {name: entry.index.__dict__.get(name) for name in _DERIVED}
            for entry in tables
        ]

    @staticmethod
    def _set_up(backend):
        from repro.perf.matrix import _backend_config
        from repro.pipeline.registry import get_backend

        reference = make_reference(20_000, seed=5)
        spec = get_backend(backend)
        config = _backend_config(backend, "illumina-small", jobs=1)
        shared = spec.prepare(reference, config)
        tables = shared if isinstance(shared, list) else [shared]
        # One substitution, so the read misses the exact-match fast path.
        window = reference.sequence[1_000:1_101]
        read = window[:50] + "ACGT"[("ACGT".index(window[50]) + 1) % 4] + window[51:]
        return spec, reference, config, shared, tables, read

    @staticmethod
    def _finder(aligner):
        """The aligner's seed finder: genax's accelerator, bitvector's lane."""
        if hasattr(aligner, "seeder"):
            return aligner.seeder._finder
        return aligner._lane.finder

    @pytest.mark.parametrize("backend", ["bitvector", "genax"])
    def test_built_on_first_seed_and_shared(self, backend):
        spec, reference, config, shared, tables, read = self._set_up(backend)
        first = spec.build(reference, config, shared)
        assert all(
            value is None for state in self._state(tables) for value in state.values()
        )
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

    @pytest.mark.parametrize("backend", ["bitvector", "genax"])
    def test_key_table_built_on_first_seed_and_kept(self, backend):
        spec, reference, config, shared, tables, read = self._set_up(backend)
        aligner = spec.build(reference, config, shared)
        finder = self._finder(aligner)
        assert "key_table" not in vars(finder)
        assert all("key_table" not in vars(entry.index) for entry in tables)
        aligner.align_batch([("r", read)])
        table = vars(finder)["key_table"]
        assert table.rows.shape[0] == len(tables)
        own = [vars(entry.index).get("key_table") for entry in tables]
        if len(tables) == 1:
            # A stack of one is the index's own table, shared by builds.
            assert own[0] is table
        else:
            # The stacked table replaces the per-segment ones.
            assert own == [None] * len(tables)
        aligner.align_batch([("r", read), ("s", read[::-1])])
        assert vars(finder)["key_table"] is table
        # A second aligner over the same tables finds the stack built.
        second = spec.build(reference, config, shared)
        second.align_batch([("r", read)])
        assert vars(self._finder(second))["key_table"] is table


_DERIVED = ("row_sizes", "base_words")
