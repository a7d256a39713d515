"""Tests for repro.seeding.smem against the brute-force oracle."""

import dataclasses
import random

import numpy
import pytest
from hypothesis import given, settings, strategies as st

from repro.seeding import smem
from repro.seeding.cam import IntersectionEngine
from repro.seeding.cache import _deserialize, _serialize
from repro.seeding.index import IndexTables, KmerIndex
from repro.seeding.smem import ReadBatch, Seed, SeedingMode, SmemConfig, SmemFinder
from repro.seeding.smem_oracle import (
    CamWalkFinder,
    brute_force_exact_match,
    brute_force_rmem,
    brute_force_smems,
)


def make_finder(segment: str, k: int, **kwargs) -> SmemFinder:
    return SmemFinder(KmerIndex.build(segment, k), SmemConfig(k=k, **kwargs))


class TestSeed:
    def test_end(self):
        assert Seed(3, 10, (0,)).end == 13

    def test_containment(self):
        outer = Seed(2, 10, (0,))
        inner = Seed(4, 5, (0,))
        assert outer.contains(inner)
        assert not inner.contains(outer)


class TestRmem:
    def test_exact_substring_extends_fully(self):
        segment = "TTTTACGTACGTTTTT"
        finder = make_finder(segment, 4)
        seed = finder.rmem("ACGTACGT", 0)
        assert seed.length == 8
        assert seed.hits == (4,)

    def test_stops_at_mismatch(self):
        segment = "AAAACGTTTTTT"
        finder = make_finder(segment, 3)
        # Read diverges from every occurrence after 6 characters.
        seed = finder.rmem("AAACGTGGG", 0)
        assert seed is not None
        assert seed.length == 6

    def test_no_hits_returns_none(self):
        finder = make_finder("AAAAAAA", 3)
        assert finder.rmem("GGGGGG", 0) is None

    def test_pivot_too_close_to_end(self):
        finder = make_finder("ACGTACGT", 4)
        assert finder.rmem("ACGT", 1) is None

    def test_matches_brute_force(self):
        rng = random.Random(8)
        segment = "".join(rng.choice("ACG") for _ in range(150))
        finder = make_finder(segment, 4)
        read = segment[37:70]
        for pivot in range(0, len(read) - 4):
            got = finder.rmem(read, pivot)
            want = brute_force_rmem(segment, read, pivot, 4)
            if want is None:
                assert got is None
            else:
                assert (got.read_offset, got.length, got.hits) == (
                    want.read_offset,
                    want.length,
                    want.hits,
                )

    @pytest.mark.parametrize("divisors", [(0,), (1, -2)])
    def test_probe_divisors_must_be_positive(self, divisors):
        with pytest.raises(ValueError, match="probe divisors"):
            SmemConfig(k=4, probe=True, probe_divisors=divisors)

    def test_config_k_must_match_index(self):
        index = KmerIndex.build("ACGTACGT", 4)
        with pytest.raises(ValueError):
            SmemFinder(index, SmemConfig(k=5))


class TestSmems:
    def test_single_exact_read(self):
        segment = "GGGG" + "ACGTACGTACGT" + "CCCC"
        finder = make_finder(segment, 4)
        seeds = finder.find_seeds("ACGTACGTACGT")
        assert len(seeds) == 1
        assert seeds[0].length == 12
        assert seeds[0].hits == (4,)

    def test_contained_rmems_filtered(self):
        """§V: an RMEM inside a previously found SMEM is not reported."""
        rng = random.Random(12)
        segment = "".join(rng.choice("ACGT") for _ in range(300))
        read = segment[100:140]
        finder = make_finder(segment, 5)
        seeds = finder.find_seeds(read)
        ends = [s.end for s in seeds]
        assert ends == sorted(ends)
        assert len(set(ends)) == len(ends)  # strictly increasing => no containment

    def test_split_read_produces_multiple_seeds(self):
        rng = random.Random(3)
        left = "".join(rng.choice("ACGT") for _ in range(60))
        right = "".join(rng.choice("ACGT") for _ in range(60))
        segment = left + right
        # A read straddling a mutation: left half matches, right half too,
        # but not contiguously.
        read = left[-20:] + "T" + right[:20]
        finder = make_finder(segment, 6)
        seeds = finder.find_seeds(read)
        assert len(seeds) >= 2

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle_property(self, seed_value):
        rng = random.Random(seed_value)
        segment = "".join(rng.choice("AC" if seed_value % 2 else "ACGT") for _ in range(120))
        k = rng.choice([3, 4])
        if rng.random() < 0.7:
            start = rng.randrange(0, 90)
            read = list(segment[start : start + 30])
            for __ in range(rng.randrange(0, 3)):
                read[rng.randrange(len(read))] = rng.choice("ACGT")
            read = "".join(read)
        else:
            read = "".join(rng.choice("ACGT") for _ in range(20))
        finder = make_finder(segment, k)
        got = [(s.read_offset, s.length, s.hits) for s in finder.find_seeds(read)]
        want = [
            (s.read_offset, s.length, s.hits)
            for s in brute_force_smems(segment, read, k)
        ]
        assert got == want


class TestModes:
    def test_naive_mode_reports_every_kmer_hit(self):
        segment = "ACGTACGTACGT"
        finder = make_finder(segment, 4, mode=SeedingMode.NAIVE)
        seeds = finder.find_seeds("ACGTACGT")
        assert all(s.length == 4 for s in seeds)
        total_hits = sum(len(s.hits) for s in seeds)
        assert total_hits > 5  # repetitive segment: many raw hits

    def test_naive_produces_more_hits_than_smem(self):
        """Fig. 16a: SMEM filtering removes orders of magnitude of hits."""
        rng = random.Random(5)
        segment = ("ACGT" * 30) + "".join(rng.choice("ACGT") for _ in range(200))
        read = segment[10:50]
        naive = make_finder(segment, 4, mode=SeedingMode.NAIVE)
        smem = make_finder(segment, 4, mode=SeedingMode.SMEM)
        naive_hits = sum(len(s.hits) for s in naive.find_seeds(read))
        smem_hits = sum(len(s.hits) for s in smem.find_seeds(read))
        assert naive_hits > smem_hits

    def test_fixed_stride_never_longer_than_binary(self):
        """Binary extension pins the exact maximal length (>= fixed stride)."""
        rng = random.Random(6)
        segment = "".join(rng.choice("ACGT") for _ in range(400))
        read = segment[50:90]
        fixed = make_finder(segment, 5, mode=SeedingMode.SMEM_FIXED)
        binary = make_finder(segment, 5, mode=SeedingMode.SMEM)
        fixed_seeds = {s.read_offset: s.length for s in fixed.find_seeds(read)}
        binary_seeds = {s.read_offset: s.length for s in binary.find_seeds(read)}
        for offset, length in fixed_seeds.items():
            if offset in binary_seeds:
                assert binary_seeds[offset] >= length


class TestProbing:
    def test_probe_mode_same_seeds(self):
        rng = random.Random(7)
        segment = "".join(rng.choice("ACGT") for _ in range(300))
        read = segment[40:80]
        plain = make_finder(segment, 4)
        probing = make_finder(segment, 4, probe=True)
        assert [
            (s.read_offset, s.length, s.hits) for s in plain.find_seeds(read)
        ] == [(s.read_offset, s.length, s.hits) for s in probing.find_seeds(read)]

    def test_probe_selects_cheapest_second_kmer(self):
        """Fig. 16b: probing intersects with the k-mer owning fewest hits.

        The stride-k second k-mer lands inside a poly-A run (large hit
        list, the paper's pathological case) while the stride-k/2 one still
        overlaps unique sequence.  Probing must pay only the rare k-mer's
        lookups for the first intersection.
        """
        rng = random.Random(9)
        unique = "".join(rng.choice("CG") for _ in range(100))
        segment = unique + "A" * 24 + unique[::-1]
        # Pivot: last unique 4-mer before the homopolymer; the stride-4
        # k-mer is pure 'AAAA', the stride-2 k-mer is half unique.
        read = segment[96:140]
        plain = make_finder(segment, 4)
        probing = make_finder(segment, 4, probe=True)
        plain_seed = plain.rmem(read, 0)
        probe_seed = probing.rmem(read, 0)
        assert (plain_seed.read_offset, plain_seed.length, plain_seed.hits) == (
            probe_seed.read_offset,
            probe_seed.length,
            probe_seed.hits,
        )
        # Plain's first intersection streams the 'AAAA' hit list (~21
        # positions); probing's streams the rare boundary k-mer's.
        plain_first = plain.engine.stats
        probe_first = probing.engine.stats
        assert probe_first.total_lookups < plain_first.total_lookups


class TestExactMatchFastPath:
    def test_detects_exact_read(self):
        rng = random.Random(10)
        segment = "".join(rng.choice("ACGT") for _ in range(400))
        read = segment[100:160]
        finder = make_finder(segment, 6, exact_match_fast_path=True)
        (seed,) = finder.find_seeds(read)
        assert finder.stats.exact_match_reads == 1
        assert (seed.read_offset, seed.length) == (0, len(read))
        assert seed.hits == brute_force_exact_match(segment, read)
        assert 100 in seed.hits

    def test_rejects_inexact_read(self):
        rng = random.Random(11)
        segment = "".join(rng.choice("ACGT") for _ in range(400))
        read = list(segment[100:160])
        read[30] = "A" if read[30] != "A" else "C"
        finder = make_finder(segment, 6, exact_match_fast_path=True)
        seeds = finder.find_seeds("".join(read))
        assert finder.stats.exact_match_reads == 0
        assert all(seed.length < len(read) for seed in seeds)

    def test_fast_path_counted(self):
        segment = "GGGG" + "ACGTAACCGGTTACGT" + "CCCC"
        finder = make_finder(segment, 4, exact_match_fast_path=True)
        finder.find_seeds("ACGTAACCGGTTACGT")
        assert finder.stats.exact_match_reads == 1

    def test_read_shorter_than_k(self):
        finder = make_finder("ACGTACGT", 4, exact_match_fast_path=True)
        assert finder.find_seeds("AC") == []
        assert finder.stats.exact_match_reads == 0


def _repeat_segment(seed: int) -> str:
    """Diverged copies of one unit between random flanks: long hit lists."""
    rng = random.Random(seed)
    unit = "".join(rng.choice("ACGT") for _ in range(60))
    parts = []
    for _ in range(12):
        parts.append(
            "".join(b if rng.random() > 0.05 else rng.choice("ACGT") for b in unit)
        )
        parts.append("".join(rng.choice("ACGT") for _ in range(rng.randrange(5, 20))))
    return "".join(parts)


def _repeat_reads(segment: str, seed: int) -> list:
    rng = random.Random(seed)
    reads = []
    for _ in range(12):
        start = rng.randrange(len(segment) - 50)
        read = list(segment[start : start + 50])
        for _ in range(rng.randrange(0, 4)):
            read[rng.randrange(50)] = rng.choice("ACGTNacgt")
        reads.append("".join(read))
    reads.append(segment[-20:] + "ACGTACGT")  # runs off the segment end
    reads.append(segment[100:150])  # exact
    reads.extend(["", "ACG", "N" * 20])
    return reads


def _run(finder, reads):
    seeds = finder.seed_batch(ReadBatch(reads, finder.config.k))
    rmems = [finder.rmem(reads[0], pivot) for pivot in range(0, 45, 7)]
    return (
        seeds,
        rmems,
        dataclasses.asdict(finder.stats),
        dataclasses.asdict(finder.engine.stats),
    )


class TestBatchedSearchMatchesCamWalk:
    """Seeds and every counter of the batched search equal the CAM walk."""

    @pytest.mark.parametrize("cam_size", [1, 4, 512])
    @pytest.mark.parametrize("fallback", [True, False])
    @pytest.mark.parametrize("probe", [False, True])
    @pytest.mark.parametrize("mode", [SeedingMode.SMEM, SeedingMode.SMEM_FIXED])
    def test_configs(self, cam_size, fallback, probe, mode):
        segment = _repeat_segment(cam_size + 7 * probe)
        reads = _repeat_reads(segment, 3)
        config = SmemConfig(
            k=5,
            cam_size=cam_size,
            use_binary_fallback=fallback,
            probe=probe,
            mode=mode,
            exact_match_fast_path=probe,
        )
        index = KmerIndex.build(segment, 5)
        got = _run(SmemFinder(index, config), reads)
        assert got == _run(CamWalkFinder(index, config), reads)
        assert got[3]["overflow_fallbacks"] or not fallback or cam_size == 512

    @pytest.mark.parametrize("budget", [1, 600, 6_000])
    def test_chunked_search_is_the_same_search(self, monkeypatch, budget):
        segment = _repeat_segment(11)
        reads = _repeat_reads(segment, 5)
        config = SmemConfig(k=4, cam_size=2, probe=True)
        index = KmerIndex.build(segment, 4)
        want = _run(CamWalkFinder(index, config), reads)
        monkeypatch.setattr(smem, "PAIR_BUDGET", budget)
        assert _run(SmemFinder(index, config), reads) == want

    def test_packed_index_searches_alike(self):
        segment = _repeat_segment(2)
        reads = _repeat_reads(segment, 8)
        index = KmerIndex.build(segment, 6)
        config = SmemConfig(k=6, cam_size=4, probe=True)
        packed = _deserialize(_serialize([IndexTables(0, 0, index)]))[0].index
        assert _run(SmemFinder(packed, config), reads) == _run(
            CamWalkFinder(index, config), reads
        )


class TestFirstBase:
    """``_first_base``: the index of a word's first non-zero 2-bit base."""

    @staticmethod
    def _scan(word: int) -> int:
        return next(j for j in range(32) if (word >> (2 * j)) & 3)

    def test_every_position_and_base(self):
        rng = random.Random(5)
        words = []
        for position in range(32):
            # Every bit past the base: none, random ones, all of them.
            above = ((1 << 64) - 1) & ~((1 << (2 * position + 2)) - 1)
            for base in (1, 2, 3):
                low = base << (2 * position)
                words += [low, low | (rng.getrandbits(64) & above), low | above]
        got = smem._first_base(numpy.array(words, dtype=numpy.uint64))
        assert got.dtype == numpy.int64
        assert got.tolist() == [self._scan(word) for word in words]
