"""Robustness: degenerate and adversarial inputs through the pipelines."""

import pytest

from repro.pipeline.bwamem import BwaMemAligner, BwaMemConfig
from repro.pipeline.genax import GenAxAligner, GenAxConfig
from repro.seeding.fmindex import FmIndexSeeder
from repro.seeding.index import KmerIndex
from repro.seeding.smem import SmemConfig, SmemFinder


@pytest.fixture(scope="module")
def genax(small_reference):
    return GenAxAligner(small_reference, GenAxConfig(edit_bound=10, segment_count=3))


class TestAmbiguousBases:
    def test_kmer_index_tolerates_n(self):
        index = KmerIndex.build("ACGTACGT", 4)
        assert list(index.hits("ACNT")) == []

    def test_read_with_n_still_maps(self, small_reference, genax):
        read = list(small_reference.sequence[1000:1101])
        read[50] = "N"
        mapped = genax.align_read("n_read", "".join(read))
        assert mapped.position == 1000
        assert mapped.cigar.count("X") == 1  # the N scores as a mismatch

    def test_all_n_read_unmapped(self, genax):
        mapped = genax.align_read("all_n", "N" * 101)
        assert mapped.is_unmapped

    def test_bwamem_matches_genax_on_n_read(self, small_reference, genax):
        bwa = BwaMemAligner(small_reference, BwaMemConfig(band=10))
        read = list(small_reference.sequence[2000:2101])
        read[30] = "N"
        read = "".join(read)
        assert bwa.align_read("n", read).score == genax.align_read("n", read).score

    def test_fmindex_seeder_tolerates_n(self):
        # The FM-index never sees k-mer codes, so it independently checks
        # that an N ends every exact match, as kmer_codes' -1 entries do.
        segment = "ACGTACGTACGTACGT"
        read = "ACGTN" * 3 + "TACGTA"
        fm_seeds = FmIndexSeeder(segment, 4).find_seeds(read)
        table_seeds = SmemFinder(
            KmerIndex.build(segment, 4), SmemConfig(k=4)
        ).find_seeds(read)
        assert fm_seeds == table_seeds
        assert fm_seeds  # the clean k-mers still seed


class TestDegenerateReads:
    def test_read_shorter_than_k(self, genax):
        mapped = genax.align_read("tiny", "ACGT")
        assert mapped.is_unmapped  # no seeds possible, score < min_score

    def test_empty_read(self, genax):
        mapped = genax.align_read("empty", "")
        assert mapped.is_unmapped

    def test_read_longer_than_any_segment_window(self, small_reference):
        aligner = GenAxAligner(
            small_reference, GenAxConfig(edit_bound=8, segment_count=3)
        )
        read = small_reference.sequence[100:800]  # 700 bp "long read"
        mapped = aligner.align_read("long", read)
        assert mapped.position == 100
        assert mapped.score == 700

    def test_homopolymer_read(self, genax):
        # Poly-A probably doesn't occur at length 101; must not hang/crash.
        mapped = genax.align_read("polya", "A" * 101)
        assert mapped.is_unmapped or mapped.score >= 30

    def test_read_at_genome_start_and_end(self, small_reference, genax):
        first = genax.align_read("first", small_reference.sequence[:101])
        last = genax.align_read("last", small_reference.sequence[-101:])
        assert first.position == 0
        assert last.position == len(small_reference) - 101
