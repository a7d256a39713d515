"""Robustness: degenerate and adversarial inputs through the pipelines."""

import pytest

from repro.pipeline.bwamem import BwaMemAligner, BwaMemConfig
from repro.pipeline.genax import GenAxAligner, GenAxConfig
from repro.pipeline.registry import backend_names, get_backend
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


class TestLowerCase:
    @pytest.mark.parametrize("backend", backend_names())
    def test_lower_case_copy_maps_like_upper_case(
        self, small_reference, backend
    ):
        # The driver folds case once, before seeding, so every backend
        # maps a soft-masked read like its upper-case copy.
        read = list(small_reference.sequence[3000:3101])
        read[40] = "A" if read[40] != "A" else "C"
        read = "".join(read)
        spec = get_backend(backend)
        aligner = spec.build(small_reference, spec.default_config(), None)
        upper, lower, mixed = aligner.align_batch(
            [("upper", read), ("lower", read.lower()),
             ("mixed", read[:60].lower() + read[60:])]
        )
        assert (upper.position, upper.reverse) == (3000, False)
        for record in (lower, mixed):
            assert (record.position, record.reverse, record.score) == (
                upper.position, upper.reverse, upper.score
            )
            assert str(record.cigar) == str(upper.cigar)
        single = aligner.align_read("lower", read.lower())
        assert (single.position, str(single.cigar)) == (3000, str(upper.cigar))


def default_aligner(backend, reference):
    spec = get_backend(backend)
    return spec.build(reference, spec.default_config(), None)


class TestDegenerateReads:
    @pytest.mark.parametrize("backend", backend_names())
    def test_read_shorter_than_k(self, small_reference, backend):
        mapped = default_aligner(backend, small_reference).align_read(
            "tiny", "ACGT"
        )
        assert mapped.is_unmapped  # no seeds possible, score < min_score
        assert mapped.position == -1

    @pytest.mark.parametrize("backend", backend_names())
    def test_empty_read(self, small_reference, backend):
        mapped = default_aligner(backend, small_reference).align_read(
            "empty", ""
        )
        assert mapped.is_unmapped
        assert mapped.position == -1

    @pytest.mark.parametrize("backend", backend_names())
    def test_degenerate_reads_inside_a_batch(
        self, small_reference, simulated_reads, backend
    ):
        # An empty and a 5 bp read in the middle of a batch come back
        # unmapped without aborting it, and every other read maps exactly
        # as it does in a batch of its own.
        normal = [(s.name, s.sequence) for s in simulated_reads[:6]]
        batch = normal[:3] + [("empty", ""), ("short", "ACGTA")] + normal[3:]
        mapped = default_aligner(backend, small_reference).align_batch(batch)
        assert [m.read_name for m in mapped] == [name for name, __ in batch]
        assert [m.position for m in mapped[3:5]] == [-1, -1]
        alone = default_aligner(backend, small_reference)
        assert mapped[:3] + mapped[5:] == [
            alone.align_batch([read])[0] for read in normal
        ]

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
