"""Tests for repro.pipeline.bwamem."""

import pytest

from repro.align.banded import banded_extension_align
from repro.align.records import AlignmentStats
from repro.genome.sequence import reverse_complement
from repro.pipeline.bwamem import (
    BandedExtensionEngine,
    BwaMemAligner,
    BwaMemConfig,
)
from repro.pipeline.common import Candidate, Extension, fetch_window


@pytest.fixture(scope="module")
def aligner(small_reference):
    return BwaMemAligner(small_reference, BwaMemConfig(band=12))


class TestBwaMem:
    def test_exact_read_maps_to_origin(self, small_reference, aligner):
        read = small_reference.sequence[700:801]
        mapped = aligner.align_read("exact", read)
        assert mapped.position == 700
        assert not mapped.reverse
        assert mapped.score == 101
        assert str(mapped.cigar) == "101="

    def test_exact_fast_path_counted(self, small_reference):
        aligner = BwaMemAligner(small_reference, BwaMemConfig(band=12))
        aligner.align_read("exact", small_reference.sequence[50:151])
        assert aligner.stats.reads_exact >= 1

    def test_exact_read_counted_once_not_per_strand(self, small_reference):
        """Regression: reads_exact used to be bumped once per *strand*,
        double-counting reads; the shared driver counts once per read."""
        aligner = BwaMemAligner(small_reference, BwaMemConfig(band=12))
        aligner.align_read("exact", small_reference.sequence[50:151])
        assert aligner.stats.reads_exact == 1

    def test_one_batch_matches_one_read_batches(self, small_reference):
        reads = [
            ("a", small_reference.sequence[100:201]),
            ("b", small_reference.sequence[400:501]),
        ]
        per_read = BwaMemAligner(small_reference, BwaMemConfig(band=12))
        batch = BwaMemAligner(small_reference, BwaMemConfig(band=12))
        rows = lambda mapped: [
            (m.read_name, m.position, m.reverse, m.score, str(m.cigar))
            for m in mapped
        ]
        singles = [per_read.align_batch([read])[0] for read in reads]
        assert rows(singles) == rows(batch.align_batch(reads))
        assert per_read.stats == batch.stats

    def test_read_with_substitution(self, small_reference, aligner):
        read = list(small_reference.sequence[1200:1301])
        read[50] = "A" if read[50] != "A" else "C"
        mapped = aligner.align_read("sub", "".join(read))
        assert mapped.position == 1200
        assert mapped.score == 100 - 4
        assert mapped.cigar.count("X") == 1

    def test_reverse_strand_read(self, small_reference, aligner):
        read = reverse_complement(small_reference.sequence[3000:3101])
        mapped = aligner.align_read("rev", read)
        assert mapped.position == 3000
        assert mapped.reverse

    def test_read_with_deletion(self, small_reference, aligner):
        window = small_reference.sequence[5000:5106]
        read = window[:50] + window[53:104]  # 3-base deletion
        mapped = aligner.align_read("del", read)
        assert mapped.position == 5000
        assert mapped.cigar.count("D") == 3

    def test_unmappable_read(self, aligner):
        mapped = aligner.align_read("junk", "ACGT" * 25 + "A")
        # A random-ish repeat probably maps nowhere with score >= 30 unless
        # the genome contains it; just require a coherent answer.
        assert mapped.is_unmapped or mapped.score >= 30

    def test_align_batch(self, small_reference, aligner):
        reads = [
            ("a", small_reference.sequence[100:201]),
            ("b", small_reference.sequence[400:501]),
        ]
        mapped = aligner.align_batch(reads)
        assert [m.position for m in mapped] == [100, 400]

    def test_dp_cells_counted_for_inexact_reads(self, small_reference):
        aligner = BwaMemAligner(small_reference, BwaMemConfig(band=12))
        read = list(small_reference.sequence[2000:2101])
        read[10] = "A" if read[10] != "A" else "C"
        aligner.align_read("x", "".join(read))
        assert aligner.stats.dp_cells > 0

    def test_simulated_reads_map_near_truth(self, small_reference, simulated_reads):
        aligner = BwaMemAligner(small_reference, BwaMemConfig(band=12))
        near = 0
        for sim in simulated_reads:
            mapped = aligner.align_read(sim.name, sim.sequence)
            if not mapped.is_unmapped and abs(mapped.position - sim.true_position) <= 12:
                near += 1
        assert near >= int(0.8 * len(simulated_reads))


class TestBandedExtensionEngine:
    def test_extend_batch_equals_scalar_dp_per_job(self, small_reference):
        band = 12
        scheme = BwaMemConfig().scheme
        text = small_reference.sequence
        end = len(text)
        substituted = list(text[1200:1301])
        substituted[50] = "A" if substituted[50] != "A" else "C"
        placements = [
            (text[700:801], 700),  # exact
            ("".join(substituted), 1200),  # one substitution
            (text[5000:5050] + text[5053:5104], 5000),  # 3-base deletion
            (reverse_complement(text[3000:3101]), 3000),  # wrong strand
            ("ACGT" * 25 + "A", 9000),  # unrelated read
            (text[0:95], -6),  # window starts before the genome
            (text[end - 80 :], end - 80),  # slack runs past the genome end
            (text[end - 50 :] + "ACGTACGTAC", end - 50),  # read outruns it
        ]
        jobs = [
            (read, Candidate(window_start=start, reverse=False, seed_length=20))
            for read, start in placements
        ]
        expected_stats = AlignmentStats()
        expected = []
        for read, candidate in jobs:
            window = fetch_window(small_reference, candidate, len(read), band)
            result = banded_extension_align(window, read, band, scheme)
            expected_stats.extensions += 1
            expected_stats.dp_cells += result.cells_computed
            alignment = result.alignment
            expected.append(
                Extension(
                    candidate=candidate,
                    score=alignment.score,
                    position=max(0, candidate.window_start)
                    + alignment.reference_start,
                    cigar=alignment.cigar,
                    query_end=alignment.query_end,
                )
            )
        engine = BandedExtensionEngine(small_reference, band, scheme)
        stats = AlignmentStats()
        batched = engine.extend_batch(jobs, stats)
        assert batched == expected
        assert stats == expected_stats
        assert (batched[0].position, batched[0].score) == (700, 101)
        assert batched[5].position == 0
        assert engine.extend_batch([], AlignmentStats()) == []
