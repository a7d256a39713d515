"""Tests for repro.pipeline.assembly_aligner (multi-contig mapping)."""

import pytest

from repro.genome.assembly import Assembly, Contig
from repro.genome.reference import make_reference
from repro.pipeline.assembly_aligner import AssemblyAligner
from repro.pipeline.bwamem import BwaMemConfig
from repro.pipeline.genax import GenAxConfig
from repro.pipeline.registry import backend_names, get_backend


@pytest.fixture(scope="module")
def assembly():
    chr1 = make_reference(6_000, seed=61, name="chr1").sequence
    chr2 = make_reference(4_000, seed=62, name="chr2").sequence
    return Assembly([Contig("chr1", chr1), Contig("chr2", chr2)])


@pytest.fixture(scope="module")
def aligner(assembly):
    return AssemblyAligner(
        assembly, GenAxConfig(edit_bound=10, segment_count=2)
    )


class TestAssemblyAligner:
    def test_maps_into_first_contig(self, assembly, aligner):
        read = assembly.contig("chr1").sequence[500:601]
        mapping = aligner.align_read("r1", read)
        assert mapping.contig == "chr1"
        assert mapping.offset == 500

    def test_maps_into_second_contig(self, assembly, aligner):
        read = assembly.contig("chr2").sequence[1000:1101]
        mapping = aligner.align_read("r2", read)
        assert mapping.contig == "chr2"
        assert mapping.offset == 1000

    def test_boundary_chimera_rejected(self, assembly):
        """A read stitched across the contig junction must not map there."""
        chr1 = assembly.contig("chr1").sequence
        chr2 = assembly.contig("chr2").sequence
        chimeric = chr1[-50:] + chr2[:51]
        aligner = AssemblyAligner(assembly, GenAxConfig(edit_bound=10, segment_count=2))
        mapping = aligner.align_read("chimera", chimeric)
        if not mapping.is_unmapped:
            # If mapped, it must be a genuine single-contig placement, not
            # the concatenation artifact.
            span_start = assembly.contig_start(mapping.contig) + mapping.offset
            assert not assembly.crosses_boundary(span_start, span_start + 101)

    def test_unmapped_read(self, aligner):
        mapping = aligner.align_read("junk", "AT" * 50 + "A")
        assert mapping.is_unmapped or mapping.score >= 30

    def test_bwamem_backend(self, assembly):
        aligner = AssemblyAligner(assembly, BwaMemConfig(band=10))
        chr1 = assembly.contig("chr1").sequence

        def occurrences(window: str) -> int:
            # Overlap-aware (str.count misses overlapping tandem copies).
            return sum(
                1
                for i in range(len(chr1) - len(window) + 1)
                if chr1[i : i + len(window)] == window
            )

        # Pick a window that occurs exactly once (the builder plants
        # repeats, so some windows legitimately have several placements).
        start = next(
            s for s in range(100, 3000, 100) if occurrences(chr1[s : s + 101]) == 1
        )
        mapping = aligner.align_read("r", chr1[start : start + 101])
        assert mapping.contig == "chr1"
        assert mapping.offset == start

    def test_batch(self, assembly, aligner):
        reads = [
            ("a", assembly.contig("chr1").sequence[2000:2101]),
            ("b", assembly.contig("chr2").sequence[2000:2101]),
        ]
        mappings = aligner.align_batch(reads)
        assert [m.contig for m in mappings] == ["chr1", "chr2"]

    @pytest.mark.parametrize("backend", backend_names())
    def test_batch_on_every_backend(self, assembly, backend):
        """Any registered backend's config builds that backend, and one
        batch maps each read into its own contig."""
        aligner = AssemblyAligner(
            assembly, get_backend(backend).default_config()
        )
        reads = [
            ("a", assembly.contig("chr1").sequence[2000:2101]),
            ("b", assembly.contig("chr2").sequence[1000:1101]),
        ]
        mappings = aligner.align_batch(reads)
        assert [(m.contig, m.offset) for m in mappings] == [
            ("chr1", 2000),
            ("chr2", 1000),
        ]
        assert aligner.stats.reads_total == 2
