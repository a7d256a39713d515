"""Tests for repro.pipeline.genax."""

import pytest

from repro.genome.sequence import reverse_complement
from repro.pipeline.genax import GenAxAligner, GenAxConfig


@pytest.fixture(scope="module")
def aligner(small_reference):
    return GenAxAligner(
        small_reference, GenAxConfig(edit_bound=12, segment_count=4)
    )


class TestGenAx:
    def test_exact_read(self, small_reference, aligner):
        read = small_reference.sequence[900:1001]
        mapped = aligner.align_read("exact", read)
        assert mapped.position == 900
        assert mapped.score == 101
        assert str(mapped.cigar) == "101="

    def test_exact_fast_path_skips_extension(self, small_reference):
        aligner = GenAxAligner(small_reference, GenAxConfig(edit_bound=8, segment_count=4))
        before = aligner.lane_stats.extensions
        aligner.align_read("exact", small_reference.sequence[60:161])
        assert aligner.stats.reads_exact == 1
        # Forward strand resolved exactly; only the reverse strand may extend.
        assert aligner.lane_stats.extensions - before <= 8

    def test_substitution_read(self, small_reference, aligner):
        read = list(small_reference.sequence[2500:2601])
        read[40] = "A" if read[40] != "A" else "C"
        mapped = aligner.align_read("sub", "".join(read))
        assert mapped.position == 2500
        assert mapped.score == 100 - 4
        assert mapped.cigar.count("X") == 1

    def test_reverse_read(self, small_reference, aligner):
        read = reverse_complement(small_reference.sequence[4000:4101])
        mapped = aligner.align_read("rev", read)
        assert mapped.position == 4000
        assert mapped.reverse

    def test_insertion_read(self, small_reference, aligner):
        window = small_reference.sequence[6000:6101]
        read = window[:60] + "T" + window[60:100]
        mapped = aligner.align_read("ins", read)
        assert mapped.position == 6000
        assert mapped.cigar.count("I") >= 1

    def test_lane_cycles_accounted(self, small_reference):
        aligner = GenAxAligner(small_reference, GenAxConfig(edit_bound=8, segment_count=4))
        read = list(small_reference.sequence[3000:3101])
        read[20] = "A" if read[20] != "A" else "C"
        aligner.align_read("x", "".join(read))
        stats = aligner.lane_stats
        assert stats.extensions > 0
        assert stats.cycles > stats.extensions * 100  # > N cycles per hit

    def test_work_distributed_across_lanes(self, small_reference):
        aligner = GenAxAligner(
            small_reference, GenAxConfig(edit_bound=8, segment_count=4, sillax_lanes=4)
        )
        for start in (1000, 2000, 3000, 4000):
            read = list(small_reference.sequence[start : start + 101])
            read[13] = "A" if read[13] != "A" else "C"
            aligner.align_read(f"r{start}", "".join(read))
        lanes = aligner._engine._lane_stats  # per-lane counters live on the engine
        busy_lanes = sum(1 for stats in lanes if stats.extensions)
        assert busy_lanes >= 2

    def test_seeding_stats_populated(self, aligner, small_reference):
        aligner.align_read("s", small_reference.sequence[7000:7101])
        assert aligner.seeding_stats.finder.index_lookups > 0

    def test_simulated_reads_accuracy(self, small_reference, simulated_reads):
        aligner = GenAxAligner(small_reference, GenAxConfig(edit_bound=12, segment_count=4))
        near = 0
        for sim in simulated_reads:
            mapped = aligner.align_read(sim.name, sim.sequence)
            if not mapped.is_unmapped and abs(mapped.position - sim.true_position) <= 12:
                near += 1
        assert near >= int(0.8 * len(simulated_reads))
