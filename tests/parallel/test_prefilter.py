"""Tests for the lossless filter budget and the Myers cascade in genax."""

import dataclasses

import pytest

from repro.align.prefilter import lossless_threshold
from repro.align.scoring import BWA_MEM_SCHEME, ScoringScheme
from repro.filters import build_cascade
from repro.pipeline.genax import GenAxAligner, GenAxConfig
from repro.pipeline.stages import PipelineDriver

CONFIG = dict(edit_bound=12, segment_count=4)


def mapping_key(mapped):
    return [
        (m.read_name, m.position, m.reverse, m.score, str(m.cigar),
         m.mapping_quality, m.secondary_count)
        for m in mapped
    ]


class TestLosslessThreshold:
    def test_formula(self):
        scheme = ScoringScheme(match=2, substitution=-4, gap_open=-6,
                               gap_extend=-1)
        # unit = min(2, 1) = 1; (2*100 - 30) // 1 = 170.
        assert lossless_threshold(100, scheme, 30) == 170

    def test_bwa_scheme(self):
        expected = (
            BWA_MEM_SCHEME.match * 101 - 30
        ) // min(BWA_MEM_SCHEME.match, -BWA_MEM_SCHEME.gap_extend)
        assert lossless_threshold(101, BWA_MEM_SCHEME, 30) == expected

    def test_perfect_score_requires_zero_edits(self):
        scheme = ScoringScheme(match=1, substitution=-4, gap_open=-6,
                               gap_extend=-1)
        assert lossless_threshold(50, scheme, 50) == 0


class TestPipelineIntegration:
    @pytest.fixture(scope="class")
    def baseline(self, small_reference, simulated_reads):
        aligner = GenAxAligner(small_reference, GenAxConfig(**CONFIG))
        batch = [(s.name, s.sequence) for s in simulated_reads[:8]]
        return batch, aligner.align_batch(batch), aligner

    def test_default_threshold_counters_consistent(
        self, small_reference, baseline
    ):
        batch, __, plain = baseline
        aligner = GenAxAligner(
            small_reference, GenAxConfig(filters=("myers",), **CONFIG)
        )
        aligner.align_batch(batch)
        stats = aligner.stats
        (__, myers), = aligner.cascade.report()
        assert stats.candidates_filtered + stats.candidates_survived > 0
        assert stats.candidates_filtered == myers.rejected
        assert stats.candidates_survived == myers.survived
        assert stats.prefilter_cycles == myers.cycles
        # Only survivors reach the SillaX lanes.
        assert aligner.lane_stats.extensions == stats.candidates_survived
        assert plain.lane_stats.extensions == (
            stats.candidates_filtered + stats.candidates_survived
        )
        assert stats.prefilter_cycles > 0

    def test_lossless_threshold_preserves_mappings(
        self, small_reference, baseline
    ):
        """With the provably-safe budget, the filter never changes output."""
        batch, plain_mapped, plain = baseline
        threshold = lossless_threshold(
            len(batch[0][1]), plain.config.scheme, plain.config.min_score
        )
        # The cascade budget is the SillaX edit bound; install a Myers
        # stage at the (looser) lossless budget behind the same stages.
        stages = GenAxAligner(
            small_reference, GenAxConfig(**CONFIG)
        )._driver.stages
        cascade = build_cascade(
            ("myers",), small_reference, threshold, CONFIG["edit_bound"]
        )
        driver = PipelineDriver(dataclasses.replace(stages, cascade=cascade))
        assert mapping_key(driver.align_batch(batch)) == mapping_key(
            plain_mapped
        )

    def test_default_threshold_preserves_mappings_on_workload(
        self, small_reference, baseline
    ):
        """Simulated reads stay within the edit bound, so defaults agree too."""
        batch, plain_mapped, __ = baseline
        aligner = GenAxAligner(
            small_reference, GenAxConfig(filters=("myers",), **CONFIG)
        )
        assert mapping_key(aligner.align_batch(batch)) == mapping_key(
            plain_mapped
        )

    def test_cascade_none_when_disabled(self, small_reference):
        aligner = GenAxAligner(small_reference, GenAxConfig(**CONFIG))
        assert aligner.cascade is None
