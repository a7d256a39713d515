"""Tests for repro.seeding.analysis (CAM sizing analysis, §V)."""

import pytest

from repro.genome.reference import ReferenceBuilder, RepeatSpec, make_reference
from repro.seeding.analysis import (
    HitDistribution,
    analyze_index,
    pathological_kmers,
    recommend_cam_size,
)
from repro.seeding.index import KmerIndex


class TestHitDistribution:
    def _dist(self):
        index = KmerIndex.build("AAAAACGTACGT", k=3)  # AAA x3 overlapping
        return analyze_index(index)

    def test_counts(self):
        dist = self._dist()
        assert dist.total_positions == 10
        assert dist.max_hits >= 3  # AAA occurs three times

    def test_fraction_within(self):
        dist = self._dist()
        assert dist.fraction_within(dist.max_hits) == 1.0
        assert dist.fraction_within(0) == 0.0

    def test_quantile_monotone(self):
        dist = self._dist()
        assert dist.quantile(0.1) <= dist.quantile(0.9)

    def test_quantile_bounds(self):
        with pytest.raises(ValueError):
            self._dist().quantile(1.5)

    def test_empty_index(self):
        dist = analyze_index(KmerIndex.build("AC", k=3))
        assert dist.distinct_kmers == 0
        assert dist.fraction_within(1) == 1.0
        assert dist.quantile(0.5) == 0


class TestCamAdequacy:
    def test_random_genome_fits_small_cam(self):
        """On a mostly-unique genome nearly every k-mer has few hits."""
        reference = make_reference(30_000, seed=3)
        dist = analyze_index(KmerIndex.build(reference.sequence, 12))
        assert dist.cam_adequacy(512) > 0.999
        assert dist.cam_adequacy(8) > 0.95

    def test_repetitive_genome_needs_larger_cam(self):
        builder = ReferenceBuilder(
            length=30_000,
            seed=4,
            repeats=RepeatSpec(
                tandem_repeat_count=10,
                tandem_unit_length=2,
                tandem_copies=200,
                dispersed_repeat_count=0,
            ),
        )
        repetitive = analyze_index(KmerIndex.build(builder.build().sequence, 12))
        plain = analyze_index(
            KmerIndex.build(make_reference(30_000, seed=4).sequence, 12)
        )
        assert repetitive.max_hits > plain.max_hits

    def test_recommendation_is_power_of_two(self):
        reference = make_reference(10_000, seed=5)
        dist = analyze_index(KmerIndex.build(reference.sequence, 12))
        size = recommend_cam_size(dist)
        assert size & (size - 1) == 0
        assert dist.fraction_within(size) >= 0.99


class TestPathologicalKmers:
    def test_poly_run_tops_the_list(self):
        """§VIII-B: AA...A-style k-mers have pathological hit counts."""
        sequence = "A" * 200 + make_reference(5_000, seed=6).sequence
        index = KmerIndex.build(sequence, 12)
        worst = pathological_kmers(index, top=1)
        assert worst[0][0] == "A" * 12
        assert worst[0][1] >= 150

    def test_cache_loaded_index(self, tmp_path):
        """The analysis reads the CSR arrays, so a cache-loaded index works."""
        from repro.seeding.cache import IndexCache

        reference = make_reference(3_000, seed=8)
        IndexCache(tmp_path).load_or_build(reference, 8, 2, 16)
        warm = IndexCache(tmp_path)
        loaded = warm.load_or_build(reference, 8, 2, 16)
        assert warm.stats.hits == 1
        built = KmerIndex.build(reference.segments(2, overlap=16)[0].sequence, 8)
        assert pathological_kmers(loaded[0].index, top=7) == pathological_kmers(
            built, top=7
        )
        assert analyze_index(loaded[0].index) == analyze_index(built)

    def test_ties_break_by_code(self):
        # Every 2-mer of ACGT once: all tie at one hit, so code order wins.
        index = KmerIndex.build("TTGGAC", 2)
        assert pathological_kmers(index, top=4) == [
            ("AC", 1), ("GA", 1), ("GG", 1), ("TG", 1)
        ]
        assert pathological_kmers(index, top=0) == []

    def test_top_list_sorted(self):
        index = KmerIndex.build(make_reference(5_000, seed=7).sequence, 8)
        worst = pathological_kmers(index, top=5)
        counts = [count for __, count in worst]
        assert counts == sorted(counts, reverse=True)
