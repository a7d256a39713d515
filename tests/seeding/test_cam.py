"""Tests for repro.seeding.cam."""

import dataclasses

import numpy
import pytest

from repro.seeding.cam import IntersectionEngine, IntersectionStats
from repro.seeding.smem_oracle import CamWalkEngine


class TestIntersection:
    def test_basic_intersection(self):
        engine = IntersectionEngine()
        result = engine.intersect([1, 5, 9], [5, 9, 20])
        assert result == [5, 9]

    def test_offset_normalization(self):
        # Incoming hits are shifted back by the offset (§V).
        engine = IntersectionEngine()
        result = engine.intersect([10, 20], [22, 32], incoming_offset=12)
        assert result == [10, 20]

    def test_empty_candidates(self):
        engine = IntersectionEngine()
        assert engine.intersect([], [1, 2]) == []

    def test_empty_incoming(self):
        engine = IntersectionEngine()
        assert engine.intersect([1, 2], []) == []

    def test_disjoint(self):
        engine = IntersectionEngine()
        assert engine.intersect([1, 2], [3, 4]) == []

    def test_result_sorted(self):
        engine = IntersectionEngine()
        assert engine.intersect([9, 1, 5], [1, 5, 9]) == [1, 5, 9]

    def test_invalid_cam_size(self):
        with pytest.raises(ValueError):
            IntersectionEngine(cam_size=0)


class TestAccounting:
    def test_cam_lookups_counted_per_incoming_hit(self):
        engine = IntersectionEngine(cam_size=512)
        engine.intersect([1, 2, 3], [1, 2, 3, 4, 5])
        assert engine.stats.cam_lookups == 5
        assert engine.stats.cam_loads == 3

    def test_binary_fallback_on_oversized_incoming(self):
        """§V: incoming lists larger than the CAM use binary search."""
        engine = IntersectionEngine(cam_size=4)
        incoming = list(range(0, 100, 2))  # 50 entries > CAM
        result = engine.intersect([10, 11, 12], incoming)
        assert result == [10, 12]
        assert engine.stats.overflow_fallbacks == 1
        assert engine.stats.search_probes > 0
        assert engine.stats.cam_lookups == 0

    def test_binary_probes_logarithmic(self):
        engine = IntersectionEngine(cam_size=4)
        incoming = list(range(1024))
        engine.intersect([5], incoming)
        # One candidate: ~log2(1024) + 1 probes, far below linear.
        assert engine.stats.search_probes <= 12

    def test_fallback_disabled_batches_the_cam(self):
        engine = IntersectionEngine(cam_size=4, use_binary_fallback=False)
        incoming = list(range(0, 40))
        result = engine.intersect([3, 7], incoming)
        assert result == [3, 7]
        assert engine.stats.overflow_fallbacks == 0
        assert engine.stats.cam_lookups == 40

    def test_smaller_side_loaded_into_cam(self):
        # The engine loads the smaller set (the 3 incoming hits) and
        # streams the 10 candidates through it.
        engine = IntersectionEngine(cam_size=3, use_binary_fallback=False)
        candidates = list(range(10))
        result = engine.intersect(candidates, [2, 5, 8])
        assert result == [2, 5, 8]
        assert engine.stats.cam_loads == 3
        assert engine.stats.cam_lookups == 10

    def test_oversized_candidate_set_batched(self):
        # Both sides exceed the CAM with fallback off: batched passes.
        engine = IntersectionEngine(cam_size=3, use_binary_fallback=False)
        candidates = list(range(8))
        incoming = [0, 2, 4, 6, 8, 10, 12, 14, 16, 18]
        result = engine.intersect(candidates, incoming)
        assert result == [0, 2, 4, 6]
        # Smaller side (8 candidates) loads in 3 batches of <= 3; each batch
        # streams all 10 incoming hits.
        assert engine.stats.cam_lookups == 30

    def test_stats_merge(self):
        a = IntersectionStats(cam_lookups=5, search_probes=2, intersections=1)
        b = IntersectionStats(cam_lookups=3, overflow_fallbacks=1)
        a.merge(b)
        assert a.cam_lookups == 8
        assert a.total_lookups == 10
        assert a.overflow_fallbacks == 1


class TestChargeCostModel:
    """``charge`` counts what the element walk counts, one list pair or many."""

    SIZES = [(0, 5), (5, 0), (1, 1), (3, 700), (700, 3), (600, 900), (9, 9), (4, 17)]

    @pytest.mark.parametrize("cam_size", [1, 4, 512])
    @pytest.mark.parametrize("fallback", [True, False])
    def test_array_charge_equals_the_walk(self, cam_size, fallback):
        walk = CamWalkEngine(cam_size=cam_size, use_binary_fallback=fallback)
        for candidates, incoming in self.SIZES:
            walk.intersect(list(range(candidates)), list(range(incoming)))
        model = IntersectionEngine(cam_size=cam_size, use_binary_fallback=fallback)
        model.charge(
            numpy.array([c for c, __ in self.SIZES]),
            numpy.array([i for __, i in self.SIZES]),
        )
        assert dataclasses.asdict(model.stats) == dataclasses.asdict(walk.stats)
