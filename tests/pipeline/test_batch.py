"""Tests for GenAx segment-major batch alignment."""

import dataclasses

import pytest

from repro.model.power import GenAxPowerModel
from repro.pipeline.genax import GenAxAligner, GenAxConfig
from repro.pipeline.registry import backend_names, get_backend


def default_cascade_config(backend):
    """*backend*'s default config at this file's operating point, running
    the ``myers`` filter cascade wherever the backend takes one."""
    config = get_backend(backend).default_config()
    overrides = {"edit_bound": 12, "band": 12, "segment_count": 4,
                 "filters": ("myers",)}
    names = {field.name for field in dataclasses.fields(config)}
    return dataclasses.replace(
        config, **{k: v for k, v in overrides.items() if k in names}
    )


@pytest.fixture(scope="module")
def read_batch(small_reference, simulated_reads):
    return [(s.name, s.sequence) for s in simulated_reads[:10]]


class TestAlignBatch:
    def test_identical_to_per_read_mode(self, small_reference, read_batch):
        per_read = GenAxAligner(small_reference, GenAxConfig(edit_bound=12, segment_count=4))
        batch = GenAxAligner(small_reference, GenAxConfig(edit_bound=12, segment_count=4))
        a = per_read.align_reads(read_batch)
        b = batch.align_batch(read_batch)
        for x, y in zip(a, b):
            assert (x.position, x.reverse, x.score) == (y.position, y.reverse, y.score)
            assert str(x.cigar) == str(y.cigar)

    def test_tables_streamed_once_per_batch(self, small_reference, read_batch):
        """§VI: segment-major order streams each segment's tables once."""
        per_read = GenAxAligner(small_reference, GenAxConfig(edit_bound=12, segment_count=4))
        batch = GenAxAligner(small_reference, GenAxConfig(edit_bound=12, segment_count=4))
        per_read.align_reads(read_batch)
        batch.align_batch(read_batch)
        assert (
            batch.seeding_stats.table_bytes_streamed
            < per_read.seeding_stats.table_bytes_streamed / 5
        )

    def test_stats_counted_once_per_read(self, small_reference, read_batch):
        aligner = GenAxAligner(small_reference, GenAxConfig(edit_bound=12, segment_count=4))
        aligner.align_batch(read_batch)
        assert aligner.stats.reads_total == len(read_batch)
        assert (
            aligner.stats.reads_mapped + aligner.stats.reads_unmapped
            == len(read_batch)
        )

    @pytest.mark.parametrize("backend", backend_names())
    def test_alignment_stats_identical_to_per_read_mode(
        self, backend, small_reference, read_batch
    ):
        """Per-read and batch modes map identically and count the same
        events — including ``reads_exact``, which once diverged because
        per-read mode counted a read twice when both strands matched
        exactly."""
        spec = get_backend(backend)
        per_read = spec.build(
            small_reference, default_cascade_config(backend), None
        )
        batch = spec.build(
            small_reference, default_cascade_config(backend), None
        )
        assert per_read.align_reads(read_batch) == batch.align_batch(
            read_batch
        )
        assert per_read.stats == batch.stats
        assert per_read.stats.reads_exact == batch.stats.reads_exact

    def test_empty_batch(self, small_reference):
        aligner = GenAxAligner(small_reference, GenAxConfig(edit_bound=8, segment_count=2))
        assert aligner.align_batch([]) == []


class TestEnergyModel:
    def test_energy_per_read_microjoules(self):
        model = GenAxPowerModel()
        # ~15.4 W at ~4M reads/s -> ~3.8 uJ per read.
        assert model.energy_per_read_uj() == pytest.approx(3.8, rel=0.05)

    def test_energy_efficiency_combines_headlines(self):
        model = GenAxPowerModel()
        # 31.7x throughput x 12x power.
        assert model.energy_efficiency_vs_cpu() == pytest.approx(31.7 * 12.0, rel=0.02)

    def test_invalid_throughput(self):
        with pytest.raises(ValueError):
            GenAxPowerModel().energy_per_read_uj(0)
