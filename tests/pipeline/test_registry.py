"""Tests for the pipeline backend registry (repro.pipeline.registry)."""

from pathlib import Path

import pytest

from repro.align.records import AlignmentStats
from repro.pipeline.bitvector import BitvectorConfig
from repro.pipeline.bwamem import BwaMemAligner, BwaMemConfig
from repro.pipeline.genax import GenAxAligner, GenAxConfig
from repro.pipeline.registry import (
    GENAX_BACKEND,
    BackendRunStats,
    backend_for_config,
    backend_names,
    build_aligner,
    get_backend,
    register_backend,
    render_backend_table,
)
from repro.seeding.accelerator import SeedingStats
from repro.sillax.lane import LaneStats

README = Path(__file__).parents[2] / "README.md"


class TestLookup:
    def test_registered_names_in_order(self):
        assert backend_names() == ("genax", "bwamem", "bitvector", "longread")

    def test_get_backend_round_trip(self):
        for name in backend_names():
            assert get_backend(name).name == name

    def test_unknown_backend_lists_known(self):
        with pytest.raises(ValueError, match="unknown backend.*bwamem.*genax"):
            get_backend("minimap2")

    def test_backend_for_config(self):
        assert backend_for_config(GenAxConfig()).name == "genax"
        assert backend_for_config(BwaMemConfig()).name == "bwamem"
        assert backend_for_config(BitvectorConfig()).name == "bitvector"

    def test_backend_for_unknown_config_type(self):
        with pytest.raises(ValueError, match="no registered backend"):
            backend_for_config(object())

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend(GENAX_BACKEND)


class TestFactories:
    def test_build_aligner_with_default_config(self, tiny_reference):
        aligner = build_aligner("bwamem", tiny_reference)
        assert isinstance(aligner, BwaMemAligner)
        assert isinstance(aligner.config, BwaMemConfig)

    def test_build_aligner_reuses_prepared_tables(self, tiny_reference):
        spec = get_backend("genax")
        config = GenAxConfig(segment_count=2)
        shared = spec.prepare(tiny_reference, config)
        aligner = spec.build(tiny_reference, config, shared)
        assert isinstance(aligner, GenAxAligner)
        # The prepared segment tables are installed, not rebuilt.
        assert aligner.seeder.tables is shared

    def test_collect_snapshots_counters(self, tiny_reference):
        for name, expects_lanes in (
            ("genax", True),
            ("bwamem", False),
            ("bitvector", False),
        ):
            spec = get_backend(name)
            aligner = build_aligner(name, tiny_reference)
            aligner.align_read("r", tiny_reference.sequence[100:201])
            bundle = spec.collect(aligner)
            assert bundle.backend == name
            assert bundle.alignment.reads_total == 1
            assert (bundle.lanes is not None) == expects_lanes
            assert (bundle.seeding is not None) == expects_lanes


class TestBackendRunStats:
    def test_merge_rejects_backend_mismatch(self):
        genax = BackendRunStats(backend="genax")
        bwamem = BackendRunStats(backend="bwamem")
        with pytest.raises(ValueError, match="cannot merge"):
            genax.merge(bwamem)

    def test_merge_is_additive(self):
        left = BackendRunStats(
            backend="genax", alignment=AlignmentStats(reads_total=2)
        )
        right = BackendRunStats(
            backend="genax", alignment=AlignmentStats(reads_total=3)
        )
        left.merge(right)
        assert left.alignment.reads_total == 5

    def test_merge_materialises_optional_sections(self):
        bare = BackendRunStats(backend="genax")
        assert bare.lanes is None and bare.seeding is None
        populated = BackendRunStats(
            backend="genax",
            lanes=LaneStats(extensions=4),
            seeding=SeedingStats(reads_processed=7),
        )
        bare.merge(populated)
        assert bare.lanes is not None and bare.lanes.extensions == 4
        assert bare.seeding is not None and bare.seeding.reads_processed == 7

    def test_merge_from_empty_keeps_sections_none(self):
        bare = BackendRunStats(backend="bwamem")
        bare.merge(BackendRunStats(backend="bwamem"))
        assert bare.lanes is None and bare.seeding is None


class TestRenderedTable:
    def test_table_lists_every_backend(self):
        table = render_backend_table()
        for name in backend_names():
            assert f"| `{name}` |" in table

    def test_readme_table_matches_registry(self):
        """The README embeds the rendered table verbatim; regenerate with
        ``PYTHONPATH=src python -m repro.pipeline.registry`` on drift."""
        assert render_backend_table() in README.read_text()
