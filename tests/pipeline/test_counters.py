"""Tests for repro.pipeline.counters."""

import warnings

import pytest

from repro.pipeline.counters import (
    GenAxCounters,
    collect_counters,
    publish_counters,
)
from repro.pipeline.genax import GenAxAligner, GenAxConfig
from repro.pipeline.registry import backend_names, get_backend
from repro.telemetry.metrics import MetricRegistry


@pytest.fixture(scope="module")
def run_counters(small_reference, simulated_reads):
    aligner = GenAxAligner(small_reference, GenAxConfig(edit_bound=10, segment_count=3))
    aligner.align_batch([(s.name, s.sequence) for s in simulated_reads[:8]])
    return collect_counters(aligner)


class TestCounters:
    def test_read_accounting_consistent(self, run_counters):
        c = run_counters
        assert c.reads_total == 8
        assert c.reads_mapped + c.reads_unmapped == c.reads_total
        assert 0 <= c.reads_exact <= c.reads_total

    def test_fractions(self, run_counters):
        assert 0.0 <= run_counters.mapped_fraction <= 1.0
        assert 0.0 <= run_counters.exact_fraction <= 1.0

    def test_cycles_positive_when_extensions_ran(self, run_counters):
        if run_counters.extensions:
            assert run_counters.sillax_cycles > 0
            assert run_counters.sillax_cycles_per_extension > 100

    def test_seeding_counters_populated(self, run_counters):
        assert run_counters.index_lookups > 0
        assert run_counters.seeding_cycles >= 2 * run_counters.index_lookups
        assert run_counters.table_bytes_streamed > 0

    def test_as_dict_complete(self, run_counters):
        d = run_counters.as_dict()
        assert set(d) >= {
            "reads_total",
            "extensions",
            "sillax_cycles",
            "seeding_cycles",
            "table_bytes_streamed",
        }

    def test_render_readable(self, run_counters):
        text = run_counters.render()
        assert "GenAx counters" in text
        assert "reads: 8 total" in text

    def test_empty_counters(self):
        empty = GenAxCounters(
            reads_total=0, reads_mapped=0, reads_exact=0, reads_unmapped=0,
            extensions=0, sillax_cycles=0, sillax_cycles_per_extension=0.0,
            rerun_events=0, rerun_fraction=0.0, index_lookups=0,
            intersection_lookups=0, seeding_cycles=0, table_bytes_streamed=0,
        )
        assert empty.mapped_fraction == 0.0
        assert empty.exact_fraction == 0.0


class TestGracefulDegradation:
    """Satellite: collect_counters never crashes on a stats-poor backend.

    Every registered backend must survive the rollup.  Backends without
    the hardware-model surfaces (``lane_stats`` / ``seeding_stats``)
    degrade those counter groups to zeros with a RuntimeWarning instead
    of raising AttributeError.
    """

    @pytest.fixture(scope="class")
    def backend_runs(self, small_reference, simulated_reads):
        runs = {}
        for name in backend_names():
            spec = get_backend(name)
            aligner = spec.build(small_reference, spec.default_config(), None)
            aligner.align_batch(
                [(s.name, s.sequence) for s in simulated_reads[:4]]
            )
            runs[name] = aligner
        return runs

    @pytest.mark.parametrize("name", backend_names())
    def test_collect_never_raises(self, backend_runs, name):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            counters = collect_counters(backend_runs[name])
        assert counters.reads_total == 4
        assert counters.reads_mapped + counters.reads_unmapped == 4

    def test_hardware_backend_collects_silently(self, backend_runs):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            counters = collect_counters(backend_runs["genax"])
        assert counters.index_lookups > 0
        # The shared count and the SillaX lanes' own count agree on genax.
        assert counters.extensions == backend_runs["genax"].lane_stats.extensions

    def test_software_backend_warns_and_zeros(self, backend_runs):
        with pytest.warns(RuntimeWarning) as caught:
            counters = collect_counters(backend_runs["bwamem"])
        messages = [str(w.message) for w in caught]
        assert any("lane_stats" in m for m in messages)
        assert any("seeding_stats" in m for m in messages)
        # Extensions come from the shared AlignmentStats, so a software
        # backend reports its real work; only SillaX/seeding model
        # counters are zeroed.
        assert counters.extensions == backend_runs["bwamem"].stats.extensions
        assert counters.extensions > 0
        assert counters.sillax_cycles == 0
        assert counters.index_lookups == 0
        assert counters.seeding_cycles == 0

    class _BareAligner:
        """The minimal CounterSource: stats only, nothing else."""

        def __init__(self):
            from repro.align.records import AlignmentStats

            self.stats = AlignmentStats()

    def test_minimal_counter_source_supported(self):
        with pytest.warns(RuntimeWarning):
            counters = collect_counters(self._BareAligner())
        assert counters.reads_total == 0
        assert counters.table_bytes_streamed == 0


class TestPublishCounters:
    def test_ints_become_counters_floats_become_gauges(
        self, small_reference, simulated_reads
    ):
        aligner = GenAxAligner(
            small_reference, GenAxConfig(edit_bound=10, segment_count=3)
        )
        aligner.align_batch(
            [(s.name, s.sequence) for s in simulated_reads[:4]]
        )
        counters = collect_counters(aligner)
        registry = MetricRegistry()
        publish_counters(registry, counters, backend="genax")
        assert registry.get("genax_reads_total").value == 4
        assert registry.get("genax_reads_total").kind == "counter"
        assert registry.get("genax_rerun_fraction").kind == "gauge"
        # Every as_dict entry landed, prefixed with the backend name.
        for name in counters.as_dict():
            assert f"genax_{name}" in registry
