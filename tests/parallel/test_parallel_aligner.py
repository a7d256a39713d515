"""Concordance and counter-merging tests for repro.parallel.engine.

The contract under test: for any worker count, ``ParallelAligner`` output
is bit-identical to the serial ``GenAxAligner.align_batch`` on the same
batch, and every merged counter matches the serial run's — except
``table_bytes_streamed``, which legitimately grows with the chunk count
(each shard streams the segment tables through its own modelled SRAM).
"""

import pytest

from repro.analysis.config import shard_variant_counters
from repro.pipeline.counters import collect_counters
from repro.pipeline.genax import GenAxAligner, GenAxConfig
from repro.parallel import ParallelAligner

CONFIG = dict(edit_bound=12, segment_count=4)


def mapping_key(mapped):
    return [
        (m.read_name, m.position, m.reverse, m.score, str(m.cigar),
         m.mapping_quality, m.secondary_count)
        for m in mapped
    ]


def assert_lane_stats_equivalent(actual, expected):
    """Lane counters must agree; sample *order* may differ across shards."""
    assert actual.extensions == expected.extensions
    assert actual.cycles == expected.cycles
    assert actual.stream_cycles == expected.stream_cycles
    assert actual.rerun_events == expected.rerun_events
    assert actual.rerun_cycles == expected.rerun_cycles
    assert sorted(actual.rerun_cycle_samples) == sorted(
        expected.rerun_cycle_samples
    )


@pytest.fixture(scope="module")
def batch(simulated_reads):
    return [(s.name, s.sequence) for s in simulated_reads[:8]]


@pytest.fixture(scope="module")
def serial_run(small_reference, batch):
    aligner = GenAxAligner(small_reference, GenAxConfig(**CONFIG))
    mapped = aligner.align_batch(batch)
    return aligner, mapped


class TestConcordance:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_mappings_bit_identical(self, small_reference, batch, serial_run, jobs):
        __, serial_mapped = serial_run
        parallel = ParallelAligner(
            small_reference, GenAxConfig(**CONFIG), jobs=jobs
        )
        assert mapping_key(parallel.align_batch(batch)) == mapping_key(
            serial_mapped
        )

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_counters_merge_to_serial_totals(
        self, small_reference, batch, serial_run, jobs
    ):
        """Property: merged shard counters == serial counters (satellite)."""
        serial, __ = serial_run
        parallel = ParallelAligner(
            small_reference, GenAxConfig(**CONFIG), jobs=jobs
        )
        parallel.align_batch(batch)
        # reads_total/mapped/unmapped/exact, extensions, cycles.
        assert parallel.stats == serial.stats
        assert_lane_stats_equivalent(parallel.lane_stats, serial.lane_stats)
        # Seeding: index lookups, CAM loads/lookups/probes, reads processed.
        assert parallel.seeding_stats.finder == serial.seeding_stats.finder
        assert (
            parallel.seeding_stats.intersections
            == serial.seeding_stats.intersections
        )
        assert (
            parallel.seeding_stats.reads_processed
            == serial.seeding_stats.reads_processed
        )

    def test_table_traffic_grows_with_chunks(
        self, small_reference, batch, serial_run
    ):
        """Sharding honestly re-streams tables once per chunk, not once."""
        serial, __ = serial_run
        parallel = ParallelAligner(
            small_reference, GenAxConfig(**CONFIG), jobs=2
        )
        parallel.align_batch(batch)
        assert (
            parallel.seeding_stats.table_bytes_streamed
            > serial.seeding_stats.table_bytes_streamed
        )

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_every_counter_matches_serial_unless_allowlisted(
        self, small_reference, batch, serial_run, jobs
    ):
        """Walk the *whole* counter surface: equality is the default, and
        any exception must be declared in the genaxlint counter allowlist
        (repro.analysis.config.COUNTER_ALLOWLIST) — the allowlist is the
        single audited list of shard-variant counters, so an undeclared
        divergence fails here and a declared one is asserted to actually
        diverge (a stale allowlist entry also fails)."""
        serial, __ = serial_run
        parallel = ParallelAligner(small_reference, GenAxConfig(**CONFIG), jobs=jobs)
        parallel.align_batch(batch)
        serial_counters = collect_counters(serial).as_dict()
        parallel_counters = collect_counters(parallel).as_dict()
        variant = shard_variant_counters()
        assert "table_bytes_streamed" in variant
        for name, serial_value in serial_counters.items():
            if name in variant:
                assert parallel_counters[name] > serial_value, (
                    f"{name} is allowlisted as shard-variant but did not "
                    "diverge — remove the stale allowlist entry"
                )
            else:
                assert parallel_counters[name] == serial_value, (
                    f"counter {name} diverged under sharding without a "
                    "COUNTER_ALLOWLIST entry"
                )

    def test_collect_counters_accepts_parallel_aligner(
        self, small_reference, batch
    ):
        parallel = ParallelAligner(
            small_reference, GenAxConfig(**CONFIG), jobs=2
        )
        parallel.align_batch(batch)
        counters = collect_counters(parallel)
        assert counters.reads_total == len(batch)
        assert counters.reads_mapped + counters.reads_unmapped == len(batch)


class TestPrefilterMerging:
    def test_merged_filter_counters_match_serial(
        self, small_reference, batch
    ):
        config = GenAxConfig(filters=("myers",), **CONFIG)
        serial = GenAxAligner(small_reference, config)
        serial.align_batch(batch)
        parallel = ParallelAligner(small_reference, config, jobs=2)
        parallel.align_batch(batch)
        (__, myers), = serial.cascade.report()
        for stats in (serial.stats, parallel.stats):
            assert stats.candidates_filtered == myers.rejected
            assert stats.candidates_survived == myers.survived
            assert stats.prefilter_cycles == myers.cycles
        assert myers.checked > 0

    def test_filter_counters_zero_when_disabled(self, small_reference, batch):
        parallel = ParallelAligner(
            small_reference, GenAxConfig(**CONFIG), jobs=2
        )
        parallel.align_batch(batch)
        assert parallel.stats.candidates_filtered == 0
        assert parallel.stats.candidates_survived == 0
        assert parallel.stats.prefilter_cycles == 0


class TestDriverSurface:
    def test_empty_batch(self, small_reference):
        parallel = ParallelAligner(
            small_reference, GenAxConfig(**CONFIG), jobs=2
        )
        assert parallel.align_batch([]) == []

    def test_read_objects_accepted(self, small_reference, simulated_reads):
        reads = [s.read for s in simulated_reads[:2]]
        parallel = ParallelAligner(
            small_reference, GenAxConfig(**CONFIG), jobs=2
        )
        mapped = parallel.align_batch(reads)
        assert [m.read_name for m in mapped] == [r.name for r in reads]

    def test_align_read_delegates(self, small_reference, simulated_reads):
        sample = simulated_reads[0]
        parallel = ParallelAligner(small_reference, GenAxConfig(**CONFIG))
        mapped = parallel.align_read(sample.name, sample.sequence)
        assert mapped.read_name == sample.name

    def test_jobs_default_from_config(self, small_reference):
        parallel = ParallelAligner(
            small_reference, GenAxConfig(jobs=3, **CONFIG)
        )
        assert parallel.jobs == 3

    def test_invalid_jobs(self, small_reference):
        with pytest.raises(ValueError):
            ParallelAligner(small_reference, GenAxConfig(**CONFIG), jobs=0)
