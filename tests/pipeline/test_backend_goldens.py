"""Golden-fixture bit-identity: every backend vs its pre-refactor output.

The staged-pipeline refactor's acceptance criterion: for every registered
backend, SAM-visible mappings and counter snapshots are bit-identical to
the pre-refactor aligners' on the standard simulated fixture set — serial
per-read, serial segment-major batch, and through ``ParallelAligner`` at
jobs=1 and jobs=4 (counters equal up to the audited shard-variant
allowlist).  Goldens were captured *before* the refactor; see
``tests/pipeline/golden_fixtures.py`` for the regeneration protocol.
"""

import pytest

from repro.analysis.config import shard_variant_counters
from repro.parallel import ParallelAligner
from repro.pipeline.bitvector import BitvectorConfig
from repro.pipeline.bwamem import BwaMemConfig
from repro.pipeline.genax import GenAxConfig
from repro.pipeline.longread import LongReadConfig
from repro.pipeline.registry import backend_names, get_backend

from tests.pipeline.golden_fixtures import (
    EDIT_BOUND,
    SEGMENT_COUNT,
    alignment_stats_dict,
    fixture_batch,
    fixture_reference,
    lane_stats_dict,
    load_golden,
    mapping_rows,
    seeding_stats_dict,
)

#: The golden operating point per backend (mirrors golden_fixtures.py).
CONFIGS = {
    "genax": lambda: GenAxConfig(edit_bound=EDIT_BOUND, segment_count=SEGMENT_COUNT),
    "bwamem": lambda: BwaMemConfig(band=EDIT_BOUND),
    "bitvector": lambda: BitvectorConfig(edit_bound=EDIT_BOUND),
    "longread": lambda: LongReadConfig(),
}


def test_every_registered_backend_has_a_golden():
    """A new backend must ship a golden + config before it can register."""
    for name in backend_names():
        assert name in CONFIGS, f"add a golden config for backend {name!r}"
        assert load_golden(name)["backend"] == name


@pytest.fixture(scope="module")
def reference():
    return fixture_reference()


@pytest.fixture(scope="module")
def batch(reference):
    return fixture_batch(reference)


@pytest.mark.parametrize("backend", backend_names())
class TestSerialGoldens:
    def test_batch_mappings_match_golden(self, backend, reference, batch):
        spec = get_backend(backend)
        aligner = spec.build(reference, CONFIGS[backend](), None)
        mapped = aligner.align_batch(batch)
        assert mapping_rows(mapped) == load_golden(backend)["mappings"]

    def test_per_read_mappings_match_golden(self, backend, reference, batch):
        spec = get_backend(backend)
        aligner = spec.build(reference, CONFIGS[backend](), None)
        mapped = [aligner.align_batch([read])[0] for read in batch]
        assert mapping_rows(mapped) == load_golden(backend)["mappings"]

    def test_alignment_stats_match_golden(self, backend, reference, batch):
        spec = get_backend(backend)
        aligner = spec.build(reference, CONFIGS[backend](), None)
        aligner.align_batch(batch)
        assert (
            alignment_stats_dict(aligner.stats)
            == load_golden(backend)["alignment_stats"]
        )


class TestGenAxHardwareCounters:
    """The accelerator's lane/seeding counters, pinned bit-for-bit."""

    def test_lane_stats_match_golden(self, reference, batch):
        aligner = get_backend("genax").build(reference, CONFIGS["genax"](), None)
        aligner.align_batch(batch)
        assert (
            lane_stats_dict(aligner.lane_stats)
            == load_golden("genax")["lane_stats"]
        )

    def test_seeding_stats_match_golden(self, reference, batch):
        aligner = get_backend("genax").build(reference, CONFIGS["genax"](), None)
        aligner.align_batch(batch)
        assert (
            seeding_stats_dict(aligner.seeding_stats)
            == load_golden("genax")["seeding_stats"]
        )


@pytest.mark.parametrize("backend", backend_names())
@pytest.mark.parametrize("jobs", [1, 4])
class TestParallelGoldens:
    def test_sharded_mappings_match_golden(self, backend, jobs, reference, batch):
        parallel = ParallelAligner(
            reference, CONFIGS[backend](), jobs=jobs, backend=backend
        )
        mapped = parallel.align_batch(batch)
        assert mapping_rows(mapped) == load_golden(backend)["mappings"]

    def test_sharded_counters_match_golden(self, backend, jobs, reference, batch):
        """Merged counters equal the golden snapshot, except the audited
        shard-variant counters, which must strictly grow under sharding."""
        parallel = ParallelAligner(
            reference, CONFIGS[backend](), jobs=jobs, backend=backend
        )
        parallel.align_batch(batch)
        golden = load_golden(backend)
        assert alignment_stats_dict(parallel.stats) == golden["alignment_stats"]
        if backend != "genax":
            return
        merged_lanes = lane_stats_dict(parallel.lane_stats)
        assert merged_lanes == golden["lane_stats"]
        merged_seeding = seeding_stats_dict(parallel.seeding_stats)
        golden_seeding = golden["seeding_stats"]
        variant = shard_variant_counters()
        for key, golden_value in golden_seeding.items():
            if key in variant:
                if jobs == 1:
                    # One in-process chunk: no re-streaming, exact match.
                    assert merged_seeding[key] == golden_value
                else:
                    assert merged_seeding[key] > golden_value
            else:
                assert merged_seeding[key] == golden_value, key
