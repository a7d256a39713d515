"""Pipeline-level cascade contracts, every registered backend.

Two promises the filter cascade makes at the driver level:

* **losslessness** — running the full default cascade changes no mapping
  relative to the no-filter pipeline (the stages are lower bounds on the
  edit distance the extension engine enforces);
* **order invariance** — stage order changes cost, never verdicts, so
  any permutation of the cascade maps identically.
"""

import itertools

import pytest

from repro.filters import DEFAULT_CASCADE
from repro.pipeline.bitvector import BitvectorAligner, BitvectorConfig
from repro.pipeline.bwamem import BwaMemConfig
from repro.pipeline.genax import GenAxConfig
from repro.pipeline.registry import backend_names, get_backend
from repro.telemetry import telemetry_session

from tests.pipeline.golden_fixtures import (
    EDIT_BOUND,
    SEGMENT_COUNT,
    mapping_rows,
)

#: Per-backend config factory taking the cascade names tuple (or None).
#: The longread backend is deliberately absent: its per-read adaptive
#: gate plays the cascade's role, and the fixed-bound stages are
#: meaningless without a backend-level ``edit_bound``/``band``.
CASCADE_CONFIGS = {
    "genax": lambda filters: GenAxConfig(
        edit_bound=EDIT_BOUND, segment_count=SEGMENT_COUNT, filters=filters
    ),
    "bwamem": lambda filters: BwaMemConfig(band=EDIT_BOUND, filters=filters),
    "bitvector": lambda filters: BitvectorConfig(
        edit_bound=EDIT_BOUND, filters=filters
    ),
}


def build_aligner(backend, reference, filters):
    return get_backend(backend).build(
        reference, CASCADE_CONFIGS[backend](filters), None
    )


@pytest.fixture(scope="module")
def batch(simulated_reads):
    return [(s.name, s.sequence) for s in simulated_reads]


CASCADE_BACKENDS = tuple(CASCADE_CONFIGS)


def test_config_factories_cover_every_cascade_backend():
    assert set(CASCADE_CONFIGS) <= set(backend_names())
    # Only the adaptive long-read backend opts out of the cascade.
    assert set(backend_names()) - set(CASCADE_CONFIGS) == {"longread"}


@pytest.mark.parametrize("backend", CASCADE_BACKENDS)
class TestCascadeLossless:
    """Full default cascade vs no filter: bit-identical mappings."""

    def test_mappings_identical_and_work_was_done(
        self, backend, small_reference, batch
    ):
        plain = build_aligner(backend, small_reference, None)
        filtered = build_aligner(backend, small_reference, DEFAULT_CASCADE)
        assert plain.cascade is None
        assert filtered.cascade is not None
        assert mapping_rows(filtered.align_batch(batch)) == mapping_rows(
            plain.align_batch(batch)
        )
        report = dict(filtered.cascade.report())
        assert report["shouldered"].checked > 0
        # Conservation within the cascade: stage i+1 sees exactly the
        # candidates stage i admitted.  (The shared candidates_filtered /
        # candidates_survived counters also absorb the extension engine's
        # own over-budget rejections, so they are not cascade-exclusive.)
        names = list(DEFAULT_CASCADE)
        for earlier, later in zip(names, names[1:]):
            assert report[later].checked == report[earlier].survived
        cascade_rejects = sum(report[name].rejected for name in names)
        assert cascade_rejects <= filtered.stats.candidates_filtered


class TestOrderInvariance:
    """Stage order changes cost, never the surviving mapping set."""

    def test_every_permutation_maps_identically(self, small_reference, batch):
        baseline = BitvectorAligner(
            small_reference, BitvectorConfig(edit_bound=EDIT_BOUND)
        )
        expected = mapping_rows(baseline.align_batch(batch))
        for order in itertools.permutations(DEFAULT_CASCADE):
            aligner = BitvectorAligner(
                small_reference,
                BitvectorConfig(edit_bound=EDIT_BOUND, filters=order),
            )
            assert mapping_rows(aligner.align_batch(batch)) == expected, order


class TestCascadeTelemetry:
    def test_depth_histogram_observes_every_candidate(
        self, small_reference, batch
    ):
        with telemetry_session() as telemetry:
            aligner = BitvectorAligner(
                small_reference,
                BitvectorConfig(
                    edit_bound=EDIT_BOUND, filters=DEFAULT_CASCADE
                ),
            )
            aligner.align_batch(batch)
        depths = telemetry.metrics.get("pipeline_cascade_depth")
        checked = dict(aligner.cascade.report())["shouldered"].checked
        assert depths.count == checked
        stage_names = {name for __, name, __ts, __pid in telemetry.tracer.events}
        assert "filter_batch" in stage_names


class TestMyersStageDirtyReads:
    """The batched ``myers`` stage keeps today's answer on dirty input."""

    def test_read_with_an_n_maps_as_without_the_cascade(
        self, small_reference
    ):
        read = small_reference.sequence[1000:1101]
        batch = [("dirty", read[:50] + "N" + read[51:]), ("clean", read)]
        filtered = build_aligner("genax", small_reference, ("myers",))
        plain = build_aligner("genax", small_reference, None)
        records = filtered.align_batch(batch)
        assert [record.position for record in records] == [1000, 1000]
        assert mapping_rows(records) == mapping_rows(plain.align_batch(batch))
