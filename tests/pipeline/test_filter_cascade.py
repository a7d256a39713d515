"""Pipeline-level cascade contract, every registered backend.

**Losslessness** — running every registered filter stage changes no
mapping relative to the no-filter pipeline (each stage admits every
candidate within the edit budget the extension engine enforces).  The
bitvector backend has no unfiltered variant (the ``myers`` stage is its
only verifier); its golden's unchanged mappings hold it lossless.

**Counters** — on every backend with a cascade, the shared
``candidates_filtered``/``candidates_survived`` counters are exactly the
``myers`` stage's rejects and survivors.
"""

import pytest

from repro.filters import filter_names
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
#: meaningless without a backend-level ``edit_bound``/``band``.  The
#: bitvector backend is absent too: it always runs ``myers``.
CASCADE_CONFIGS = {
    "genax": lambda filters: GenAxConfig(
        edit_bound=EDIT_BOUND, segment_count=SEGMENT_COUNT, filters=filters
    ),
    "bwamem": lambda filters: BwaMemConfig(band=EDIT_BOUND, filters=filters),
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
    # The adaptive long-read backend has no cascade; bitvector's is fixed.
    assert set(backend_names()) - set(CASCADE_CONFIGS) == {
        "longread",
        "bitvector",
    }


@pytest.mark.parametrize("backend", CASCADE_BACKENDS)
class TestCascadeLossless:
    """Every registered stage vs no filter: bit-identical mappings."""

    def test_mappings_identical_and_work_was_done(
        self, backend, small_reference, batch
    ):
        plain = build_aligner(backend, small_reference, None)
        filtered = build_aligner(backend, small_reference, filter_names())
        assert plain.cascade is None
        assert filtered.cascade is not None
        assert mapping_rows(filtered.align_batch(batch)) == mapping_rows(
            plain.align_batch(batch)
        )
        report = dict(filtered.cascade.report())
        assert report["myers"].checked > 0
        # Conservation within the cascade: stage i+1 sees exactly the
        # candidates stage i admitted.
        names = list(filter_names())
        for earlier, later in zip(names, names[1:]):
            assert report[later].checked == report[earlier].survived
        cascade_rejects = sum(report[name].rejected for name in names)
        assert cascade_rejects == filtered.stats.candidates_filtered


#: Every backend with a cascade, built with the ``myers`` stage.
MYERS_BACKENDS = {
    "genax": lambda reference: build_aligner("genax", reference, ("myers",)),
    "bwamem": lambda reference: build_aligner("bwamem", reference, ("myers",)),
    "bitvector": lambda reference: BitvectorAligner(
        reference, BitvectorConfig(edit_bound=EDIT_BOUND)
    ),
}


@pytest.mark.parametrize("backend", list(MYERS_BACKENDS))
def test_shared_counters_are_the_myers_stage_counters(
    backend, small_reference, batch
):
    aligner = MYERS_BACKENDS[backend](small_reference)
    aligner.align_batch(batch)
    myers = dict(aligner.cascade.report())["myers"]
    assert myers.checked > 0
    assert aligner.stats.candidates_filtered == myers.rejected
    assert aligner.stats.candidates_survived == myers.survived


class TestCascadeTelemetry:
    def test_depth_histogram_observes_every_candidate(
        self, small_reference, batch
    ):
        with telemetry_session() as telemetry:
            aligner = BitvectorAligner(
                small_reference,
                BitvectorConfig(edit_bound=EDIT_BOUND),
            )
            aligner.align_batch(batch)
        depths = telemetry.metrics.get("pipeline_cascade_depth")
        checked = dict(aligner.cascade.report())["myers"].checked
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
