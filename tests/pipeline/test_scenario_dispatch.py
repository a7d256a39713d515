"""Batch-size identity over the scenario profiles.

Every registered backend must produce bit-identical mappings (and
counters) whether each read is mapped in an ``align_batch`` call of its
own or all of them in one — for the long-read and paired-end read
shapes, not just the classic 101 bp workload the original identity
tests cover.  Backends
run at the quick perf-matrix operating point (edit bound 12, small
candidate cap); the paper's conservative K = 40 defaults are sized for
low-error short reads and make 10%-error kilobase reads a tier-1
budget problem without changing what this test pins.
"""

import pytest

from repro.genome.reads import build_profile_reads
from repro.pipeline.bitvector import BitvectorConfig
from repro.pipeline.bwamem import BwaMemConfig
from repro.pipeline.genax import GenAxConfig
from repro.pipeline.longread import LongReadConfig
from repro.pipeline.registry import backend_names, build_aligner

PROFILES = ("nanopore", "paired_end")


def quick_config(backend):
    return {
        "genax": lambda: GenAxConfig(
            k=13, edit_bound=12, segment_count=4, max_candidates=8
        ),
        "bwamem": lambda: BwaMemConfig(k=13, band=12, max_candidates=8),
        "bitvector": lambda: BitvectorConfig(
            k=13, edit_bound=12, max_candidates=8
        ),
        "longread": lambda: LongReadConfig(k=13),
    }[backend]()


def test_every_backend_has_a_quick_config():
    for backend in backend_names():
        assert quick_config(backend) is not None


@pytest.fixture(scope="module")
def profile_reads(tiny_reference):
    reads = {}
    for profile in PROFILES:
        simulated = build_profile_reads(profile, tiny_reference, 3, seed=97)
        reads[profile] = [(s.name, s.sequence) for s in simulated]
    return reads


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("backend", backend_names())
def test_batch_matches_per_read(
    backend, profile, tiny_reference, profile_reads
):
    reads = profile_reads[profile]
    per_read = build_aligner(backend, tiny_reference, quick_config(backend))
    batch = build_aligner(backend, tiny_reference, quick_config(backend))
    singles = [per_read.align_batch([read])[0] for read in reads]
    batched = batch.align_batch(reads)
    assert len(singles) == len(batched) == len(reads)
    for x, y in zip(singles, batched):
        assert x.read_name == y.read_name
        assert (x.position, x.reverse, x.score) == (
            y.position,
            y.reverse,
            y.score,
        ), (backend, profile, x.read_name)
        assert str(x.cigar) == str(y.cigar)
        assert x.mapping_quality == y.mapping_quality
    assert per_read.stats == batch.stats


@pytest.mark.parametrize("backend", backend_names())
def test_runs_are_deterministic(backend, tiny_reference, profile_reads):
    reads = profile_reads["paired_end"]
    first = build_aligner(
        backend, tiny_reference, quick_config(backend)
    ).align_batch(reads)
    second = build_aligner(
        backend, tiny_reference, quick_config(backend)
    ).align_batch(reads)
    assert [(m.position, m.reverse, m.score) for m in first] == [
        (m.position, m.reverse, m.score) for m in second
    ]
