"""Tests for the long-read backend (repro.pipeline.longread)."""

import dataclasses
import random

import pytest

from repro.align.records import AlignmentStats
from repro.genome.reference import make_reference
from repro.genome.sequence import random_dna
from repro.pipeline.common import Candidate
from repro.pipeline.longread import (
    AdaptiveBandedEngine,
    LongReadAligner,
    LongReadConfig,
)
from repro.pipeline.stages import AdaptivePolicy


@pytest.fixture(scope="module")
def reference():
    return make_reference(4_000, seed=83)


def mutate_indels(sequence, edits, seed):
    """Apply *edits* seeded 1-bp indels/substitutions to *sequence*."""
    rng = random.Random(seed)
    out = list(sequence)
    for _ in range(edits):
        position = rng.randrange(len(out))
        kind = rng.random()
        if kind < 0.4:
            out.insert(position, rng.choice("ACGT"))
        elif kind < 0.8:
            del out[position]
        else:
            out[position] = rng.choice("ACGT".replace(out[position], ""))
    return "".join(out)


class TestLongReadAligner:
    def test_maps_exact_kilobase_read(self, reference):
        aligner = LongReadAligner(reference)
        read = reference.sequence[400:1_400]
        result = aligner.align_read("lr0", read)
        assert not result.is_unmapped
        assert result.position == 400
        assert result.reverse is False
        assert result.score == 1_000

    def test_maps_indel_heavy_read(self, reference):
        aligner = LongReadAligner(reference)
        window = reference.sequence[1_000:2_000]
        read = mutate_indels(window, edits=60, seed=5)  # ~6% error
        result = aligner.align_read("lr1", read)
        assert not result.is_unmapped
        assert abs(result.position - 1_000) <= 60
        policy = aligner.config.policy
        assert result.score >= policy.min_score_for(len(read))

    def test_unrelated_read_stays_unmapped(self, reference):
        aligner = LongReadAligner(reference)
        read = random_dna(800, random.Random(997))
        result = aligner.align_read("lr2", read)
        assert result.is_unmapped

    def test_batch_matches_per_read(self, reference):
        window = reference.sequence
        reads = [
            ("a", window[200:900]),
            ("b", mutate_indels(window[1_200:1_900], edits=40, seed=6)),
            ("c", random_dna(400, random.Random(13))),
        ]
        per_read = LongReadAligner(reference)
        batch = LongReadAligner(reference)
        singles = [per_read.align_batch([read])[0] for read in reads]
        batched = batch.align_batch(reads)
        for x, y in zip(singles, batched):
            assert (x.position, x.reverse, x.score) == (
                y.position,
                y.reverse,
                y.score,
            )
            assert str(x.cigar) == str(y.cigar)
        assert per_read.stats == batch.stats

    def test_chain_stats_exposed(self, reference):
        aligner = LongReadAligner(reference)
        aligner.align_read("lr3", reference.sequence[100:700])
        assert aligner.chain_stats.reads_seeded >= 1
        assert aligner.chain_stats.chains_emitted >= 1

    def test_shared_tables_are_installed(self, reference):
        tables = LongReadAligner.build_tables(reference, LongReadConfig().k)
        aligner = LongReadAligner(reference, tables=tables)
        assert aligner._seeder.index is tables


class TestAdaptiveBandedEngine:
    def test_gate_rejects_wrong_locus(self, reference):
        engine = AdaptiveBandedEngine(
            reference, AdaptivePolicy(), LongReadConfig().scheme
        )
        stats = AlignmentStats()
        read = random_dna(400, random.Random(29))
        candidate = Candidate(window_start=500, reverse=False, seed_length=20)
        assert engine.extend(read, candidate, stats) is None
        assert stats.candidates_filtered == 1
        assert stats.extensions == 0

    def test_true_locus_passes_gate_and_scores(self, reference):
        engine = AdaptiveBandedEngine(
            reference, AdaptivePolicy(), LongReadConfig().scheme
        )
        stats = AlignmentStats()
        read = reference.sequence[500:900]
        candidate = Candidate(window_start=500, reverse=False, seed_length=20)
        extension = engine.extend(read, candidate, stats)
        assert extension is not None
        assert extension.position == 500
        assert extension.score == 400
        assert stats.candidates_survived == 1
        assert stats.extensions == 1

    def test_extend_batch_equals_per_job_extend(self, reference):
        engine = AdaptiveBandedEngine(
            reference, AdaptivePolicy(), LongReadConfig().scheme
        )
        text = reference.sequence
        jobs = [
            # Three read lengths, so three per-lane bands in one call.
            (mutate_indels(text[100:250], edits=8, seed=1), 100),
            (mutate_indels(text[700:1_100], edits=25, seed=2), 700),
            (mutate_indels(text[1_500:2_400], edits=60, seed=3), 1_500),
            # Wrong locus and unrelated read: both fail the gate.
            (text[2_600:3_000], 400),
            (random_dna(300, random.Random(31)), 3_000),
            # Near the genome end, the window is clamped short of the read.
            (text[3_700:4_000], 3_700),
        ]
        jobs = [
            (read, Candidate(window_start=start, reverse=False, seed_length=20))
            for read, start in jobs
        ]
        per_job_stats = AlignmentStats()
        per_job = [
            engine.extend(read, candidate, per_job_stats)
            for read, candidate in jobs
        ]
        batch_stats = AlignmentStats()
        batched = engine.extend_batch(jobs, batch_stats)
        assert batched == per_job
        assert [extension is None for extension in batched] == [
            False, False, False, True, True, False
        ]
        assert dataclasses.asdict(batch_stats) == dataclasses.asdict(
            per_job_stats
        )
        assert engine.extend_batch([], AlignmentStats()) == []


class TestConfig:
    def test_chain_config_mirrors_fields(self):
        config = LongReadConfig(
            k=11, stride=5, max_candidates=7, max_diagonal_gap=32
        )
        chain = config.chain_config()
        assert chain.k == 11
        assert chain.stride == 5
        assert chain.max_chains == 7
        assert chain.max_diagonal_gap == 32


class TestAdaptivePolicyParams:
    def test_short_read_hits_the_budget_floor(self):
        params = AdaptivePolicy().params_for(101)
        assert params.min_score == 26  # ceil(0.25 * 101)
        assert params.band == params.edit_budget == 8  # floor clamp
        assert params.gate_edits == 36  # ceil(0.35 * 101)

    def test_long_read_hits_the_budget_ceiling(self):
        params = AdaptivePolicy().params_for(30_000)
        assert params.min_score == 7_500
        assert params.band == params.edit_budget == 256  # ceiling clamp
        assert params.gate_edits == 10_500

    def test_parameters_scale_monotonically(self):
        policy = AdaptivePolicy()
        lengths = [101, 500, 2_000, 10_000]
        scores = [policy.params_for(n).min_score for n in lengths]
        gates = [policy.params_for(n).gate_edits for n in lengths]
        assert scores == sorted(scores)
        assert gates == sorted(gates)

    def test_min_score_floor_is_one(self):
        assert AdaptivePolicy().min_score_for(1) == 1

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ValueError, match="score_fraction"):
            AdaptivePolicy(score_fraction=0.0)
        with pytest.raises(ValueError, match="band_fraction"):
            AdaptivePolicy(band_fraction=1.5)
        with pytest.raises(ValueError, match="gate_fraction"):
            AdaptivePolicy(gate_fraction=-0.1)

    def test_invalid_budget_clamp_rejected(self):
        with pytest.raises(ValueError, match="edit-budget clamp"):
            AdaptivePolicy(min_edit_budget=10, max_edit_budget=5)
