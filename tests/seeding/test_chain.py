"""Tests for anchor chaining (repro.seeding.chain)."""

import pytest

from repro.genome.reference import make_reference
from repro.seeding.chain import (
    ChainConfig,
    ChainStats,
    ChainedSeedProvider,
)
from repro.seeding.index import KmerIndex


@pytest.fixture(scope="module")
def reference():
    return make_reference(4_000, seed=61)


@pytest.fixture(scope="module")
def provider(reference):
    return ChainedSeedProvider(reference.sequence)


def seed_one(provider, read):
    """The seeds of *read* in a batch of its own."""
    return provider.seed_batch([read])[0]


class TestChaining:
    def test_exact_read_chains_to_true_diagonal(self, reference):
        provider = ChainedSeedProvider(reference.sequence)
        read = reference.sequence[1_000:1_400]
        seeds = seed_one(provider, read)
        assert seeds
        # Some chain reproduces the true diagonal: position - offset = 1000.
        diagonals = {s.positions[0] - s.read_offset for s in seeds}
        assert 1_000 in diagonals

    def test_chains_never_claim_exact_whole_read(self, reference):
        provider = ChainedSeedProvider(reference.sequence)
        read = reference.sequence[500:900]
        assert all(
            not seed.exact_whole_read for seed in seed_one(provider, read)
        )

    def test_seed_span_covers_anchored_read_range(self, reference):
        provider = ChainedSeedProvider(reference.sequence)
        read = reference.sequence[2_000:2_500]
        seeds = seed_one(provider, read)
        best = max(seeds, key=lambda s: s.length)
        # A fully exact read chains end to end: the span reaches within
        # one stride + k of the read length.
        config = provider.config
        assert best.length >= len(read) - (config.stride + config.k)

    def test_unrelated_read_yields_no_chains(self, reference):
        import random

        from repro.genome.sequence import random_dna

        provider = ChainedSeedProvider(reference.sequence)
        # An independent random read: a 13-mer collision against a 4 kbp
        # genome has probability ~6e-5 per anchor, so no chain forms.
        read = random_dna(200, random.Random(999))
        assert seed_one(provider, read) == []

    def test_min_chain_anchors_filters_singletons(self, reference):
        config = ChainConfig(min_chain_anchors=2)
        provider = ChainedSeedProvider(reference.sequence, config)
        # One k-mer only: a single anchor can never reach two anchors.
        read = reference.sequence[100 : 100 + config.k]
        assert seed_one(provider, read) == []

    def test_max_chains_caps_emission(self, reference):
        capped = ChainedSeedProvider(
            reference.sequence, ChainConfig(max_chains=1)
        )
        read = reference.sequence[1_000:1_400]
        assert len(seed_one(capped, read)) <= 1

    def test_repeat_kmers_are_masked(self):
        # A pure repeat genome: every k-mer matches everywhere, which
        # exceeds the hit cap and masks the anchor.
        genome = "ACGTTGCA" * 400
        provider = ChainedSeedProvider(
            genome, ChainConfig(max_hits_per_kmer=4)
        )
        seed_one(provider, genome[:200])
        assert provider.stats.anchors_masked > 0
        assert provider.stats.anchor_hits == 0

    def test_batch_equals_per_read(self, reference):
        sequences = [
            reference.sequence[0:300],
            reference.sequence[1_500:1_900],
        ]
        batch_provider = ChainedSeedProvider(reference.sequence)
        per_read_provider = ChainedSeedProvider(reference.sequence)
        batched = batch_provider.seed_batch(sequences)
        singles = [seed_one(per_read_provider, s) for s in sequences]
        assert list(batched) == singles

    def test_batch_counts_like_per_read(self, reference):
        # Short, dirty and repeat-masked reads share the batch's lookups.
        sequences = [
            reference.sequence[0:300],
            "",
            "ACGT",
            reference.sequence[900:1_100].replace("C", "N", 3),
            "A" * 200,
            reference.sequence[1_500:1_900],
        ]
        config = ChainConfig(max_hits_per_kmer=3)
        batch_provider = ChainedSeedProvider(reference.sequence, config)
        per_read_provider = ChainedSeedProvider(reference.sequence, config)
        batched = batch_provider.seed_batch(sequences)
        singles = [seed_one(per_read_provider, s) for s in sequences]
        assert list(batched) == singles
        assert batch_provider.stats == per_read_provider.stats
        assert batch_provider.stats.anchors_sampled > 0


class TestStats:
    def test_counters_track_one_read(self, reference):
        provider = ChainedSeedProvider(reference.sequence)
        seed_one(provider, reference.sequence[3_000:3_400])
        stats = provider.stats
        assert stats.reads_seeded == 1
        assert stats.anchors_sampled > 0
        assert stats.anchor_hits > 0
        assert stats.chains_emitted > 0

    def test_merge_is_additive(self):
        left = ChainStats(reads_seeded=1, anchor_hits=5, chains_emitted=2)
        right = ChainStats(reads_seeded=2, anchor_hits=3, chains_emitted=1)
        left.merge(right)
        assert left.reads_seeded == 3
        assert left.anchor_hits == 8
        assert left.chains_emitted == 3


class TestConfig:
    def test_invalid_k(self):
        with pytest.raises(ValueError, match="k must be"):
            ChainConfig(k=0)

    def test_invalid_stride(self):
        with pytest.raises(ValueError, match="stride"):
            ChainConfig(stride=0)

    def test_invalid_min_chain_anchors(self):
        with pytest.raises(ValueError, match="min_chain_anchors"):
            ChainConfig(min_chain_anchors=0)

    def test_index_k_mismatch_rejected(self, reference):
        index = KmerIndex.build(reference.sequence, 11)
        with pytest.raises(ValueError, match="does not match"):
            ChainedSeedProvider(
                reference.sequence, ChainConfig(k=13), index=index
            )
