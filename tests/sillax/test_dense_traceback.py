"""The batched dense traceback against the object-per-PE machine.

``DenseTracebackMachine`` must reproduce ``TracebackMachine.align`` field
by field — score, alignment, CIGAR, every cycle counter and the re-run
events — for every lane of a ragged batch, whatever else shares the
batch.  The genax engine built on it must charge ``LaneStats`` exactly as
a round-robin pool of object-machine lanes does.
"""

import random

import pytest

import repro.sillax.dense as dense
from repro.align.records import AlignmentStats
from repro.align.scoring import BWA_MEM_SCHEME, ScoringScheme
from repro.genome.reference import ReferenceGenome, make_reference
from repro.pipeline.common import Candidate
from repro.pipeline.genax import SillaXExtensionEngine
from repro.sillax.dense import DenseTracebackMachine
from repro.sillax.lane import LaneStats, SillaXLane
from repro.sillax.traceback_machine import TracebackMachine

#: A deletion-first read whose trail breaks twice (found by search, K = 3).
TWO_RERUNS = ("TTTGCACCCCTA", "TGCACCCCTA", 3)


def _mutate(rng, sequence, edits):
    bases = list(sequence)
    for __ in range(edits):
        if not bases:
            bases.append(rng.choice("ACGT"))
            continue
        position = rng.randrange(len(bases))
        roll = rng.random()
        if roll < 0.4:
            bases[position] = rng.choice("ACGT")
        elif roll < 0.7:
            bases.insert(position, rng.choice("ACGT"))
        else:
            del bases[position]
    return "".join(bases)


def _random_lanes(seed, count, max_len=30):
    rng = random.Random(seed)
    lanes = []
    for __ in range(count):
        window = "".join(rng.choice("ACGT") for __ in range(rng.randint(0, max_len)))
        if window and rng.random() < 0.8:
            read = _mutate(rng, window[rng.randint(0, 3) :] or "A", rng.randint(0, 4))
        else:
            read = "".join(rng.choice("ACGT") for __ in range(rng.randint(0, 20)))
        lanes.append((window, read))
    return lanes


def _assert_matches_object(k, lanes, scheme=BWA_MEM_SCHEME):
    got = DenseTracebackMachine(k, scheme).align_batch(
        [window for window, __ in lanes], [read for __, read in lanes]
    )
    reference = TracebackMachine(k, scheme)
    assert got == [reference.align(window, read) for window, read in lanes]
    return got


class TestEdgeLanes:
    def test_read_clipped_to_nothing(self):
        (result,) = _assert_matches_object(1, [("TTTTTTTTTTTT", "ACGCACGA")])
        assert result.alignment is None
        assert result.score == 0

    def test_empty_query(self):
        (result,) = _assert_matches_object(4, [("ACGTACGT", "")])
        assert result.alignment is None

    def test_empty_window(self):
        (result,) = _assert_matches_object(4, [("", "ACGTACGT")])
        assert result.alignment is None

    def test_window_clamped_at_genome_end(self):
        genome = ReferenceGenome("GATTACA" * 6)
        read = genome.sequence[-12:] + "GGCC"  # runs off the genome's end
        k = 6
        start = len(genome) - 12
        window = genome.fetch(start, start + len(read) + k)
        assert len(window) < len(read) + k
        (result,) = _assert_matches_object(k, [(window, read)])
        assert result.alignment is not None
        assert result.alignment.query_end == 12

    def test_k_zero(self):
        results = _assert_matches_object(
            0, [("ACGTACGT", "ACGTACGT"), ("ACGTACGT", "ACGAACGT"), ("", "")]
        )
        assert results[0].score == 8
        assert str(results[0].cigar) == "8="
        assert results[1].score == 3  # clipped before the first mismatch

    def test_two_reruns(self):
        window, read, k = TWO_RERUNS
        (result,) = _assert_matches_object(k, [(window, read)])
        assert result.rerun_count == 2
        assert result.rerun_cycles > 0

    def test_custom_scheme(self):
        scheme = ScoringScheme(match=2, substitution=-1, gap_open=-2, gap_extend=-1)
        _assert_matches_object(3, _random_lanes(5, 12), scheme)

    def test_non_acgt_characters(self):
        _assert_matches_object(2, [("ATBCD", "GABCD"), ("NNACGT", "ACGTNN")])

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            DenseTracebackMachine(-1)

    def test_mismatched_batch_rejected(self):
        with pytest.raises(ValueError):
            DenseTracebackMachine(2).align_batch(["ACGT"], [])

    def test_empty_batch(self):
        assert DenseTracebackMachine(2).align_batch([], []) == []


class TestBatchEquivalence:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 6, 12])
    def test_ragged_batches_match_object_machine(self, k):
        _assert_matches_object(k, _random_lanes(k + 100, 24))

    def test_k40_mapper_shape(self):
        rng = random.Random(47)
        lanes = []
        for __ in range(3):
            window = "".join(rng.choice("ACGT") for __ in range(141))
            lanes.append((window, _mutate(rng, window[:101], 5)))
        _assert_matches_object(40, lanes)

    def test_lane_result_independent_of_batch(self):
        lanes = _random_lanes(7, 10)
        window, read, k = TWO_RERUNS
        lanes.insert(4, (window, read))
        machine = DenseTracebackMachine(k)
        alone = machine.align(window, read)
        together = machine.align_batch(
            [w for w, __ in lanes], [r for __, r in lanes]
        )
        assert together[4] == alone
        rotated = lanes[5:] + lanes[:5]
        moved = machine.align_batch(
            [w for w, __ in rotated], [r for __, r in rotated]
        )
        assert moved[len(lanes) - 5 + 4] == alone
        assert moved[: len(lanes) - 5] == together[5:]

    @pytest.mark.parametrize("budget", [1, 4000, 20000])
    def test_chunked_batch_equals_per_job_calls(self, monkeypatch, budget):
        lanes = _random_lanes(11, 17)
        machine = DenseTracebackMachine(4)
        per_job = [machine.align(window, read) for window, read in lanes]
        monkeypatch.setattr(dense, "PROVENANCE_BUDGET", budget)
        batched = machine.align_batch(
            [w for w, __ in lanes], [r for __, r in lanes]
        )
        assert batched == per_job


def _extension_jobs(reference, count, seed):
    """(oriented read, candidate) jobs: mutated reads, some at the genome ends."""
    rng = random.Random(seed)
    jobs = []
    for index in range(count):
        length = rng.randint(20, 40)
        if index % 5 == 0:
            start = len(reference) - length + rng.randint(0, 8)  # clamped window
        elif index % 7 == 0:
            start = -rng.randint(1, 4)  # clamped at the genome start
        else:
            start = rng.randint(0, len(reference) - length)
        read = reference.fetch(max(0, start), max(0, start) + length)
        read = _mutate(rng, read, rng.randint(0, 4))
        candidate = Candidate(window_start=start, reverse=False, seed_length=12)
        jobs.append((read, candidate))
    return jobs


class TestExtensionEngine:
    K = 6

    def _object_pool(self, reference, jobs, lanes=4):
        pool = [SillaXLane(self.K) for __ in range(lanes)]
        outcomes = [
            pool[index % lanes].extend(reference, read, candidate.window_start)
            for index, (read, candidate) in enumerate(jobs)
        ]
        return pool, outcomes

    def test_lane_stats_match_object_lanes(self):
        reference = make_reference(3_000, seed=3)
        jobs = _extension_jobs(reference, 40, seed=9)
        engine = SillaXExtensionEngine(reference, self.K, BWA_MEM_SCHEME, 4)
        stats = AlignmentStats()
        extensions = engine.extend_batch(jobs[:25], stats)
        extensions += engine.extend_batch(jobs[25:], stats)
        pool, outcomes = self._object_pool(reference, jobs)
        assert [lane.stats for lane in pool] == engine._lane_stats
        merged = LaneStats()
        for lane in pool:
            merged.merge(lane.stats)
        assert engine.lane_stats == merged
        assert merged.rerun_cycle_samples, "workload must exercise re-runs"
        assert stats.extensions == len(jobs)
        assert stats.cycles == merged.cycles
        for extension, outcome in zip(extensions, outcomes):
            assert extension is not None
            assert extension.score == outcome.score
            assert extension.position == outcome.position
            assert extension.cigar == outcome.result.cigar

    def test_extend_is_a_batch_of_one(self):
        reference = make_reference(3_000, seed=3)
        jobs = _extension_jobs(reference, 12, seed=4)
        batched = SillaXExtensionEngine(reference, self.K, BWA_MEM_SCHEME, 4)
        single = SillaXExtensionEngine(reference, self.K, BWA_MEM_SCHEME, 4)
        batch_stats, single_stats = AlignmentStats(), AlignmentStats()
        from_batch = batched.extend_batch(jobs, batch_stats)
        from_single = [
            single.extend(read, candidate, single_stats) for read, candidate in jobs
        ]
        assert from_batch == from_single
        assert batch_stats == single_stats
        assert batched.lane_stats == single.lane_stats
