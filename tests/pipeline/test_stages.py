"""Unit tests for the staged-pipeline driver (repro.pipeline.stages).

Exercised with *fake* stages so the driver's own responsibilities are
pinned down in isolation: strand enumeration, the exact-match fast path
and its once-per-read ``reads_exact`` accounting, filter chaining, and
that one-read batches map and count exactly like one batch.
"""

from typing import Dict, List, Sequence

from repro.align.records import AlignmentStats
from repro.genome.sequence import reverse_complement
from repro.pipeline.common import Candidate, Extension
from repro.filters import FilterCascade
from repro.pipeline.stages import PipelineDriver, StageSet
from repro.seeding.accelerator import GlobalSeed
from repro.seeding.smem import SeedTable

READ = "ACGTACGTTACG"


def exact_seed(length: int, position: int) -> GlobalSeed:
    return GlobalSeed(
        read_offset=0,
        length=length,
        positions=(position,),
        exact_whole_read=True,
    )


def partial_seed(offset: int, length: int, positions) -> GlobalSeed:
    return GlobalSeed(read_offset=offset, length=length, positions=tuple(positions))


class FakeSeeder:
    """Seed provider backed by a literal oriented-sequence -> seeds table."""

    def __init__(self, table: Dict[str, List[GlobalSeed]]) -> None:
        self.table = table
        self.batch_calls = 0

    def seed_batch(self, oriented: Sequence[str]) -> SeedTable:
        self.batch_calls += 1
        return SeedTable.from_lists(
            [self.table.get(sequence, []) for sequence in oriented]
        )


class CountingExtender:
    """Extension engine that accepts every candidate at a fixed score."""

    def __init__(self, score: int = 50) -> None:
        self.calls = 0
        self.score = score

    def extend_batch(self, jobs, stats: AlignmentStats):
        self.calls += len(jobs)
        stats.extensions += len(jobs)
        return [
            Extension(
                candidate=candidate,
                score=self.score,
                position=max(0, candidate.window_start),
                cigar=None,
                query_end=len(oriented),
            )
            for oriented, candidate in jobs
        ]


class FlagFilter:
    """Candidate filter with a fixed verdict and a call counter."""

    name = "flag"

    def __init__(self, verdict: bool) -> None:
        self.verdict = verdict
        self.calls = 0

    def admit_batch(self, jobs, stats: AlignmentStats):
        self.calls += len(jobs)
        return [self.verdict] * len(jobs)


def make_driver(seeder, extender, filters=(), min_score=5, max_candidates=64):
    return PipelineDriver(
        StageSet(
            seeder=seeder,
            extender=extender,
            match_score=1,
            min_score=min_score,
            max_candidates=max_candidates,
            cascade=FilterCascade(tuple(filters)) if filters else None,
        )
    )


class TestExactFastPath:
    def test_exact_on_both_strands_counts_reads_exact_once(self):
        """The satellite bug: an exact hit per strand must not double-count."""
        table = {
            READ: [exact_seed(len(READ), 100)],
            reverse_complement(READ): [exact_seed(len(READ), 200)],
        }
        extender = CountingExtender()
        driver = make_driver(FakeSeeder(table), extender)
        mapped = driver.align_read("palindrome-ish", READ)
        assert driver.stats.reads_exact == 1
        assert driver.stats.reads_mapped == 1
        # Fast path: no extension engine work for either strand.
        assert extender.calls == 0
        # Equal scores; forward strand wins the tie-break.
        assert mapped.position == 100
        assert not mapped.reverse

    def test_exact_single_strand(self):
        table = {READ: [exact_seed(len(READ), 42)]}
        driver = make_driver(FakeSeeder(table), CountingExtender())
        mapped = driver.align_read("fwd", READ)
        assert driver.stats.reads_exact == 1
        assert mapped.position == 42
        assert str(mapped.cigar) == f"{len(READ)}="


class TestFilterChain:
    def test_veto_skips_extension(self):
        table = {READ: [partial_seed(0, 8, (300,))]}
        extender = CountingExtender()
        veto = FlagFilter(False)
        driver = make_driver(FakeSeeder(table), extender, filters=(veto,))
        mapped = driver.align_read("vetoed", READ)
        assert veto.calls == 1
        assert extender.calls == 0
        assert mapped.is_unmapped
        assert driver.stats.reads_unmapped == 1

    def test_chain_short_circuits_after_first_veto(self):
        table = {READ: [partial_seed(0, 8, (300,))]}
        first, second = FlagFilter(False), FlagFilter(True)
        driver = make_driver(
            FakeSeeder(table), CountingExtender(), filters=(first, second)
        )
        driver.align_read("short-circuit", READ)
        assert first.calls == 1
        assert second.calls == 0

    def test_admitted_candidates_reach_extender(self):
        table = {READ: [partial_seed(0, 8, (300, 400))]}
        extender = CountingExtender()
        admit = FlagFilter(True)
        driver = make_driver(FakeSeeder(table), extender, filters=(admit,))
        driver.align_read("admitted", READ)
        assert admit.calls == 2
        assert extender.calls == 2


class TestExecutionOrders:
    def table(self):
        other = "TTTTGGGGCCCC"
        return {
            READ: [partial_seed(2, 6, (502,))],
            reverse_complement(READ): [],
            other: [exact_seed(len(other), 9000)],
            reverse_complement(other): [],
        }, [("a", READ), ("b", "TTTTGGGGCCCC")]

    def test_batch_matches_per_read(self):
        table, reads = self.table()
        per_read = make_driver(FakeSeeder(table), CountingExtender())
        batch = make_driver(FakeSeeder(table), CountingExtender())
        rows = lambda mapped: [
            (m.read_name, m.position, m.reverse, m.score, m.mapping_quality)
            for m in mapped
        ]
        singles = [per_read.align_batch([read])[0] for read in reads]
        assert rows(singles) == rows(batch.align_batch(reads))
        assert per_read.stats == batch.stats

    def test_empty_batch_still_calls_seed_batch(self):
        """Segment-major order streams tables even for an empty batch."""
        seeder = FakeSeeder({})
        driver = make_driver(seeder, CountingExtender())
        assert driver.align_batch([]) == []
        assert seeder.batch_calls == 1


class TestSelection:
    def test_below_min_score_is_unmapped(self):
        table = {READ: [partial_seed(0, 8, (300,))]}
        driver = make_driver(
            FakeSeeder(table), CountingExtender(score=3), min_score=30
        )
        mapped = driver.align_read("weak", READ)
        assert mapped.is_unmapped
        assert driver.stats.reads_unmapped == 1
        assert driver.stats.reads_mapped == 0

    def test_candidate_cap_respected(self):
        positions = tuple(range(100, 100 + 10 * len(READ), len(READ)))
        table = {READ: [partial_seed(0, 8, positions)]}
        extender = CountingExtender()
        driver = make_driver(FakeSeeder(table), extender, max_candidates=3)
        driver.align_read("capped", READ)
        assert extender.calls <= 2 * 3  # per strand
