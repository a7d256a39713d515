"""Admissibility tests for the ``myers`` cascade stage.

The cascade is lossless only if no stage ever vetoes a candidate the
extension engine would have accepted.  ``myers`` is exact: it admits
*iff* the true semi-global edit distance fits the budget.

Every property is checked against a reference full-DP semi-global
distance over seeded-random workloads (explicit ``random.Random`` per
repo policy, enforced by genaxlint GX101).
"""

import random

import pytest

from repro.align.records import AlignmentStats
from repro.filters import MyersCandidateFilter
from repro.genome.reference import ReferenceGenome
from repro.genome.sequence import ALPHABET
from repro.pipeline.common import Candidate, CandidateTable, fetch_window


def semiglobal_distance(query, text):
    """Min edits to align all of *query* against any substring of *text*."""
    previous = [0] * (len(text) + 1)
    for row, base in enumerate(query, start=1):
        current = [row] + [0] * len(text)
        for col, other in enumerate(text, start=1):
            current[col] = min(
                previous[col] + 1,
                current[col - 1] + 1,
                previous[col - 1] + (base != other),
            )
        previous = current
    return min(previous)


def random_cases(seed, count, text_len=40, query_len=24):
    rng = random.Random(seed)
    for _ in range(count):
        text = "".join(rng.choice(ALPHABET) for _ in range(
            rng.randrange(1, text_len)
        ))
        if rng.random() < 0.5:
            # Mutated substring: keeps plenty of within-budget cases.
            start = rng.randrange(len(text))
            query = list(text[start:start + query_len])
            for _ in range(rng.randrange(4)):
                if not query:
                    break
                pos = rng.randrange(len(query))
                query[pos] = rng.choice(ALPHABET)
            query = "".join(query)
        else:
            query = "".join(rng.choice(ALPHABET) for _ in range(
                rng.randrange(1, query_len)
            ))
        if query:
            yield query, text


def build_stage(stage_class, text, query, max_edits):
    """Stage + candidate whose fetched window is exactly *text*."""
    reference = ReferenceGenome(text, name="bounds-test")
    slack = max(0, len(text) - len(query))
    stage = stage_class(reference, max_edits, slack)
    candidate = Candidate(window_start=0, reverse=False, seed_length=len(query))
    assert fetch_window(reference, candidate, len(query), slack) == text
    return stage, candidate


class TestMyers:
    @pytest.mark.parametrize("max_edits", [0, 1, 3])
    def test_exactly_the_budget_membership_test(self, max_edits):
        for query, text in random_cases(seed=105, count=40):
            stage, candidate = build_stage(
                MyersCandidateFilter, text, query, max_edits
            )
            admitted = stage.admit(query, candidate, AlignmentStats())
            within = semiglobal_distance(query, text) <= max_edits
            assert admitted == within, (query, text, max_edits)

    def test_edit_budget_boundary(self):
        # One substitution inside the best placement: rejected at budget 0,
        # admitted from budget 1 on.
        query, text = "AAAACCCC", "GGAAAACTCCGG"
        for max_edits, expected in ((0, False), (1, True)):
            stage, candidate = build_stage(
                MyersCandidateFilter, text, query, max_edits
            )
            assert stage.admit(query, candidate, AlignmentStats()) is expected

    def test_batch_verdicts_match_scalar(self):
        # Heterogeneous lengths in one kernel call, plus lanes the packed
        # kernel cannot take (an N, lower case), which keep the scalar
        # verdict instead of raising.
        cases = list(random_cases(seed=106, count=24))
        texts = [text for _, text in cases]
        reference = ReferenceGenome("".join(texts), name="batch-test")
        jobs, offset = [], 0
        for index, (query, text) in enumerate(cases):
            if index % 6 == 1:
                query = query[:-1] + "N"
            elif index % 6 == 4:
                query = query.lower()
            jobs.append(
                (query, Candidate(offset, reverse=False, seed_length=len(query)))
            )
            offset += len(text)
        for max_edits in (0, 1, 3):
            stage = MyersCandidateFilter(reference, max_edits, 5)
            batch_stats, scalar_stats = AlignmentStats(), AlignmentStats()
            batched = stage.admit_batch(
                CandidateTable.from_jobs(jobs), batch_stats
            ).tolist()
            scalar = [
                stage.admit(query, candidate, scalar_stats)
                for query, candidate in jobs
            ]
            assert batched == scalar, max_edits
            assert any(batched) and not all(batched), max_edits
            assert batch_stats.prefilter_cycles == scalar_stats.prefilter_cycles

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            MyersCandidateFilter(ReferenceGenome("ACGT", name="t"), -1, 0)


class TestCycleCharging:
    @pytest.mark.parametrize("stage_class", [MyersCandidateFilter])
    def test_each_admit_charges_the_streamed_window(self, stage_class):
        text = "ACGTACGTACGTACGT"
        query = "ACGTACGT"
        stage, candidate = build_stage(stage_class, text, query, 2)
        stats = AlignmentStats()
        stage.admit(query, candidate, stats)
        assert stats.prefilter_cycles == len(text)

    @pytest.mark.parametrize("stage_class", [MyersCandidateFilter])
    def test_admit_batch_charges_each_streamed_window(self, stage_class):
        text = "ACGTACGTACGTACGT"
        query = "ACGTACGT"
        stage, candidate = build_stage(stage_class, text, query, 2)
        stats = AlignmentStats()
        stage.admit_batch(CandidateTable.from_jobs([(query, candidate)] * 3), stats)
        assert stats.prefilter_cycles == 3 * len(text)
