"""Tests for the difftest input grammar."""

import random

import pytest

from repro.difftest.grammar import (
    CLASSIC_FAMILIES,
    FAMILIES,
    CaseGenerator,
    DiffCase,
    GenSpec,
    _mutate,
)

DNA = set("ACGT")


class TestDiffCase:
    def test_param_lookup(self):
        case = DiffCase("uniform", "ACGT", "ACG", {"k": 3})
        assert case.param("k") == 3

    def test_param_missing_raises(self):
        case = DiffCase("uniform", "ACGT", "ACG", {"k": 3})
        with pytest.raises(KeyError):
            case.param("band")

    def test_replace_copies_params(self):
        case = DiffCase("uniform", "ACGT", "ACG", {"k": 3})
        other = case.replace(params={"k": 1})
        assert case.params == {"k": 3}
        assert other.params == {"k": 1}
        assert other.reference == "ACGT"

    def test_replace_strings(self):
        case = DiffCase("uniform", "ACGT", "ACG", {"k": 3})
        assert case.replace(reference="").reference == ""
        assert case.replace(query="T").query == "T"


class TestDeterminism:
    def test_same_coordinates_same_case(self):
        spec = GenSpec()
        first = CaseGenerator(7, "some-pair", spec)
        second = CaseGenerator(7, "some-pair", spec)
        for index in range(30):
            assert first.generate(index) == second.generate(index)

    def test_cases_independent_of_order(self):
        gen = CaseGenerator(7, "some-pair", GenSpec())
        forward = [gen.generate(index) for index in range(12)]
        backward = [gen.generate(index) for index in reversed(range(12))]
        assert forward == list(reversed(backward))

    def test_different_pairs_different_streams(self):
        spec = GenSpec(ref_len=(20, 40), query_len=(10, 20))
        left = CaseGenerator(7, "pair-a", spec).cases(10)
        right = CaseGenerator(7, "pair-b", spec).cases(10)
        assert left != right

    def test_case_seed_format(self):
        gen = CaseGenerator(3, "p", GenSpec())
        assert gen.case_seed(9) == "3:p:9"


class TestFamilies:
    def test_default_rotation_covers_the_classic_families(self):
        # A default spec rotates exactly the frozen classic six — the
        # scenario families must never perturb pre-existing pairs'
        # seeded streams.
        gen = CaseGenerator(0, "p", GenSpec(ref_len=(10, 20), query_len=(5, 10)))
        families = {
            gen.generate(index).family
            for index in range(len(CLASSIC_FAMILIES))
        }
        assert families == set(CLASSIC_FAMILIES)

    def test_pinned_families_rotate_scenario_generators(self):
        scenario = ("long_read_indel", "paired_end")
        gen = CaseGenerator(
            0,
            "p",
            GenSpec(ref_len=(60, 90), query_len=(20, 40), families=scenario),
        )
        families = {gen.generate(index).family for index in range(4)}
        assert families == set(scenario)

    def test_registry_covers_classic_and_scenario_families(self):
        assert set(FAMILIES) == set(CLASSIC_FAMILIES) | {
            "long_read_indel",
            "paired_end",
        }

    def test_sequences_are_dna(self):
        gen = CaseGenerator(1, "p", GenSpec(ref_len=(10, 40), query_len=(5, 30)))
        for index in range(40):
            case = gen.generate(index)
            assert set(case.reference) <= DNA
            assert set(case.query) <= DNA

    def test_lengths_respect_spec(self):
        spec = GenSpec(ref_len=(16, 32), query_len=(4, 12))
        gen = CaseGenerator(2, "p", spec)
        for index in range(40):
            case = gen.generate(index)
            assert 16 <= len(case.reference) <= 32

    def test_related_query_is_window_derived(self):
        spec = GenSpec(ref_len=(60, 80), query_len=(20, 30), related_query=True)
        gen = CaseGenerator(3, "p", spec)
        # Related queries that received zero edits are exact substrings.
        exact = sum(
            1
            for index in range(60)
            if gen.generate(index).query in gen.generate(index).reference
        )
        assert exact > 0

    def test_min_k_respected(self):
        gen = CaseGenerator(4, "p", GenSpec(min_k=2))
        for index in range(30):
            assert gen.generate(index).param("k") >= 2

    def test_params_always_present(self):
        gen = CaseGenerator(5, "p", GenSpec())
        case = gen.generate(0)
        assert set(case.params) == {"k", "band", "smem_k"}


class TestMutate:
    def test_zero_edits_identity(self):
        rng = random.Random(0)
        assert _mutate(rng, "ACGTACGT", 0) == "ACGTACGT"

    def test_empty_sequence_grows(self):
        rng = random.Random(0)
        assert len(_mutate(rng, "", 3)) >= 1

    def test_never_raises_with_clustering_window(self):
        # Deletions can shrink the sequence below the cluster window; the
        # position clamp must keep every edit in range.
        for seed in range(200):
            rng = random.Random(seed)
            result = _mutate(rng, "ACGTAC", 6, window=2)
            assert set(result) <= DNA
