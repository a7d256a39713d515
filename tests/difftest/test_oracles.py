"""Tests for the oracle registry and comparison contracts."""

import pytest

from repro.difftest.grammar import CaseGenerator, DiffCase
from repro.difftest.oracles import (
    MAPPING_BUDGET,
    MAPPING_MAX_READ,
    MAPPING_MIN_SCORE,
    Contract,
    all_pairs,
    compare_outputs,
    evaluate_pair,
    get_pair,
    pair_names,
)

PARAMS = {"k": 2, "band": 2, "smem_k": 3}


class TestRegistry:
    def test_every_contract_class_represented(self):
        contracts = {pair.contract for pair in all_pairs()}
        assert contracts == set(Contract)

    def test_names_unique_and_sorted_api(self):
        names = pair_names()
        assert len(names) == len(set(names))
        assert "genax-vs-bwamem" in names

    def test_get_pair_unknown_raises(self):
        with pytest.raises(ValueError):
            get_pair("no-such-pair")

    def test_registry_is_stable_across_calls(self):
        assert [pair.name for pair in all_pairs()] == [
            pair.name for pair in all_pairs()
        ]

    def test_hooks_are_module_level(self):
        # Pickle-safety for a future sharded driver: no lambdas/closures.
        for pair in all_pairs():
            for hook in (pair.fast, pair.oracle):
                assert "<locals>" not in hook.__qualname__, pair.name
                assert hook.__name__ != "<lambda>", pair.name


class TestContracts:
    def test_exact_score_mismatch_detail(self):
        detail = compare_outputs(Contract.EXACT_SCORE, 3, 4)
        assert detail is not None and "mismatch" in detail

    def test_exact_score_agreement(self):
        assert compare_outputs(Contract.EXACT_SCORE, 3, 3) is None

    def test_hit_set_order_matters(self):
        assert compare_outputs(Contract.HIT_SET, [1, 2], [2, 1]) is not None

    def test_score_cigar_requires_valid_sides(self):
        good = {"score": 5, "cigar": "5=", "valid": True}
        bad = {"score": 5, "cigar": "5=", "valid": False, "error": "overrun"}
        assert compare_outputs(Contract.SCORE_CIGAR, good, good) is None
        detail = compare_outputs(Contract.SCORE_CIGAR, bad, good)
        assert detail is not None and "invalid" in detail

    def test_score_cigar_allows_different_cigars(self):
        left = {"score": 5, "cigar": "1=1D4=", "valid": True}
        right = {"score": 5, "cigar": "4=1D1=", "valid": True}
        assert compare_outputs(Contract.SCORE_CIGAR, left, right) is None

    def test_score_cigar_score_mismatch(self):
        left = {"score": 5, "cigar": "5=", "valid": True}
        right = {"score": 6, "cigar": "6=", "valid": True}
        assert compare_outputs(Contract.SCORE_CIGAR, left, right) is not None


class TestEvaluation:
    def test_agreeing_case_returns_none(self):
        pair = get_pair("silla-vs-dp")
        case = DiffCase("uniform", "ACGT", "ACGT", dict(PARAMS))
        assert evaluate_pair(pair, case) is None

    def test_disagreement_carries_both_outputs(self):
        # A synthetic pair is overkill: feed mismatched outputs directly.
        detail = compare_outputs(Contract.EXACT_SCORE, 1, 2)
        assert detail == "output mismatch: fast=1 oracle=2"

    @pytest.mark.parametrize("name", [
        "silla-vs-dp",
        "ula-vs-dp",
        "systolic-vs-banded",
        "banded-score-vs-traceback",
        "hirschberg-vs-nw",
        "myers-search-vs-dp",
        "smem-batch-vs-brute",
        "rmem-batch-vs-cam",
        "segments-one-pass-vs-per-segment",
        "candidate-table-vs-per-read",
        "bitvector-semiglobal-vs-myers",
    ])
    def test_cheap_pairs_agree_on_short_budget(self, name):
        pair = get_pair(name)
        generator = CaseGenerator(0, pair.name, pair.spec)
        for index in range(12):
            disagreement = evaluate_pair(pair, generator.generate(index))
            assert disagreement is None, disagreement

    def test_empty_inputs_every_pair(self):
        empty = DiffCase("uniform", "", "", dict(PARAMS))
        for pair in all_pairs():
            if pair.name == "genax-vs-bwamem":
                continue  # mapping needs a non-empty genome by API contract
            disagreement = evaluate_pair(pair, empty)
            assert disagreement is None, (pair.name, disagreement)


class TestMappingBudget:
    def test_shared_budget_is_the_theorem_bound(self):
        from repro.align.scoring import BWA_MEM_SCHEME

        assert MAPPING_BUDGET == BWA_MEM_SCHEME.max_edits_for_score(
            MAPPING_MAX_READ, MAPPING_MIN_SCORE
        )

    def test_mapping_spec_respects_max_read(self):
        pair = get_pair("genax-vs-bwamem")
        assert pair.spec.query_len[1] == MAPPING_MAX_READ
        assert pair.spec.related_query
