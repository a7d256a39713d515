"""The pytest bridge: every committed corpus case replays as a tier-1 test.

A failure here means a kernel change either broke a fast/oracle contract
on a previously-minimized case, or silently moved an agreed-upon answer
(both outputs are pinned).  Re-record deliberately changed cases with
``repro-difftest shrink <file> --out tests/difftest/corpus``.
"""

import os

import pytest

from repro.difftest.corpus import (
    CorpusEntry,
    default_corpus_dir,
    entry_filename,
    entry_from_json,
    load_corpus,
    make_entry,
    replay_entry,
    write_entry,
)
from repro.difftest.grammar import DiffCase
from repro.difftest.oracles import Contract, get_pair

CORPUS = load_corpus()


def _corpus_id(entry: CorpusEntry) -> str:
    return os.path.basename(entry.path or entry.pair)


class TestCommittedCorpus:
    def test_corpus_is_seeded(self):
        assert len(CORPUS) >= 10

    def test_required_family_coverage(self):
        # Every contract class carries at least one homopolymer case and
        # one band/K-boundary indel case (family "edit_burst" or
        # "tandem_repeat" unit-indel shapes).
        by_contract = {}
        for entry in CORPUS:
            by_contract.setdefault(entry.contract, set()).add(entry.case.family)
        for contract in Contract:
            families = by_contract.get(contract, set())
            assert "homopolymer" in families, contract
            assert families & {"edit_burst", "tandem_repeat"}, contract

    @pytest.mark.parametrize("entry", CORPUS, ids=_corpus_id)
    def test_replay(self, entry):
        result = replay_entry(entry)
        assert result.ok, f"{entry.path}: {result.detail}"


class TestCorpusFormat:
    def test_roundtrip_json(self):
        pair = get_pair("silla-vs-dp")
        case = DiffCase("uniform", "ACGT", "ACG", {"k": 1, "band": 1, "smem_k": 3})
        entry = make_entry(pair, case, seed="0:silla-vs-dp:0", note="roundtrip")
        rebuilt = entry_from_json(entry.to_json())
        assert rebuilt.case == entry.case
        assert rebuilt.expected_fast == entry.expected_fast
        assert rebuilt.contract is entry.contract

    def test_filename_is_content_addressed(self):
        pair = get_pair("silla-vs-dp")
        case = DiffCase("uniform", "ACGT", "ACG", {"k": 1, "band": 1, "smem_k": 3})
        first = make_entry(pair, case, seed="s")
        second = make_entry(pair, case, seed="s")
        assert entry_filename(first) == entry_filename(second)
        other = make_entry(pair, case.replace(query="AC"), seed="s")
        assert entry_filename(other) != entry_filename(first)

    def test_schema_version_enforced(self):
        data = {"schema": 999}
        with pytest.raises(ValueError):
            entry_from_json(data)

    def test_write_is_idempotent(self, tmp_path):
        pair = get_pair("silla-vs-dp")
        case = DiffCase("uniform", "ACGT", "ACG", {"k": 1, "band": 1, "smem_k": 3})
        entry = make_entry(pair, case, seed="s")
        first = write_entry(str(tmp_path), entry)
        second = write_entry(str(tmp_path), entry)
        assert first == second
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_load_corpus_missing_dir_is_empty(self, tmp_path):
        assert load_corpus(str(tmp_path / "nope")) == []

    def test_default_corpus_dir_points_into_tests(self):
        assert default_corpus_dir().endswith("tests/difftest/corpus")


class TestReplayDetectsDrift:
    def test_contract_break_detected(self):
        pair = get_pair("silla-vs-dp")
        case = DiffCase("uniform", "ACGT", "ACGT", {"k": 1, "band": 1, "smem_k": 3})
        entry = make_entry(pair, case, seed="s")
        # Forge an entry whose recorded outputs disagree with reality.
        forged = CorpusEntry(
            pair=entry.pair,
            contract=entry.contract,
            case=entry.case,
            seed=entry.seed,
            expected_fast=entry.expected_fast + 1,
            expected_oracle=entry.expected_oracle,
        )
        result = replay_entry(forged)
        assert not result.ok
        assert "drifted" in result.detail
