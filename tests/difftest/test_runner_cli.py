"""Tests for the fuzz runner and the repro-difftest CLI."""

import json

import pytest

from repro.difftest.cli import main
from repro.difftest.grammar import DiffCase, GenSpec
from repro.difftest.oracles import Contract, OraclePair
from repro.difftest.runner import (
    DiffStats,
    resolve_pairs,
    run_pair,
    run_pairs,
)

CHEAP_PAIRS = ["silla-vs-dp", "smem-batch-vs-brute", "hirschberg-vs-nw"]


def _broken_fast(case: DiffCase) -> int:
    # Deliberately wrong on any reference containing "GG".
    return 1 if "GG" in case.reference else 0


def _constant_oracle(case: DiffCase) -> int:
    return 0


BROKEN_PAIR = OraclePair(
    name="broken-for-tests",
    contract=Contract.EXACT_SCORE,
    description="synthetic pair that disagrees whenever the reference has GG",
    fast=_broken_fast,
    oracle=_constant_oracle,
    spec=GenSpec(ref_len=(24, 48), query_len=(0, 8)),
)


class TestRunner:
    def test_clean_pairs_report_ok(self):
        report = run_pairs(cases=6, seed=0, pairs=CHEAP_PAIRS)
        assert report.ok
        assert report.total_disagreements == 0
        assert [p.pair for p in report.pairs] == CHEAP_PAIRS

    def test_determinism_identical_reports(self):
        first = run_pairs(cases=8, seed=3, pairs=CHEAP_PAIRS)
        second = run_pairs(cases=8, seed=3, pairs=CHEAP_PAIRS)
        assert json.dumps(first.to_json(), sort_keys=True) == json.dumps(
            second.to_json(), sort_keys=True
        )

    def test_broken_pair_caught_and_shrunk(self):
        report = run_pair(BROKEN_PAIR, cases=30, seed=0)
        assert not report.ok
        record = report.disagreements[0]
        # The shrunk case is minimal: exactly the load-bearing dinucleotide.
        assert record["shrunk_case"]["reference"] == "GG"
        assert record["shrunk_case"]["query"] == ""
        assert record["seed"].startswith("0:broken-for-tests:")

    def test_broken_pair_writes_corpus(self, tmp_path):
        report = run_pair(
            BROKEN_PAIR, cases=30, seed=0, corpus_dir=str(tmp_path)
        )
        assert report.stats.corpus_writes == len(report.disagreements)
        files = sorted(tmp_path.glob("*.json"))
        assert files
        data = json.loads(files[0].read_text())
        assert data["pair"] == "broken-for-tests"
        assert data["reference"] == "GG"

    def test_no_shrink_mode(self):
        report = run_pair(BROKEN_PAIR, cases=30, seed=0, shrink=False)
        assert not report.ok
        assert report.stats.shrink_evaluations == 0
        assert "shrunk_case" not in report.disagreements[0]

    def test_resolve_pairs_default_is_all(self):
        assert len(resolve_pairs(None)) >= 13

    def test_resolve_pairs_unknown_raises(self):
        with pytest.raises(ValueError):
            resolve_pairs(["nope"])

    def test_stats_merge(self):
        left = DiffStats(cases_run=2, disagreements=1, shrink_evaluations=5)
        right = DiffStats(cases_run=3, corpus_writes=2)
        left.merge(right)
        assert left == DiffStats(
            cases_run=5, disagreements=1, shrink_evaluations=5, corpus_writes=2
        )


class TestCli:
    def test_run_exit_zero_and_report(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            [
                "run",
                "--cases",
                "4",
                "--seed",
                "0",
                "--report",
                str(report_path),
            ]
            + [arg for name in CHEAP_PAIRS for arg in ("--pair", name)]
        )
        assert code == 0
        data = json.loads(report_path.read_text())
        assert data["ok"] is True
        assert data["cases_per_pair"] == 4
        assert "0 disagreement(s)" in capsys.readouterr().out

    def test_run_reports_are_deterministic(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert (
                main(
                    [
                        "run",
                        "--cases",
                        "4",
                        "--seed",
                        "7",
                        "--pair",
                        "silla-vs-dp",
                        "--report",
                        str(path),
                    ]
                )
                == 0
            )
        assert paths[0].read_text() == paths[1].read_text()

    def test_replay_committed_corpus(self, capsys):
        assert main(["replay"]) == 0
        out = capsys.readouterr().out
        assert "0 failure(s)" in out

    def test_replay_empty_dir(self, tmp_path, capsys):
        assert main(["replay", "--corpus-dir", str(tmp_path)]) == 0

    def test_list_pairs(self, capsys):
        assert main(["list-pairs"]) == 0
        out = capsys.readouterr().out
        assert "genax-vs-bwamem" in out
        assert "hit-set" in out

    def test_shrink_healthy_case_is_noop(self, tmp_path, capsys):
        from repro.difftest.corpus import load_corpus

        entry = load_corpus()[0]
        assert entry.path is not None
        assert main(["shrink", entry.path]) == 0
        assert "nothing to shrink" in capsys.readouterr().out
