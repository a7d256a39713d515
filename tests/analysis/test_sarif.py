"""SARIF export: schema shape, rule metadata, and end-to-end emission.

The end-to-end class is the acceptance check for the reporting pipeline:
seeded fixture violations from two rule families (determinism and API
hygiene) must come out of the CLI in both JSON and SARIF with intact
locations.
"""

import json
import textwrap

import pytest

from repro.analysis import lint_source, render_sarif
from repro.analysis.cli import main
from repro.analysis.findings import Finding, Severity
from repro.analysis.sarif import SARIF_SCHEMA, SARIF_VERSION

#: One GX102 wall-clock hit (determinism) and one GX401 mutable-default
#: hit (API hygiene), seeded in a fixture written to tmp_path — never to
#: the repo.
MIXED_BAD_SOURCE = textwrap.dedent(
    """
    import time


    def measure():
        return time.time()


    def bump(values=[]):
        values.append(1)
        return values
    """
).lstrip()


def sample_findings():
    return [
        Finding(
            path="src/pkg/mod.py",
            line=12,
            column=5,
            rule="wall-clock",
            code="GX102",
            message="time.time() read",
            hint="inject a clock",
        ),
        Finding(
            path="src/pkg/other.py",
            line=3,
            column=1,
            rule="unused-suppression",
            code="GX003",
            message="suppression matched nothing",
            hint="delete it",
            severity=Severity.WARNING,
        ),
    ]


class TestSarifDocument:
    def test_schema_and_version(self):
        log = json.loads(render_sarif([]))
        assert log["version"] == SARIF_VERSION
        assert log["$schema"] == SARIF_SCHEMA
        assert len(log["runs"]) == 1
        assert log["runs"][0]["results"] == []

    def test_driver_publishes_every_rule(self):
        log = json.loads(render_sarif([]))
        rules = log["runs"][0]["tool"]["driver"]["rules"]
        codes = [entry["id"] for entry in rules]
        assert codes == sorted(codes)
        assert len(codes) == len(set(codes))
        # Meta findings plus rules from two families.
        for code in ("GX001", "GX003", "GX102", "GX401"):
            assert code in codes
        by_code = {entry["id"]: entry for entry in rules}
        assert by_code["GX003"]["defaultConfiguration"]["level"] == "warning"
        assert by_code["GX401"]["defaultConfiguration"]["level"] == "error"
        assert by_code["GX401"]["name"] == "mutable-default"

    def test_results_reference_rules_by_index(self):
        log = json.loads(render_sarif(sample_findings()))
        rules = log["runs"][0]["tool"]["driver"]["rules"]
        results = log["runs"][0]["results"]
        assert len(results) == 2
        for result in results:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]

    def test_result_location_and_severity(self):
        log = json.loads(render_sarif(sample_findings()))
        first, second = log["runs"][0]["results"]
        assert first["ruleId"] == "GX102"
        assert first["level"] == "error"
        region = first["locations"][0]["physicalLocation"]["region"]
        assert region == {"startLine": 12, "startColumn": 5}
        uri = first["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
        assert uri == "src/pkg/mod.py"
        assert second["level"] == "warning"

    def test_message_carries_hint(self):
        log = json.loads(render_sarif(sample_findings()))
        text = log["runs"][0]["results"][0]["message"]["text"]
        assert "time.time() read" in text
        assert "inject a clock" in text

    def test_fingerprint_stable_per_site(self):
        def fingerprints(log):
            return [
                r["partialFingerprints"]["genaxlint/v1"]
                for r in log["runs"][0]["results"]
            ]

        first = json.loads(render_sarif(sample_findings()))
        second = json.loads(render_sarif(sample_findings()))
        assert fingerprints(first) == fingerprints(second)
        assert fingerprints(first)[0] == "GX102:src/pkg/mod.py:12"

    def test_uri_outside_base_dir_left_intact(self):
        finding = sample_findings()[0]
        log = json.loads(render_sarif([finding], base_dir="/nonexistent/elsewhere"))
        uri = log["runs"][0]["results"][0]["locations"][0]["physicalLocation"][
            "artifactLocation"
        ]["uri"]
        assert uri == "src/pkg/mod.py"


@pytest.fixture()
def mixed_tree(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "mixed.py").write_text(MIXED_BAD_SOURCE)
    return tmp_path


class TestEndToEnd:
    """Seeded violations must surface in every output format (self-check)."""

    def expected_rules(self):
        return {"wall-clock", "mutable-default"}

    def test_lint_source_detects_both_families(self):
        findings = lint_source(MIXED_BAD_SOURCE, path="src/pkg/mixed.py")
        assert self.expected_rules() <= {f.rule for f in findings}

    def test_json_emission(self, mixed_tree, capsys):
        code = main(["--format", "json", str(mixed_tree)])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "repro-genaxlint"
        assert payload["finding_count"] == len(payload["findings"])
        rules = {entry["rule"] for entry in payload["findings"]}
        assert self.expected_rules() <= rules
        for entry in payload["findings"]:
            assert entry["path"].endswith("mixed.py")
            assert entry["line"] > 0

    def test_sarif_emission_to_file(self, mixed_tree, tmp_path, capsys):
        out = tmp_path / "report.sarif"
        code = main(
            ["--format", "sarif", "--output", str(out), str(mixed_tree)]
        )
        assert code == 1
        assert capsys.readouterr().out == ""
        log = json.loads(out.read_text())
        assert log["version"] == SARIF_VERSION
        results = log["runs"][0]["results"]
        assert {r["ruleId"] for r in results} >= {"GX102", "GX401"}
        driver_codes = {
            rule["id"] for rule in log["runs"][0]["tool"]["driver"]["rules"]
        }
        assert {r["ruleId"] for r in results} <= driver_codes

    def test_warning_only_findings_exit_zero(self, tmp_path, capsys):
        # A stale suppression is a GX003 warning: reported, not gating.
        target = tmp_path / "stale.py"
        target.write_text(
            "def measure(clock):\n"
            "    return clock()  # genaxlint: disable=wall-clock\n"
        )
        code = main(["--format", "json", str(target)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [f["code"] for f in payload["findings"]] == ["GX003"]
        assert [f["severity"] for f in payload["findings"]] == ["warning"]
