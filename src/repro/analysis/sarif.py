"""SARIF 2.1.0 export: genaxlint findings as GitHub code-scanning input.

One run, one tool (``repro-genaxlint``), one result per finding.  Rule
metadata for every registered rule plus the runner's
meta findings is published in ``tool.driver.rules`` so code-scanning can
render names, descriptions and help text; each result references its rule
by the stable GX code via ``ruleId``/``ruleIndex``.

The exporter is deliberately dependency-free JSON assembly — the schema
subset used here (``runs[].tool.driver.rules`` + ``results[]`` with
physical locations) is the stable core consumed by
``github/codeql-action/upload-sarif``.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Tuple

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import all_rules

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: The runner's meta findings are not registry rules but appear in output;
#: they need driver metadata too.
_META_RULES: Tuple[Tuple[str, str, str], ...] = (
    ("GX001", "parse-error", "file could not be parsed"),
    ("GX002", "bad-suppression", "malformed or unknown suppression directive"),
    ("GX003", "unused-suppression", "suppression comment that silences nothing"),
)


def _driver_rules() -> List[Dict[str, Any]]:
    entries: List[Tuple[str, str, str]] = list(_META_RULES)
    for spec in all_rules():
        entries.append((spec.code, spec.name, spec.description))
    entries.sort()
    return [
        {
            "id": code,
            "name": name,
            "shortDescription": {"text": description},
            "defaultConfiguration": {
                "level": "warning" if code == "GX003" else "error"
            },
        }
        for code, name, description in entries
    ]


def _artifact_uri(path: str, base_dir: str) -> str:
    """Repo-relative, forward-slash URI (what code-scanning anchors to)."""
    absolute = os.path.abspath(path)
    base = os.path.abspath(base_dir)
    try:
        relative = os.path.relpath(absolute, base)
    except ValueError:  # different drive on Windows
        relative = path
    if relative.startswith(".."):
        relative = path
    return relative.replace(os.sep, "/")


def render_sarif(findings: List[Finding], base_dir: str = ".") -> str:
    """Serialise *findings* as a SARIF 2.1.0 log (a JSON string)."""
    rules = _driver_rules()
    index_by_code = {rule["id"]: index for index, rule in enumerate(rules)}
    results: List[Dict[str, Any]] = []
    for finding in findings:
        result: Dict[str, Any] = {
            "ruleId": finding.code,
            "level": "error" if finding.severity is Severity.ERROR else "warning",
            "message": {"text": f"{finding.message} (hint: {finding.hint})"},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": _artifact_uri(finding.path, base_dir),
                        },
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.column,
                        },
                    }
                }
            ],
            "partialFingerprints": {
                # Stable across unrelated-line churn enough for CI dedup:
                # rule + path + line.
                "genaxlint/v1": (
                    f"{finding.code}:{_artifact_uri(finding.path, base_dir)}:"
                    f"{finding.line}"
                ),
            },
        }
        rule_index = index_by_code.get(finding.code)
        if rule_index is not None:
            result["ruleIndex"] = rule_index
        results.append(result)
    log = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-genaxlint",
                        "informationUri": (
                            "https://github.com/genax-repro/repro"
                        ),
                        "rules": rules,
                    }
                },
                "results": results,
                "columnKind": "utf16CodeUnits",
            }
        ],
    }
    return json.dumps(log, indent=2, sort_keys=True)
