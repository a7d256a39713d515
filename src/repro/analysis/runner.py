"""File collection and rule execution for genaxlint.

One parse per module: the runner tokenises (for suppressions) and parses
(for rules) each file once, hands the shared :class:`RuleContext` to every
rule, and filters the findings through the inline suppressions.

Runner-level problems are findings too, because a lint gate that crashes
on bad input can be defeated by bad input:

* ``GX001`` — unparseable file;
* ``GX002`` — malformed suppression directive / unknown rule name;
* ``GX003`` — a suppression that suppressed nothing (the unused-ignore
  audit, mirror of mypy's ``warn_unused_ignores``; a ``WARNING``, so it
  reports without failing the gate).
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import (
    RuleContext,
    RuleSpec,
    all_rules,
    known_rule_names,
)
from repro.analysis.suppress import SuppressionError, parse_suppressions

_SKIP_DIR_NAMES = frozenset(
    {"__pycache__", ".git", ".mypy_cache", ".pytest_cache", "build", "dist"}
)

#: Names usable in suppression comments beyond registered rules: ``all``
#: plus the runner's own meta findings.
_META_RULE_NAMES = frozenset(
    {"all", "parse-error", "bad-suppression", "unused-suppression"}
)


def collect_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted, deduplicated .py file list."""
    seen: Dict[str, None] = {}
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                seen[os.path.normpath(path)] = None
            continue
        if not os.path.isdir(path):
            raise FileNotFoundError(f"lint path does not exist: {path}")
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                name
                for name in dirnames
                if name not in _SKIP_DIR_NAMES and not name.startswith(".")
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    seen[os.path.normpath(os.path.join(dirpath, filename))] = None
    return sorted(seen)


@dataclass
class _ModuleLint:
    """One module's lint state, carried into the suppression audit."""

    path: str
    findings: List[Finding] = field(default_factory=list)
    suppressions: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    # line -> suppression names that actually silenced a finding.
    used: Dict[int, Set[str]] = field(default_factory=dict)
    # line -> names GX002 already reported as unknown (skipped by GX003).
    unknown: Dict[int, Set[str]] = field(default_factory=dict)

    def filter(self, finding: Finding) -> bool:
        """True if *finding* survives suppressions; records usage if not."""
        names = self.suppressions.get(finding.line)
        if names is None:
            return True
        if finding.rule in names:
            self.used.setdefault(finding.line, set()).add(finding.rule)
            return False
        if "all" in names:
            self.used.setdefault(finding.line, set()).add("all")
            return False
        return True


def _scan_module(
    source: str, path: str, rules: Sequence[RuleSpec]
) -> _ModuleLint:
    """Parse one module's suppressions and source, then run *rules*."""
    mod = _ModuleLint(path=path)

    try:
        mod.suppressions = parse_suppressions(source)
    except SuppressionError as error:
        mod.findings.append(_meta_finding(path, 1, "GX002", str(error)))

    known = known_rule_names() | _META_RULE_NAMES
    for line, names in sorted(mod.suppressions.items()):
        for name in sorted(names - known):
            mod.unknown.setdefault(line, set()).add(name)
            mod.findings.append(
                _meta_finding(
                    path,
                    line,
                    "GX002",
                    f"suppression names unknown rule {name!r}",
                )
            )

    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        mod.findings.append(
            _meta_finding(path, error.lineno or 1, "GX001", f"syntax error: {error.msg}")
        )
        return mod

    ctx = RuleContext(
        path=path, source=source, tree=tree, suppressions=mod.suppressions
    )
    for spec in rules:
        for finding in spec.func(ctx):
            if mod.filter(finding):
                mod.findings.append(finding)
    return mod


def _audit_suppressions(mod: _ModuleLint) -> None:
    """Append GX003 warnings for suppressions that silenced nothing."""
    for line, names in sorted(mod.suppressions.items()):
        used = mod.used.get(line, set())
        unknown = mod.unknown.get(line, set())
        unused = sorted(
            name
            for name in names
            if name not in used
            and name not in unknown
            and name != "unused-suppression"
        )
        if not unused:
            continue
        # Only an *explicit* unused-suppression name silences the audit —
        # a stale ``disable=all`` must still warn (mypy's
        # warn_unused_ignores semantics: ``# type: ignore`` does not hide
        # its own unused-ignore warning).
        if "unused-suppression" in names:
            continue
        mod.findings.append(
            _meta_finding(
                mod.path,
                line,
                "GX003",
                "suppression of "
                + ", ".join(repr(name) for name in unused)
                + " matched no finding on this line",
            )
        )


def _finalize(mods: Sequence[_ModuleLint], audit: bool) -> List[Finding]:
    if audit:
        for mod in mods:
            _audit_suppressions(mod)
    findings = [finding for mod in mods for finding in mod.findings]
    findings.sort(key=lambda finding: (finding.path, finding.line, finding.code))
    return findings


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[RuleSpec]] = None,
    audit: bool = True,
) -> List[Finding]:
    """Run *rules* (default: every registered rule) over one module's source."""
    if rules is None:
        rules = all_rules()
    return _finalize([_scan_module(source, path, rules)], audit)


def lint_files(
    files: Iterable[str],
    rules: Optional[Sequence[RuleSpec]] = None,
    audit: bool = True,
) -> List[Finding]:
    """Lint *files* with *rules* (default: every registered rule)."""
    if rules is None:
        rules = all_rules()
    mods: List[_ModuleLint] = []
    for path in files:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        mods.append(_scan_module(source, path, rules))
    return _finalize(mods, audit)


def lint_paths(
    paths: Sequence[str],
    only: Optional[FrozenSet[str]] = None,
) -> List[Finding]:
    """Lint files/directories with all (or ``only``-restricted) rules."""
    return lint_files(collect_files(paths), rules=all_rules(only))


def _meta_finding(path: str, line: int, code: str, message: str) -> Finding:
    names = {
        "GX001": "parse-error",
        "GX002": "bad-suppression",
        "GX003": "unused-suppression",
    }
    hints = {
        "GX001": "fix the syntax error; unparseable files cannot be linted",
        "GX002": "use '# genaxlint: disable=<rule>[,<rule>...]' with "
        "registered rule names (repro-genaxlint --list-rules)",
        "GX003": "delete the stale suppression; it no longer silences "
        "anything and would hide a future regression",
    }
    return Finding(
        path=path,
        line=line,
        column=1,
        rule=names[code],
        code=code,
        message=message,
        hint=hints[code],
        severity=Severity.WARNING if code == "GX003" else Severity.ERROR,
    )
