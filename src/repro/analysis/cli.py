"""``repro-genaxlint`` command line (also ``python -m repro.analysis``).

Exit status: 0 when clean (warnings such as the GX003 unused-suppression
audit report but do not gate), 1 when any error-severity finding is
reported, 2 on usage errors.  ``--format json`` emits the machine-readable
report CI consumes; ``--format sarif`` emits a SARIF 2.1.0 log for GitHub
code-scanning (``--output`` writes it to a file); ``--changed`` lints only
files differing from ``main`` (plus untracked files) for fast pre-commit
iteration.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from typing import FrozenSet, List, Optional, Sequence

from repro.analysis.config import DEFAULT_LINT_ROOTS, allowlist_reasons
from repro.analysis.findings import Severity, render_json, render_text
from repro.analysis.registry import all_rules
from repro.analysis.runner import collect_files, lint_files
from repro.analysis.sarif import render_sarif


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-genaxlint",
        description=(
            "Repo-specific static analysis for the GenAx reproduction: "
            "determinism, counter hygiene, pickle safety, API hygiene."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=f"files or directories to lint (default: {' '.join(DEFAULT_LINT_ROOTS)})",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help=(
            "output format (json is what CI consumes; sarif feeds GitHub "
            "code-scanning)"
        ),
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule names to run (default: all)",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help="lint only files differing from --base (plus untracked files)",
    )
    parser.add_argument(
        "--base",
        default="main",
        help="git ref --changed diffs against (default: main)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule and the counter allowlist, then exit",
    )
    return parser


def _changed_files(base: str) -> List[str]:
    """Python files differing from *base*, plus untracked ones."""

    def git_lines(*args: str) -> List[str]:
        result = subprocess.run(
            ("git",) + args,
            check=True,
            capture_output=True,
            text=True,
        )
        return [line for line in result.stdout.splitlines() if line.strip()]

    toplevel = git_lines("rev-parse", "--show-toplevel")[0]
    names = git_lines("diff", "--name-only", base, "--", "*.py")
    names += git_lines("ls-files", "--others", "--exclude-standard", "--", "*.py")
    files = []
    for name in names:
        path = os.path.join(toplevel, name)
        if os.path.isfile(path):
            files.append(os.path.normpath(path))
    return sorted(set(files))


def _list_rules() -> str:
    lines = ["registered rules:"]
    for spec in all_rules():
        lines.append(f"  {spec.code}  {spec.name:18s} {spec.description}")
    reasons = allowlist_reasons()
    if reasons:
        lines.append("counter allowlist (repro.analysis.config.COUNTER_ALLOWLIST):")
        for key, reason in sorted(reasons.items()):
            lines.append(f"  {key}: {reason}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    only: Optional[FrozenSet[str]] = None
    if args.rules:
        only = frozenset(name.strip() for name in args.rules.split(",") if name.strip())

    if args.changed:
        if args.paths:
            parser.error("--changed and explicit paths are mutually exclusive")
        try:
            files = _changed_files(args.base)
        except (subprocess.CalledProcessError, FileNotFoundError) as error:
            print(f"repro-genaxlint: --changed needs git: {error}", file=sys.stderr)
            return 2
    else:
        paths = args.paths or [
            root for root in DEFAULT_LINT_ROOTS if os.path.isdir(root)
        ]
        try:
            files = collect_files(paths)
        except FileNotFoundError as error:
            print(f"repro-genaxlint: {error}", file=sys.stderr)
            return 2

    try:
        findings = lint_files(files, rules=all_rules(only))
    except KeyError as error:
        print(f"repro-genaxlint: {error.args[0]}", file=sys.stderr)
        return 2

    if args.format == "json":
        report = render_json(findings)
    elif args.format == "sarif":
        report = render_sarif(findings)
    else:
        checked = f"{len(files)} file(s) checked"
        report = f"{render_text(findings)} [{checked}]"

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    else:
        print(report)
    errors = [f for f in findings if f.severity is Severity.ERROR]
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
