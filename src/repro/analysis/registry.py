"""Pluggable rule registry.

A rule is ``(RuleContext) -> Iterator[Finding]``, registered with
:func:`rule`.  It sees one parsed module at a time (GX1xx–GX4xx).

Registration is import-time: importing :mod:`repro.analysis.rules`
populates the registry, and anything else (a plugin, a test fixture)
can register additional rules the same way.  Rule names are the stable
public contract — they appear in suppression comments and CI output — so
names and GX codes are unique, and re-registering an existing one is an
error, not a silent override.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional

from repro.analysis.findings import Finding, Severity


@dataclass(frozen=True)
class RuleContext:
    """Everything a rule may look at for one module.

    Rules receive the parsed ``tree`` plus the raw ``source`` and ``path``;
    they never re-read files, so the whole suite does one parse per module.
    """

    path: str
    source: str
    tree: ast.Module
    suppressions: Dict[int, FrozenSet[str]] = field(default_factory=dict)

    def finding(
        self,
        node: ast.AST,
        rule_name: str,
        code: str,
        message: str,
        hint: str,
        severity: Severity = Severity.ERROR,
    ) -> Finding:
        """Build a finding anchored at *node*'s location."""
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            rule=rule_name,
            code=code,
            message=message,
            hint=hint,
            severity=severity,
        )


RuleFunc = Callable[[RuleContext], Iterator[Finding]]


@dataclass(frozen=True)
class RuleSpec:
    """A registered rule: stable name, GX code, one-line rationale."""

    name: str
    code: str
    description: str
    func: RuleFunc


_REGISTRY: Dict[str, RuleSpec] = {}


def _check_unique(name: str, code: str) -> None:
    if name in _REGISTRY:
        raise ValueError(f"rule {name!r} is already registered")
    for spec in _REGISTRY.values():
        if spec.code == code:
            raise ValueError(f"rule code {code!r} is already used by {spec.name!r}")


def rule(name: str, code: str, description: str) -> Callable[[RuleFunc], RuleFunc]:
    """Register a rule function under *name* / *code*."""

    def decorate(func: RuleFunc) -> RuleFunc:
        _check_unique(name, code)
        _REGISTRY[name] = RuleSpec(
            name=name, code=code, description=description, func=func
        )
        return func

    return decorate


def get_rule(name: str) -> RuleSpec:
    _ensure_builtin_rules()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown rule {name!r} (known: {known})") from None


def known_rule_names() -> FrozenSet[str]:
    """Every registered rule name."""
    _ensure_builtin_rules()
    return frozenset(_REGISTRY)


def all_rules(only: Optional[FrozenSet[str]] = None) -> List[RuleSpec]:
    """Every registered rule, optionally restricted to names in *only*.

    Names in *only* that are not registered raise ``KeyError``.
    """
    _ensure_builtin_rules()
    specs = sorted(_REGISTRY.values(), key=lambda spec: spec.code)
    if only is None:
        return specs
    unknown = only - frozenset(_REGISTRY)
    if unknown:
        raise KeyError(f"unknown rule(s): {', '.join(sorted(unknown))}")
    return [spec for spec in specs if spec.name in only]


def render_rule_table() -> str:
    """The rule-family table embedded in README.md (kept in sync by test).

    Rendered from the live registry so the docs cannot drift from the
    code: adding a rule without regenerating the table fails
    ``tests/analysis/test_docs_sync.py``.
    """
    _ensure_builtin_rules()
    lines = [
        "| code | rule | invariant |",
        "| --- | --- | --- |",
    ]
    for spec in sorted(_REGISTRY.values(), key=lambda item: item.code):
        lines.append(f"| {spec.code} | `{spec.name}` | {spec.description} |")
    return "\n".join(lines)


def _ensure_builtin_rules() -> None:
    # Import for the registration side effect; cycle-free because the
    # rules modules import only findings/registry/config.
    import repro.analysis.rules  # noqa: F401
