"""genaxlint: repo-specific static analysis for the GenAx reproduction.

Generic linters check style; this package checks the *invariants the
simulator's correctness rests on* and that no off-the-shelf tool knows
about:

* **determinism** — every RNG is explicitly seeded, cycle/throughput
  models never read the wall clock, and output-affecting paths never
  iterate a ``set`` in hash order (:mod:`repro.analysis.rules.determinism`);
* **counter hygiene** — every counter field declared on a stats dataclass
  is folded into its ``merge`` method, so the shard-parallel driver in
  :mod:`repro.parallel.engine` can never silently drop a counter
  (:mod:`repro.analysis.rules.counters`);
* **pickle safety** — nothing unpicklable (lambdas, nested functions) is
  ever handed to the multiprocess engine
  (:mod:`repro.analysis.rules.pickle_safety`);
* **API hygiene** — no mutable default arguments, bare ``except`` clauses
  or float ``==`` comparisons (:mod:`repro.analysis.rules.api_hygiene`).

Every rule sees one module at a time.  Whole-program properties — uint64
carry arithmetic in the Myers kernel, worker purity across the fork
boundary — are held by the goldens, the serial/parallel concordance tests
and the difftest fuzzer, which compare output rather than prove syntax.

Run it with ``repro-genaxlint`` (installed console script) or
``python -m repro.analysis``.  Findings can be suppressed inline with
``# genaxlint: disable=<rule-name>`` on the offending line; counter-merge
exceptions live in the documented allowlist in
:mod:`repro.analysis.config`, not in inline suppressions.
"""

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import (
    RuleContext,
    RuleSpec,
    all_rules,
    get_rule,
    render_rule_table,
    rule,
)
from repro.analysis.runner import lint_files, lint_paths, lint_source
from repro.analysis.sarif import render_sarif

__all__ = [
    "Finding",
    "Severity",
    "RuleContext",
    "RuleSpec",
    "all_rules",
    "get_rule",
    "render_rule_table",
    "render_sarif",
    "rule",
    "lint_files",
    "lint_paths",
    "lint_source",
]
