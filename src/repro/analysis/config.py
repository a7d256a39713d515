"""genaxlint policy: lint roots and the documented allowlists.

Three allowlists live here, all following the same contract: an entry
sanctions one *named site* for one *named rule*, and must carry a
human-readable reason.  Adding an entry is a reviewed code change — that
is the point.  Exceptions to the repo's invariants are declared in one
audited place instead of scattered inline suppressions (repo policy,
enforced by ``tests/analysis/test_self_check.py``, is that no inline
suppression ships).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple

#: Directories (relative to the repo root) the suite lints in CI.
DEFAULT_LINT_ROOTS: Tuple[str, ...] = ("src", "benchmarks", "tests", "examples")


@dataclass(frozen=True)
class CounterException:
    """One documented exception to the counter-hygiene contract.

    ``exempt_from_merge`` waives the "field must be folded in ``merge``"
    requirement; ``shard_variant`` records that the counter is merged but
    its merged value legitimately differs from a serial run's, so the
    serial/parallel concordance tests must not assert equality on it.
    Every entry needs a human-readable ``reason`` — the allowlist is the
    documentation.
    """

    field: str  # "ClassName.field_name"
    reason: str
    exempt_from_merge: bool = False
    shard_variant: bool = False


#: The counter allowlist.  Adding an entry here is a reviewed code change,
#: which is the point: exceptions to counter hygiene are declared in one
#: audited place instead of scattered inline suppressions.
COUNTER_ALLOWLIST: Tuple[CounterException, ...] = (
    CounterException(
        field="SeedingStats.table_bytes_streamed",
        reason=(
            "Merged additively, but the merged value grows with the shard "
            "count: each shard streams the segment index tables through its "
            "own modelled SRAM, so k shards stream ~k times the table bytes "
            "of a serial run.  That is the honest DDR-traffic price of "
            "sharding a segment-major pipeline (see repro/parallel/engine.py) "
            "and the concordance tests assert the exact relationship instead "
            "of equality."
        ),
        shard_variant=True,
    ),
)


def merge_exempt_fields() -> FrozenSet[str]:
    """``ClassName.field`` keys excused from the merge-coverage check."""
    return frozenset(
        entry.field for entry in COUNTER_ALLOWLIST if entry.exempt_from_merge
    )


def shard_variant_counters() -> FrozenSet[str]:
    """Bare counter names whose merged value may differ from a serial run.

    Consumed by the serial/parallel concordance tests — the allowlist is
    load-bearing at test time, not just lint-time documentation.
    """
    return frozenset(
        entry.field.split(".", 1)[1]
        for entry in COUNTER_ALLOWLIST
        if entry.shard_variant
    )


def allowlist_reasons() -> Dict[str, str]:
    """``ClassName.field`` -> documented reason, for reports and docs."""
    return {entry.field: entry.reason for entry in COUNTER_ALLOWLIST}


@dataclass(frozen=True)
class SanctionedSite:
    """One function sanctioned for one interprocedural rule.

    ``site`` is the fully qualified function name as the project graph
    spells it (``repro.align.bitvector._ripple_add``,
    ``repro.parallel.engine._init_worker``); ``rule`` is the rule name the
    sanction waives (``uint64-wrap``, ``worker-global-state``, ...).  A
    site is sanctioned for exactly the rules that name it — a wrapping
    waiver does not excuse a hidden copy in the same function.
    """

    site: str
    rule: str
    reason: str


#: GX5xx dtype-flow sanctions: the deliberate wrapping-overflow and
#: hidden-copy sites of the uint64 kernel lattice.  Every entry is a
#: function whose *correctness or throughput design depends on* the
#: flagged behaviour; the reasons say why, and
#: tests/align/test_bitvector_properties.py cross-checks the wrap sites
#: against arbitrary-precision Python-int arithmetic at runtime.
DTYPE_ALLOWLIST: Tuple[SanctionedSite, ...] = (
    SanctionedSite(
        site="repro.align.bitvector._ripple_add",
        rule="uint64-wrap",
        reason=(
            "The Myers block carry ripple is *defined* over modular uint64 "
            "addition: `partial = addend + vp` and `total = partial + carry` "
            "must wrap so the `partial < addend` / `total < partial` "
            "comparisons recover each word's carry-out bit exactly (Hyyro's "
            "blocked formulation).  The wrapping step is isolated in this "
            "helper and re-verified against arbitrary-precision Python ints "
            "by the carry-ripple property test."
        ),
    ),
    SanctionedSite(
        site="repro.align.bitvector._run_kernel",
        rule="hidden-copy",
        reason=(
            "Two casts run once per batch, before the column loop: the "
            "lanes' starting scores to int64 and their high-bit shifts to "
            "uint64 (NumPy shifts need matching kinds).  Inside the loop, "
            "one gather per column reads every live lane's high hp/hn bits "
            "through one flat index: O(lanes) per column, replacing a "
            "Python-level per-lane loop."
        ),
    ),
    SanctionedSite(
        site="repro.align.bitvector.semiglobal_min_windows",
        rule="hidden-copy",
        reason=(
            "Per-dispatch setup of the cascade's Myers stage, outside the "
            "kernel's column loop: one gather lays the reads' codes out "
            "one row per read for the equality planes, and one gather "
            "reads every lane's window from the cached reference codes, "
            "which replaces a window string and an encode per candidate."
        ),
    ),
    SanctionedSite(
        site="repro.genome.sequence.encode_bases",
        rule="hidden-copy",
        reason=(
            "The vectorized ASCII->2-bit translation of a whole batch of "
            "reads or the reference: one 256-entry LUT gather per call, "
            "replacing a per-character Python loop."
        ),
    ),
)


#: GX6xx worker-purity sanctions: the reviewed module-global machinery the
#: fork-based shard workers intentionally rely on.
WORKER_ALLOWLIST: Tuple[SanctionedSite, ...] = (
    SanctionedSite(
        site="repro.parallel.engine._init_worker",
        rule="worker-global-state",
        reason=(
            "The designed copy-on-write fork handoff: the parent stores the "
            "prebuilt tables in _FORK_SHARED immediately before creating "
            "the pool (ParallelAligner._dispatch), and each worker's "
            "initializer reads them and installs _WORKER_FACTORY / "
            "_WORKER_TELEMETRY exactly once, before any chunk runs (the "
            "initializer-before-first-task ordering ProcessPoolExecutor "
            "guarantees).  On spawn platforms _FORK_SHARED is None and the "
            "worker rebuilds from the cache — the degradation is explicit, "
            "not silent — and the serial/parallel concordance tests pin "
            "bit-identical output either way."
        ),
    ),
    SanctionedSite(
        site="repro.pipeline.registry.get_backend",
        rule="worker-global-state",
        reason=(
            "The backend registry global is populated at *import time* "
            "(register_backend runs when repro.pipeline.registry is "
            "imported), so every process — fork or spawn — rebuilds the "
            "identical mapping by importing the module; there is no "
            "parent-runtime mutation to lose across the boundary."
        ),
    ),
    SanctionedSite(
        site="repro.telemetry.runtime.activate",
        rule="worker-global-state",
        reason=(
            "logging-style activation global: each worker activates its own "
            "telemetry bundle inside telemetry_session, mutating only its "
            "private post-fork copy of _ACTIVE; snapshots travel back "
            "explicitly in ShardResult, never through the global."
        ),
    ),
    SanctionedSite(
        site="repro.telemetry.runtime.deactivate",
        rule="worker-global-state",
        reason=(
            "Pair of activate: resets the per-process _ACTIVE slot when the "
            "worker's telemetry_session exits."
        ),
    ),
    SanctionedSite(
        site="repro.telemetry.clock.monotonic_s",
        rule="worker-impure-call",
        reason=(
            "The one sanctioned perf_counter site (the GX104 clock-"
            "confinement contract): spans measure monotonic durations, not "
            "wall-clock identity, and per-chunk snapshots merge in "
            "deterministic chunk order, so timing taint never reaches "
            "alignment output."
        ),
    ),
)


def dtype_sanctioned_sites(rule_name: str) -> FrozenSet[str]:
    """Function qualnames sanctioned for the given GX5xx rule."""
    return frozenset(
        entry.site for entry in DTYPE_ALLOWLIST if entry.rule == rule_name
    )


def worker_sanctioned_sites(rule_name: str) -> FrozenSet[str]:
    """Function qualnames sanctioned for the given GX6xx rule."""
    return frozenset(
        entry.site for entry in WORKER_ALLOWLIST if entry.rule == rule_name
    )


def sanctioned_site_reasons() -> Dict[str, str]:
    """``rule:site`` -> reason, for ``--list-rules`` and the docs."""
    return {
        f"{entry.rule}:{entry.site}": entry.reason
        for entry in DTYPE_ALLOWLIST + WORKER_ALLOWLIST
    }
