"""genaxlint policy: lint roots and the documented counter allowlist.

An allowlist entry sanctions one *named counter field* and must carry a
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
