"""Filter registry: name -> cascade-stage factory.

The cascade a backend runs is declared as an ordered tuple of registered
filter names (the CLI's ``--filters myers`` spec is exactly such a
tuple), and every consumer — backend configs, the CLI, the filter bench,
the difftest pairs — resolves stages by name here instead of importing
concrete filter classes.  Adding a filter is one :class:`FilterSpec`
registration, the same move :mod:`repro.pipeline.registry` makes for
backends; the stage it builds must answer through ``admit_batch``
(:class:`~repro.filters.base.CandidateFilter`).

One stage is registered: ``myers``, the exact bit-vector scan.  It is
lossless whenever its edit budget is
(:func:`repro.align.prefilter.lossless_threshold`).  The bitvector
backend always installs it, as its only verifier; genax and bwamem run
it only when asked (``--filters``), and the perf matrix and the repo
benchmark ask, so the candidate counts and its rejects are part of the
measured surface.

Run ``python -m repro.filters`` to print the README filter table;
``tests/analysis/test_docs_sync.py`` asserts the README copy matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.filters.base import CandidateFilter
from repro.filters.cascade import FilterCascade
from repro.filters.myers import MyersCandidateFilter
from repro.genome.reference import ReferenceGenome

#: A stage factory: ``(reference, max_edits, window_slack) -> stage``.
FilterBuilder = Callable[[ReferenceGenome, int, int], CandidateFilter]


@dataclass(frozen=True)
class FilterSpec:
    """One registered cascade stage: name, one-line summary, factory."""

    name: str
    summary: str  # one line; rendered into the README filter table
    build: FilterBuilder


_REGISTRY: Dict[str, FilterSpec] = {}


def register_filter(spec: FilterSpec) -> FilterSpec:
    """Register *spec*; duplicate names are a programming error."""
    if spec.name in _REGISTRY:
        raise ValueError(f"filter {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def filter_names() -> Tuple[str, ...]:
    """Registered filter names, in registration order."""
    return tuple(_REGISTRY)


def get_filter(name: str) -> FilterSpec:
    """Look a filter up by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise ValueError(f"unknown filter {name!r} (known: {known})") from None


def parse_cascade_spec(spec: str) -> Tuple[str, ...]:
    """Parse a CLI cascade spec (comma-separated registered names).

    ``"none"`` (or the empty string) names the empty cascade.  Order is
    preserved — it is the execution order.  Unknown and repeated names
    are rejected: a repeated stage would double-charge its telemetry
    counters without changing any verdict.
    """
    text = spec.strip()
    if not text or text == "none":
        return ()
    names = tuple(part.strip() for part in text.split(","))
    seen = set()
    for name in names:
        get_filter(name)  # raises on unknown (and on empty parts)
        if name in seen:
            raise ValueError(f"filter {name!r} repeated in cascade spec")
        seen.add(name)
    return names


def build_cascade(
    names: Sequence[str],
    reference: ReferenceGenome,
    max_edits: int,
    window_slack: int,
) -> Optional[FilterCascade]:
    """Build the cascade *names* describe (``None`` for the empty spec).

    All stages share one edit budget and window slack: each answers the
    same within-budget question, so a per-stage budget could only make
    one of them lossy.
    """
    if not names:
        return None
    return FilterCascade(
        [
            get_filter(name).build(reference, max_edits, window_slack)
            for name in names
        ]
    )


def render_filter_table() -> str:
    """The markdown filter table the README embeds (kept in sync by test)."""
    lines = ["| filter | what it vetoes |", "|---|---|"]
    for spec in _REGISTRY.values():
        lines.append(f"| `{spec.name}` | {spec.summary} |")
    return "\n".join(lines)


# ---------------------------------------------------------------- filters


MYERS_FILTER = register_filter(
    FilterSpec(
        name="myers",
        summary=(
            "Myers bit-vector semi-global scan: the exact "
            "within-budget membership test"
        ),
        build=MyersCandidateFilter,
    )
)
