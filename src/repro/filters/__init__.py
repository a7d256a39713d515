"""Pre-alignment filters and the cascade that runs them.

* :mod:`repro.filters.base` — the :class:`CandidateFilter` stage
  protocol (one ``admit_batch`` call per dispatch) and per-stage
  counters;
* :mod:`repro.filters.cascade` — :class:`FilterCascade`, the ordered
  composition the pipeline driver dispatches;
* :mod:`repro.filters.myers` — the one registered stage, an exact Myers
  bit-vector within-budget test, wired up by name through
  :mod:`repro.filters.registry`.

``python -m repro.filters`` prints the registry's README table.
"""

from repro.filters.base import CandidateFilter, FilterStageStats
from repro.filters.cascade import FilterCascade
from repro.filters.myers import MyersCandidateFilter
from repro.filters.registry import (
    FilterSpec,
    build_cascade,
    filter_names,
    get_filter,
    parse_cascade_spec,
    register_filter,
    render_filter_table,
)

__all__ = [
    "CandidateFilter",
    "FilterCascade",
    "FilterSpec",
    "FilterStageStats",
    "MyersCandidateFilter",
    "build_cascade",
    "filter_names",
    "get_filter",
    "parse_cascade_spec",
    "register_filter",
    "render_filter_table",
]
