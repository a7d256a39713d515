"""Alignment substrate: scoring, CIGARs, DP baselines and automata baselines.

Everything the paper compares Silla/SillaX against lives here, plus the DP
oracles the test suite uses as ground truth.
"""

from repro.align.scoring import BWA_MEM_SCHEME, EDIT_DISTANCE_SCHEME, ScoringScheme
from repro.align.cigar import Cigar, trace_from_pairs
from repro.align.records import (
    Alignment,
    AlignmentStats,
    MappedRead,
    NamedRead,
    ReadInput,
    as_named_read,
)
from repro.align.edit_distance import (
    bounded_levenshtein,
    edit_distance_matrix,
    levenshtein,
)
from repro.align.smith_waterman import (
    DPResult,
    extension_align,
    extension_score_matrix,
    global_score,
    local_align,
)
from repro.align.banded import banded_extension_align, banded_extension_score
from repro.align.extension_oracle import (
    ExtensionOracleResult,
    clipped_best_score,
    extension_oracle,
)
from repro.align.myers import myers_search
from repro.align.levenshtein_automaton import (
    LevenshteinAutomaton,
    LAWorkloadCost,
    la_stream_cost,
)
from repro.align.ula import UniversalLevenshteinAutomaton, characteristic_vector
from repro.align.hirschberg import (
    HirschbergResult,
    LinearScoring,
    hirschberg_align,
    nw_global_align,
)
from repro.align.xdrop import XDropResult, xdrop_extension_score
from repro.align.systolic_sw import SystolicBandedSW, SystolicResult
from repro.align.striped_sw import StripedResult, striped_local_score

__all__ = [
    "BWA_MEM_SCHEME",
    "EDIT_DISTANCE_SCHEME",
    "ScoringScheme",
    "Cigar",
    "trace_from_pairs",
    "Alignment",
    "AlignmentStats",
    "MappedRead",
    "NamedRead",
    "ReadInput",
    "as_named_read",
    "bounded_levenshtein",
    "edit_distance_matrix",
    "levenshtein",
    "DPResult",
    "extension_align",
    "extension_score_matrix",
    "global_score",
    "local_align",
    "banded_extension_align",
    "banded_extension_score",
    "ExtensionOracleResult",
    "clipped_best_score",
    "extension_oracle",
    "myers_search",
    "LevenshteinAutomaton",
    "LAWorkloadCost",
    "la_stream_cost",
    "UniversalLevenshteinAutomaton",
    "characteristic_vector",
    "HirschbergResult",
    "LinearScoring",
    "hirschberg_align",
    "nw_global_align",
    "XDropResult",
    "xdrop_extension_score",
    "SystolicBandedSW",
    "SystolicResult",
    "StripedResult",
    "striped_local_score",
]
