"""The oracle registry: every fast kernel paired with its ground truth.

Each :class:`OraclePair` names a *fast* implementation (the thing we
optimize and refactor) and an *oracle* (the slow, obviously-correct
reference it must agree with), plus the :class:`Contract` that defines
what "agree" means:

* ``exact-score`` — the two outputs must be equal JSON values (scores,
  ``None`` for over-budget, or small result dicts);
* ``score-cigar`` — scores must be equal and *both* sides' CIGARs must be
  internally valid (consistent ops that re-score to the reported score);
  the CIGARs themselves may differ, because co-optimal tracebacks are
  legitimately non-unique;
* ``hit-set`` — the outputs are sorted hit lists that must be identical;
* ``no-false-reject`` — one-sided: whenever the oracle's true distance is
  within the fast side's budget, every filter verdict must admit.  The
  converse direction is deliberately unconstrained — a pre-alignment
  filter is allowed to be conservative (admit over-budget candidates),
  never lossy (veto within-budget ones).

Every hook is a module-level function (never a lambda or closure), so a
future fuzz driver can shard pairs across processes via
:mod:`repro.parallel` without tripping the pickle-safety gate.

The backend concordance pair (``genax-vs-bwamem``) embodies the paper's
§VIII-A validation: both pipelines are configured with the *same* budget
``K = max_edits_for_score(max_read, min_score)`` so any alignment either
backend may legally report is reachable by both — score equality is then
a theorem, while positions are allowed to differ on equal-score ties.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.align.banded import banded_extension_align, banded_extension_score
from repro.align.edit_distance import levenshtein
from repro.align.hirschberg import (
    HirschbergResult,
    LinearScoring,
    hirschberg_align,
    nw_global_align,
)
from repro.align.bitvector import batch_myers_bounded, batch_semiglobal_min
from repro.align.myers import myers_bounded, myers_distance, myers_search
from repro.align.records import Alignment, AlignmentStats
from repro.align.scoring import BWA_MEM_SCHEME, ScoringScheme
from repro.align.smith_waterman import DPResult, extension_align, local_align
from repro.align.striped_sw import striped_local_score
from repro.align.systolic_sw import SystolicBandedSW
from repro.align.ula import UniversalLevenshteinAutomaton
from repro.align.xdrop import xdrop_extension_score
from repro.core.silla import Silla
from repro.difftest.grammar import DiffCase, GenSpec
from repro.filters import DEFAULT_CASCADE, get_filter
from repro.genome.reference import ReferenceGenome
from repro.pipeline.common import Candidate
from repro.pipeline.pairs import rescue_search
from repro.pipeline.registry import build_aligner, get_backend
from repro.pipeline.stages import AdaptivePolicy
from repro.seeding.index import KmerIndex
from repro.seeding.smem import SmemConfig, SmemFinder
from repro.seeding.smem_oracle import brute_force_exact_match, brute_force_smems
from repro.sillax.dense import DenseTracebackMachine
from repro.sillax.traceback_machine import TracebackMachine, TracebackResult

#: JSON-serializable pair output (int, str, None, list, dict).
Output = Any

#: X large enough that the X-drop rule never prunes: equivalent to full DP.
GENEROUS_X = 10**6

#: Backend-concordance operating point.  ``MAPPING_MAX_READ`` caps the
#: grammar's query length; the shared budget K below guarantees any
#: alignment scoring >= MAPPING_MIN_SCORE stays within both backends'
#: reach (edit bound for SillaX, band for the banded DP).
MAPPING_MIN_SCORE = 35
MAPPING_MAX_READ = 48
MAPPING_BUDGET = BWA_MEM_SCHEME.max_edits_for_score(
    MAPPING_MAX_READ, MAPPING_MIN_SCORE
)


class Contract(enum.Enum):
    """How a pair's two outputs are compared."""

    EXACT_SCORE = "exact-score"
    SCORE_CIGAR = "score-cigar"
    HIT_SET = "hit-set"
    NO_FALSE_REJECT = "no-false-reject"


@dataclass(frozen=True)
class Disagreement:
    """One observed fast/oracle mismatch on a concrete case."""

    pair: str
    contract: Contract
    case: DiffCase
    fast_output: Output
    oracle_output: Output
    detail: str


@dataclass(frozen=True)
class OraclePair:
    """A fast kernel, its ground truth, and their comparison contract."""

    name: str
    contract: Contract
    description: str
    fast: Callable[[DiffCase], Output]
    oracle: Callable[[DiffCase], Output]
    spec: GenSpec = GenSpec()


def _score_cigar_mismatch(fast: Output, oracle: Output) -> Optional[str]:
    if not isinstance(fast, dict) or not isinstance(oracle, dict):
        return "score-cigar outputs must be dicts"
    if not fast.get("valid", False):
        return f"fast CIGAR invalid: {fast.get('error', 'unknown')}"
    if not oracle.get("valid", False):
        return f"oracle CIGAR invalid: {oracle.get('error', 'unknown')}"
    if fast["score"] != oracle["score"]:
        return f"score mismatch: fast={fast['score']} oracle={oracle['score']}"
    return None


def _no_false_reject_mismatch(fast: Output, oracle: Output) -> Optional[str]:
    if not isinstance(fast, dict) or not isinstance(oracle, dict):
        return "no-false-reject outputs must be dicts"
    if oracle["distance"] > fast["k"]:
        return None  # over budget: a conservative filter may go either way
    vetoed = sorted(
        name for name, admitted in fast["verdicts"].items() if not admitted
    )
    if vetoed:
        return (
            f"false reject: true distance {oracle['distance']} is within "
            f"budget k={fast['k']} but stage(s) {', '.join(vetoed)} vetoed"
        )
    return None


def compare_outputs(
    contract: Contract, fast: Output, oracle: Output
) -> Optional[str]:
    """``None`` when the outputs satisfy *contract*, else a mismatch detail."""
    if contract is Contract.SCORE_CIGAR:
        return _score_cigar_mismatch(fast, oracle)
    if contract is Contract.NO_FALSE_REJECT:
        return _no_false_reject_mismatch(fast, oracle)
    if fast != oracle:
        return f"output mismatch: fast={fast!r} oracle={oracle!r}"
    return None


def evaluate_pair(pair: OraclePair, case: DiffCase) -> Optional[Disagreement]:
    """Run both sides of *pair* on *case*; ``None`` means they agree."""
    fast_output = pair.fast(case)
    oracle_output = pair.oracle(case)
    detail = compare_outputs(pair.contract, fast_output, oracle_output)
    if detail is None:
        return None
    return Disagreement(
        pair=pair.name,
        contract=pair.contract,
        case=case,
        fast_output=fast_output,
        oracle_output=oracle_output,
        detail=detail,
    )


# ------------------------------------------------------------ exact-score


def _fast_myers(case: DiffCase) -> Output:
    return myers_distance(case.query, case.reference)


def _oracle_levenshtein(case: DiffCase) -> Output:
    return levenshtein(case.reference, case.query)


def _oracle_bounded_levenshtein(case: DiffCase) -> Output:
    distance = levenshtein(case.reference, case.query)
    return distance if distance <= case.param("k") else None


def _fast_silla(case: DiffCase) -> Output:
    return Silla(case.param("k")).distance(case.reference, case.query)


def _fast_ula(case: DiffCase) -> Output:
    return UniversalLevenshteinAutomaton(case.param("k")).run(
        case.reference, case.query
    )


def _fast_xdrop(case: DiffCase) -> Output:
    return xdrop_extension_score(case.reference, case.query, GENEROUS_X).score


def _oracle_extension_score(case: DiffCase) -> Output:
    return extension_align(case.reference, case.query).alignment.score


def _fast_striped(case: DiffCase) -> Output:
    return striped_local_score(case.reference, case.query).score


def _oracle_local_score(case: DiffCase) -> Output:
    return local_align(case.reference, case.query).alignment.score


def _fast_systolic(case: DiffCase) -> Output:
    return SystolicBandedSW(case.param("band")).best_score(
        case.reference, case.query
    )


def _oracle_banded_score(case: DiffCase) -> Output:
    score, _cells = banded_extension_score(
        case.reference, case.query, case.param("band")
    )
    return score


def _fast_banded_score(case: DiffCase) -> Output:
    score, _cells = banded_extension_score(
        case.reference, case.query, case.param("band")
    )
    return score


def _oracle_banded_align_score(case: DiffCase) -> Output:
    return banded_extension_align(
        case.reference, case.query, case.param("band")
    ).alignment.score


# ------------------------------------------------------------ score-cigar


def _dp_output(result: DPResult, case: DiffCase) -> Output:
    """Score + CIGAR + internal validity of an extension/banded alignment."""
    alignment = result.alignment
    output: Dict[str, Output] = {
        "score": alignment.score,
        "cigar": str(alignment.cigar) if alignment.cigar is not None else "",
    }
    try:
        output["valid"] = _extension_cigar_valid(alignment, case)
    except ValueError as error:
        output["valid"] = False
        output["error"] = str(error)
    return output


def _extension_cigar_valid(alignment: Alignment, case: DiffCase) -> bool:
    cigar = alignment.cigar
    if cigar is None:
        raise ValueError("alignment carries no CIGAR")
    region = case.reference[alignment.reference_start : alignment.reference_end]
    query_region = case.query[alignment.query_start : alignment.query_end]
    rescored = cigar.score(region, query_region, BWA_MEM_SCHEME)
    if rescored != alignment.score:
        raise ValueError(
            f"CIGAR re-scores to {rescored}, alignment reports {alignment.score}"
        )
    return True


def _fast_fullband(case: DiffCase) -> Output:
    band = max(len(case.reference), len(case.query))
    return _dp_output(
        banded_extension_align(case.reference, case.query, band), case
    )


def _oracle_extension_align(case: DiffCase) -> Output:
    return _dp_output(extension_align(case.reference, case.query), case)


def _linear_rescore(result: HirschbergResult, case: DiffCase) -> int:
    """Independently re-score a global-alignment CIGAR under LinearScoring."""
    scoring = LinearScoring()
    score = 0
    i = j = 0
    for length, op in result.cigar.ops:
        if op == "S":
            raise ValueError("global alignment must not soft-clip")
        for _ in range(length):
            if op in "=X":
                if i >= len(case.reference) or j >= len(case.query):
                    raise ValueError("CIGAR overruns sequences")
                if op == "=" and case.reference[i] != case.query[j]:
                    raise ValueError(f"'=' over mismatching bases at ref {i}")
                if op == "X" and case.reference[i] == case.query[j]:
                    raise ValueError(f"'X' over matching bases at ref {i}")
                score += scoring.compare(case.reference[i], case.query[j])
                i += 1
                j += 1
            elif op == "D":
                score += scoring.gap
                i += 1
            elif op == "I":
                score += scoring.gap
                j += 1
            else:
                raise ValueError(f"unexpected op {op!r} in global alignment")
    if i != len(case.reference) or j != len(case.query):
        raise ValueError(
            f"CIGAR consumes ({i}, {j}) of ({len(case.reference)}, {len(case.query)})"
        )
    return score


def _global_output(result: HirschbergResult, case: DiffCase) -> Output:
    output: Dict[str, Output] = {
        "score": result.score,
        "cigar": str(result.cigar),
    }
    try:
        rescored = _linear_rescore(result, case)
        if rescored != result.score:
            raise ValueError(
                f"CIGAR re-scores to {rescored}, result reports {result.score}"
            )
        output["valid"] = True
    except ValueError as error:
        output["valid"] = False
        output["error"] = str(error)
    return output


def _fast_hirschberg(case: DiffCase) -> Output:
    return _global_output(hirschberg_align(case.reference, case.query), case)


def _oracle_nw(case: DiffCase) -> Output:
    return _global_output(nw_global_align(case.reference, case.query), case)


# --------------------------------------------------------------- hit-set


def _fast_myers_search(case: DiffCase) -> Output:
    return sorted(
        myers_search(case.query, case.reference, case.param("k"))
    )


def _oracle_semiglobal_hits(case: DiffCase) -> Output:
    """Full-DP semi-global search: end positions in the reference where the
    query matches a substring ending there within k edits."""
    pattern, text, k = case.query, case.reference, case.param("k")
    m = len(pattern)
    column = list(range(m + 1))
    hits: List[int] = []
    if column[m] <= k:
        hits.append(0)
    for position, char in enumerate(text, start=1):
        previous = column
        column = [0] * (m + 1)
        for i in range(1, m + 1):
            cost = 0 if pattern[i - 1] == char else 1
            column[i] = min(
                previous[i - 1] + cost,
                previous[i] + 1,
                column[i - 1] + 1,
            )
        if column[m] <= k:
            hits.append(position)
    return hits


def _seed_list(seeds: Output) -> Output:
    return sorted(
        [seed.read_offset, seed.length, sorted(seed.hits)] for seed in seeds
    )


def _fast_smems(case: DiffCase) -> Output:
    k = case.param("smem_k")
    if len(case.reference) < k or len(case.query) < k:
        return []
    index = KmerIndex.build(case.reference, k)
    finder = SmemFinder(index, SmemConfig(k=k))
    return _seed_list(finder.find_seeds(case.query))


def _oracle_smems(case: DiffCase) -> Output:
    k = case.param("smem_k")
    if len(case.reference) < k or len(case.query) < k:
        return []
    return _seed_list(brute_force_smems(case.reference, case.query, k))


def _fast_exact_match(case: DiffCase) -> Output:
    k = case.param("smem_k")
    if len(case.reference) < k or len(case.query) < k:
        return []
    index = KmerIndex.build(case.reference, k)
    finder = SmemFinder(index, SmemConfig(k=k))
    hits = finder.exact_match_hits(case.query)
    return sorted(hits) if hits is not None else []


def _oracle_exact_match(case: DiffCase) -> Output:
    k = case.param("smem_k")
    if len(case.reference) < k or len(case.query) < k:
        return []
    return sorted(brute_force_exact_match(case.reference, case.query))


# ------------------------------------------------- batched bit-parallel


def _bitvector_lanes(case: DiffCase) -> List[Tuple[str, str]]:
    """Derive a small ragged batch from one case, deterministically.

    The batched kernels' failure modes are batch-shape-dependent (lane
    masking, per-lane high bits, word-boundary carries), so every case is
    scored as a multi-lane batch of slices rather than a batch of one —
    including empty-pattern and empty-text lanes.
    """
    query, reference = case.query, case.reference
    return [
        (query, reference),
        (query[: len(query) // 2], reference),
        (query, reference[: len(reference) // 2]),
        (query[len(query) // 3 :], reference[len(reference) // 4 :]),
        ("", reference),
        (query, ""),
    ]


def _fast_bitvector_batch(case: DiffCase) -> Output:
    lanes = _bitvector_lanes(case)
    return batch_myers_bounded(
        [pattern for pattern, _ in lanes],
        [text for _, text in lanes],
        case.param("k"),
    )


def _oracle_myers_per_lane(case: DiffCase) -> Output:
    k = case.param("k")
    return [
        myers_bounded(pattern, text, k)
        for pattern, text in _bitvector_lanes(case)
    ]


def _semiglobal_min_dp(pattern: str, text: str) -> int:
    """Full-DP minimum semi-global edit distance (text-side gaps free)."""
    m = len(pattern)
    column = list(range(m + 1))
    best = column[m]
    for char in text:
        previous = column
        column = [0] * (m + 1)
        for i in range(1, m + 1):
            cost = 0 if pattern[i - 1] == char else 1
            column[i] = min(
                previous[i - 1] + cost,
                previous[i] + 1,
                column[i - 1] + 1,
            )
        best = min(best, column[m])
    return best


def _fast_bitvector_verify(case: DiffCase) -> Output:
    """The bitvector backend's verify path: batched gate, banded score."""
    k = case.param("k")
    distance = int(
        batch_semiglobal_min([case.query], [case.reference])[0]
    )
    output: Dict[str, Output] = {
        "admitted": distance <= k,
        "distance": distance,
    }
    if distance <= k:
        score, _cells = banded_extension_score(case.reference, case.query, k)
        output["score"] = score
    return output


def _oracle_banded_verify(case: DiffCase) -> Output:
    """Per-cell reference: full-DP gate, traceback-DP score."""
    k = case.param("k")
    distance = _semiglobal_min_dp(case.query, case.reference)
    output: Dict[str, Output] = {
        "admitted": distance <= k,
        "distance": distance,
    }
    if distance <= k:
        output["score"] = banded_extension_align(
            case.reference, case.query, k
        ).alignment.score
    return output


# ------------------------------------------------- dense SillaX traceback

#: Edit bounds the dense-traceback pair runs at, indexed by the case's
#: ``k`` param (0..8): the degenerate K = 0, the small bounds where
#: broken trails are frequent, and the mapper's K = 40.
SILLAX_BOUNDS = (0, 1, 2, 3, 4, 6, 8, 12, 40)


def _sillax_bound(case: DiffCase) -> int:
    return SILLAX_BOUNDS[case.param("k") % len(SILLAX_BOUNDS)]


def _sillax_lanes(case: DiffCase) -> List[Tuple[str, str]]:
    """Derive a ragged (window, read) batch from one case, deterministically.

    The shapes the genax engine hands the dense model: the whole window,
    the mapper's read+K window, a window clamped at the reference end
    (shorter than read+K), a clipped read, an empty read and an empty
    window — all in one batch, so lane masking is exercised too.
    """
    reference, query = case.reference, case.query
    k = _sillax_bound(case)
    return [
        (reference, query),
        (reference[: len(query) + k], query),
        (reference[len(reference) // 2 :], query),
        (reference, query[: len(query) // 2]),
        (reference, ""),
        ("", query),
    ]


def _traceback_fields(result: TracebackResult) -> Output:
    """Every field of a traceback result, as a JSON value."""
    alignment = result.alignment
    return {
        "score": result.score,
        "cigar": str(result.cigar) if result.cigar is not None else None,
        "span": (
            [
                alignment.reference_start,
                alignment.reference_end,
                alignment.query_start,
                alignment.query_end,
            ]
            if alignment is not None
            else None
        ),
        "cycles": [
            result.stream_cycles,
            result.control_cycles,
            result.collect_cycles,
        ],
        "rerun_count": result.rerun_count,
        "rerun_cycles": result.rerun_cycles,
    }


def _fast_sillax_dense(case: DiffCase) -> Output:
    lanes = _sillax_lanes(case)
    machine = DenseTracebackMachine(_sillax_bound(case))
    results = machine.align_batch(
        [window for window, _ in lanes], [read for _, read in lanes]
    )
    return [_traceback_fields(result) for result in results]


def _oracle_sillax_object(case: DiffCase) -> Output:
    machine = TracebackMachine(_sillax_bound(case))
    return [
        _traceback_fields(machine.align(window, read))
        for window, read in _sillax_lanes(case)
    ]


# ------------------------------------------------- filter cascade


def _fast_cascade_verdicts(case: DiffCase) -> Output:
    """Every registered default-cascade stage's verdict on one window.

    The whole reference is presented as the candidate window (slack padded
    so the fetch covers it end to end), so each stage answers the same
    question the oracle answers with full DP: could the query place
    semi-globally in this text within ``k`` edits?
    """
    k = case.param("k")
    reference = ReferenceGenome(case.reference, name="difftest")
    slack = max(0, len(case.reference) - len(case.query))
    candidate = Candidate(
        window_start=0, reverse=False, seed_length=len(case.query)
    )
    verdicts: Dict[str, bool] = {}
    for name in DEFAULT_CASCADE:
        stage = get_filter(name).build(reference, k, slack)
        verdicts[name] = bool(
            stage.admit(case.query, candidate, AlignmentStats())
        )
    return {"k": k, "verdicts": verdicts}


def _oracle_semiglobal_distance(case: DiffCase) -> Output:
    return {"distance": _semiglobal_min_dp(case.query, case.reference)}


def _map_genax(case: DiffCase, filters: Optional[Tuple[str, ...]]) -> Output:
    """Map the case query with genax; the full mapping record is pinned."""
    config = get_backend("genax").default_config()
    config.min_score = MAPPING_MIN_SCORE
    config.edit_bound = MAPPING_BUDGET
    config.segment_count = 2
    config.filters = filters
    reference = ReferenceGenome(case.reference, name="difftest")
    aligner = build_aligner("genax", reference, config)
    mapped = aligner.align_read("difftest", case.query)
    return {
        "mapped": not mapped.is_unmapped,
        "position": mapped.position,
        "reverse": bool(mapped.reverse),
        "score": mapped.score if not mapped.is_unmapped else 0,
        "cigar": str(mapped.cigar) if mapped.cigar is not None else "",
    }


def _fast_genax_cascade_mapping(case: DiffCase) -> Output:
    return _map_genax(case, DEFAULT_CASCADE)


def _oracle_genax_nofilter_mapping(case: DiffCase) -> Output:
    return _map_genax(case, None)


# ------------------------------------------------- backend concordance


def _map_with_backend(backend: str, case: DiffCase) -> Output:
    """Map the case query with a registered backend at the shared budget.

    The output keeps only what the concordance contract pins: mapped-ness
    and score.  Positions are excluded because equal-score ties may
    legitimately resolve differently (§VIII-A's 0.0023% caveat).
    """
    spec = get_backend(backend)
    config = spec.default_config()
    config.min_score = MAPPING_MIN_SCORE
    if backend == "genax":
        config.edit_bound = MAPPING_BUDGET
        config.segment_count = 2
    else:
        config.band = MAPPING_BUDGET
    reference = ReferenceGenome(case.reference, name="difftest")
    aligner = build_aligner(backend, reference, config)
    mapped = aligner.align_read("difftest", case.query)
    return {
        "mapped": not mapped.is_unmapped,
        "score": mapped.score if not mapped.is_unmapped else 0,
    }


def _fast_genax_mapping(case: DiffCase) -> Output:
    return _map_with_backend("genax", case)


def _oracle_bwamem_mapping(case: DiffCase) -> Output:
    return _map_with_backend("bwamem", case)


# ------------------------------------------------- scenario families
#
# The three workload-scenario pairs (ISSUE: long-read, paired-end, SV).
# Each pins a scenario fast path against a full-DP oracle on the
# generative family built for that scenario, so the families exercise
# the exact error shapes the fast paths were tuned for.

#: The long-read verify path derives all parameters from read length;
#: both sides of the pair use the *same* policy instance so any
#: disagreement is in the kernels, never in the parameter derivation.
_LONGREAD_POLICY = AdaptivePolicy()


def _longread_verify(case: DiffCase, exact: bool) -> Output:
    """Shared shape of the adaptive long-read verify path.

    Mirrors :class:`repro.pipeline.longread.AdaptiveBandedEngine`: a
    semi-global edit-distance gate at the policy's ``gate_edits``, then a
    banded affine-gap score at the policy's per-read band.  ``exact``
    selects the oracle kernels (full-DP gate, traceback-DP score) over
    the fast ones (batched bit-parallel gate, score-only banded DP).
    """
    params = _LONGREAD_POLICY.params_for(len(case.query))
    if exact:
        distance = _semiglobal_min_dp(case.query, case.reference)
    else:
        distance = int(
            batch_semiglobal_min([case.query], [case.reference])[0]
        )
    output: Dict[str, Output] = {
        "admitted": distance <= params.gate_edits,
        "distance": distance,
        "band": params.band,
        "min_score": params.min_score,
    }
    if distance <= params.gate_edits:
        if exact:
            score = banded_extension_align(
                case.reference, case.query, params.band
            ).alignment.score
        else:
            score, _cells = banded_extension_score(
                case.reference, case.query, params.band
            )
        output["score"] = score
        output["reported"] = score >= params.min_score
    return output


def _fast_longread_verify(case: DiffCase) -> Output:
    return _longread_verify(case, exact=False)


def _oracle_longread_verify(case: DiffCase) -> Output:
    return _longread_verify(case, exact=True)


def _rescue_point(pattern_length: int) -> Tuple[int, int]:
    """Per-case ``(min_score, k)`` operating point for the rescue pair.

    ``k`` is fixed to ``pattern_length - min_score`` because that is the
    bound under which the two-phase rescue search is provably exhaustive:
    every BWA-MEM-scheme edit (substitution, gap base, clipped base)
    costs at least one score unit, so an alignment scoring at least
    ``min_score`` has at most ``k`` unit edits — its end position is a
    Myers hit and its start is inside the enumerated interval.
    """
    slack = max(8, pattern_length // 4)
    min_score = max(1, pattern_length - slack)
    return min_score, pattern_length - min_score


def _semiglobal_extension_max(
    text: str, pattern: str, scheme: ScoringScheme = BWA_MEM_SCHEME
) -> int:
    """Full-DP ground truth for mate rescue, floored at zero.

    Best affine-gap score of *pattern* placed anywhere in *text*: the
    text prefix before the placement is free, the pattern is anchored at
    its first base (leading pattern gap is paid, as in the anchored
    banded DP), and both ends may clip (max over all cells).
    """
    m = len(pattern)
    if m == 0:
        return 0
    neg = -(10**12)
    gap = scheme.gap_open + scheme.gap_extend
    h_prev = [0] + [
        scheme.gap_open + scheme.gap_extend * j for j in range(1, m + 1)
    ]
    f_prev = [neg] * (m + 1)
    best = max(0, max(h_prev))
    for char in text:
        h_cur = [0] + [neg] * m
        e_cur = [neg] * (m + 1)
        f_cur = [neg] * (m + 1)
        for j in range(1, m + 1):
            e_cur[j] = max(h_cur[j - 1] + gap, e_cur[j - 1] + scheme.gap_extend)
            f_cur[j] = max(h_prev[j] + gap, f_prev[j] + scheme.gap_extend)
            h_cur[j] = max(
                h_prev[j - 1] + scheme.compare(char, pattern[j - 1]),
                e_cur[j],
                f_cur[j],
            )
            if h_cur[j] > best:
                best = h_cur[j]
        h_prev, f_prev = h_cur, f_cur
    return best


def _fast_pair_rescue(case: DiffCase) -> Output:
    """The mate-rescue fast path at the provably-exhaustive budget."""
    min_score, k = _rescue_point(len(case.query))
    found = rescue_search(
        case.reference,
        case.query,
        k,
        cap=len(case.reference) + 1,
    )
    score = found[1].score if found is not None else 0
    rescued = found is not None and score >= min_score
    return {"rescued": rescued, "score": score if rescued else 0}


def _oracle_pair_rescue(case: DiffCase) -> Output:
    min_score, _k = _rescue_point(len(case.query))
    score = _semiglobal_extension_max(case.reference, case.query)
    rescued = score >= min_score
    return {"rescued": rescued, "score": score if rescued else 0}


def _sv_segments(case: DiffCase) -> Tuple[str, str]:
    """Split a chimeric query at the grammar-provided breakpoint."""
    breakpoint = case.param("breakpoint")
    return case.query[:breakpoint], case.query[breakpoint:]


def _fast_sv_split(case: DiffCase) -> Output:
    """Per-segment batched semi-global distances of a chimeric read.

    Split mapping places each side of the breakpoint independently; the
    pinned quantity is the per-segment minimum semi-global distance the
    batched bit-parallel kernel reports for the two segments as one
    ragged batch (the shape the batch extension stage dispatches).
    """
    left, right = _sv_segments(case)
    distances = batch_semiglobal_min(
        [left, right], [case.reference, case.reference]
    )
    return [int(distances[0]), int(distances[1])]


def _oracle_sv_split(case: DiffCase) -> Output:
    left, right = _sv_segments(case)
    return [
        _semiglobal_min_dp(left, case.reference),
        _semiglobal_min_dp(right, case.reference),
    ]


# -------------------------------------------------------------- registry

_KERNEL_SPEC = GenSpec(ref_len=(0, 48), query_len=(0, 40))
#: Long enough to cross the 64- and 128-bit word boundaries, so the
#: blocked kernel's cross-word carries and per-lane high bits are hit.
_BITVECTOR_SPEC = GenSpec(ref_len=(0, 192), query_len=(0, 160))
_BOUNDED_SPEC = GenSpec(ref_len=(0, 32), query_len=(0, 28))
_SEEDING_SPEC = GenSpec(ref_len=(16, 96), query_len=(4, 48))
_MAPPING_SPEC = GenSpec(
    ref_len=(128, 256),
    query_len=(24, MAPPING_MAX_READ),
    related_query=True,
)
#: Filter stages see windows a little larger than the query; keep both
#: sides small enough that the full-DP oracle stays fast at 500+ cases.
_FILTER_SPEC = GenSpec(ref_len=(0, 96), query_len=(0, 64))
#: Scenario specs pin their own family rotation (``families=``) instead
#: of the classic six, so every generated case exercises the scenario's
#: error shape.  Query sizes are scaled-down long reads: big enough to
#: cross the bit-parallel word boundary and to make the adaptive policy
#: derive non-trivial bands, small enough that the full-DP oracles stay
#: fast at 300 cases.
_LONGREAD_SPEC = GenSpec(
    ref_len=(64, 256), query_len=(32, 192), families=("long_read_indel",)
)
_PAIREDEND_SPEC = GenSpec(
    ref_len=(64, 224), query_len=(16, 56), families=("paired_end",)
)
_SV_SPEC = GenSpec(
    ref_len=(48, 192), query_len=(16, 96), families=("sv_chimeric",)
)
#: The object traceback machine costs ~(K+1)^2 PE updates per cycle in
#: Python; these sizes keep six lanes per case at K = 40 affordable.
_SILLAX_SPEC = GenSpec(ref_len=(0, 64), query_len=(0, 48))

_PAIRS: Dict[str, OraclePair] = {}


def _register(pair: OraclePair) -> OraclePair:
    if pair.name in _PAIRS:
        raise ValueError(f"oracle pair {pair.name!r} is already registered")
    _PAIRS[pair.name] = pair
    return pair


def all_pairs() -> Tuple[OraclePair, ...]:
    """Registered pairs, in registration order."""
    return tuple(_PAIRS.values())


def pair_names() -> Tuple[str, ...]:
    return tuple(_PAIRS)


def get_pair(name: str) -> OraclePair:
    try:
        return _PAIRS[name]
    except KeyError:
        known = ", ".join(sorted(_PAIRS)) or "<none>"
        raise ValueError(f"unknown oracle pair {name!r} (known: {known})") from None


_register(
    OraclePair(
        name="myers-vs-dp",
        contract=Contract.EXACT_SCORE,
        description="Myers bit-vector global distance vs full-DP Levenshtein",
        fast=_fast_myers,
        oracle=_oracle_levenshtein,
        spec=_KERNEL_SPEC,
    )
)
_register(
    OraclePair(
        name="silla-vs-dp",
        contract=Contract.EXACT_SCORE,
        description="Silla K-bounded automaton vs full-DP distance clipped at K",
        fast=_fast_silla,
        oracle=_oracle_bounded_levenshtein,
        spec=_BOUNDED_SPEC,
    )
)
_register(
    OraclePair(
        name="ula-vs-dp",
        contract=Contract.EXACT_SCORE,
        description="Universal Levenshtein automaton vs full-DP distance clipped at K",
        fast=_fast_ula,
        oracle=_oracle_bounded_levenshtein,
        spec=_BOUNDED_SPEC,
    )
)
_register(
    OraclePair(
        name="xdrop-vs-extension",
        contract=Contract.EXACT_SCORE,
        description="X-drop extension with generous X vs exact extension DP score",
        fast=_fast_xdrop,
        oracle=_oracle_extension_score,
        spec=_KERNEL_SPEC,
    )
)
_register(
    OraclePair(
        name="striped-vs-local",
        contract=Contract.EXACT_SCORE,
        description="Farrar striped SIMD local score vs scalar Gotoh local DP",
        fast=_fast_striped,
        oracle=_oracle_local_score,
        spec=_KERNEL_SPEC,
    )
)
_register(
    OraclePair(
        name="systolic-vs-banded",
        contract=Contract.EXACT_SCORE,
        description="Systolic wavefront banded SW vs software banded DP (same band)",
        fast=_fast_systolic,
        oracle=_oracle_banded_score,
        spec=_KERNEL_SPEC,
    )
)
_register(
    OraclePair(
        name="banded-score-vs-traceback",
        contract=Contract.EXACT_SCORE,
        description="Score-only banded DP vs banded DP with traceback (same band)",
        fast=_fast_banded_score,
        oracle=_oracle_banded_align_score,
        spec=_KERNEL_SPEC,
    )
)
_register(
    OraclePair(
        name="fullband-vs-extension",
        contract=Contract.SCORE_CIGAR,
        description="Banded DP at full width vs unbanded extension DP (score + valid CIGAR)",
        fast=_fast_fullband,
        oracle=_oracle_extension_align,
        spec=_KERNEL_SPEC,
    )
)
_register(
    OraclePair(
        name="hirschberg-vs-nw",
        contract=Contract.SCORE_CIGAR,
        description="Linear-space Hirschberg vs quadratic NW (score + valid CIGAR)",
        fast=_fast_hirschberg,
        oracle=_oracle_nw,
        spec=_KERNEL_SPEC,
    )
)
_register(
    OraclePair(
        name="myers-search-vs-dp",
        contract=Contract.HIT_SET,
        description="Myers semi-global search end positions vs full-DP search",
        fast=_fast_myers_search,
        oracle=_oracle_semiglobal_hits,
        spec=_BOUNDED_SPEC,
    )
)
_register(
    OraclePair(
        name="smem-vs-brute",
        contract=Contract.HIT_SET,
        description="Indexed SMEM finder (binary extension) vs brute-force scanner",
        fast=_fast_smems,
        oracle=_oracle_smems,
        spec=_SEEDING_SPEC,
    )
)
_register(
    OraclePair(
        name="exact-match-vs-brute",
        contract=Contract.HIT_SET,
        description="Spanning-k-mer exact-match fast path vs brute-force scanner",
        fast=_fast_exact_match,
        oracle=_oracle_exact_match,
        spec=_SEEDING_SPEC,
    )
)
_register(
    OraclePair(
        name="bitvector-vs-myers",
        contract=Contract.EXACT_SCORE,
        description=(
            "Batched NumPy Myers bounded distance (ragged multi-lane "
            "batch per case) vs scalar Myers per lane"
        ),
        fast=_fast_bitvector_batch,
        oracle=_oracle_myers_per_lane,
        spec=_BITVECTOR_SPEC,
    )
)
_register(
    OraclePair(
        name="bitvector-batch-vs-banded",
        contract=Contract.EXACT_SCORE,
        description=(
            "Bitvector verify path (batched semi-global gate + banded "
            "score) vs full-DP gate + traceback-DP score"
        ),
        fast=_fast_bitvector_verify,
        oracle=_oracle_banded_verify,
        spec=_BITVECTOR_SPEC,
    )
)
_register(
    OraclePair(
        name="sillax-dense-vs-traceback",
        contract=Contract.EXACT_SCORE,
        description=(
            "Batched dense SillaX traceback (ragged six-lane batch, K in "
            "0..40) vs the object-per-PE machine: every TracebackResult "
            "field, re-run count and cycles included"
        ),
        fast=_fast_sillax_dense,
        oracle=_oracle_sillax_object,
        spec=_SILLAX_SPEC,
    )
)
_register(
    OraclePair(
        name="filters-vs-distance",
        contract=Contract.NO_FALSE_REJECT,
        description=(
            "Every default-cascade filter stage's verdict vs full-DP "
            "semi-global distance: no stage may veto a within-budget window"
        ),
        fast=_fast_cascade_verdicts,
        oracle=_oracle_semiglobal_distance,
        spec=_FILTER_SPEC,
    )
)
_register(
    OraclePair(
        name="cascade-vs-nofilter",
        contract=Contract.EXACT_SCORE,
        description=(
            "genax with the full shouldered+sneakysnake+myers cascade vs "
            "genax with no filters: bit-identical mapping records"
        ),
        fast=_fast_genax_cascade_mapping,
        oracle=_oracle_genax_nofilter_mapping,
        spec=_MAPPING_SPEC,
    )
)
_register(
    OraclePair(
        name="genax-vs-bwamem",
        contract=Contract.EXACT_SCORE,
        description=(
            "Whole-backend mapping concordance at a shared edit budget "
            "(mapped-ness + score; positions free on ties)"
        ),
        fast=_fast_genax_mapping,
        oracle=_oracle_bwamem_mapping,
        spec=_MAPPING_SPEC,
    )
)
_register(
    OraclePair(
        name="longread-adaptive-vs-dp",
        contract=Contract.EXACT_SCORE,
        description=(
            "Long-read adaptive verify path (per-read-length gate + band "
            "from AdaptivePolicy) vs full-DP gate + traceback-DP score"
        ),
        fast=_fast_longread_verify,
        oracle=_oracle_longread_verify,
        spec=_LONGREAD_SPEC,
    )
)
_register(
    OraclePair(
        name="pairedend-rescue-vs-dp",
        contract=Contract.EXACT_SCORE,
        description=(
            "Mate-rescue two-phase search (Myers ends + enumerated starts "
            "+ banded DP) vs exhaustive free-start extension DP"
        ),
        fast=_fast_pair_rescue,
        oracle=_oracle_pair_rescue,
        spec=_PAIREDEND_SPEC,
    )
)
_register(
    OraclePair(
        name="sv-chimeric-vs-dp",
        contract=Contract.EXACT_SCORE,
        description=(
            "Per-segment batched semi-global distances of a chimeric read "
            "split at its breakpoint vs scalar full-DP per segment"
        ),
        fast=_fast_sv_split,
        oracle=_oracle_sv_split,
        spec=_SV_SPEC,
    )
)
