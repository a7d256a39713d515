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

import dataclasses
import enum
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.align.banded import (
    banded_extension_align,
    banded_extension_score,
    batch_banded_extension_align,
)
from repro.align.edit_distance import levenshtein
from repro.align.hirschberg import (
    HirschbergResult,
    LinearScoring,
    hirschberg_align,
    nw_global_align,
)
from repro.align.bitvector import BITS_PER_WORD, semiglobal_min_windows
from repro.align.myers import (
    myers_distance,
    myers_search,
    myers_semiglobal_min,
)
from repro.align.records import Alignment, AlignmentStats
from repro.align.scoring import (
    BWA_MEM_SCHEME,
    EDIT_DISTANCE_SCHEME,
    ScoringScheme,
)
from repro.align.smith_waterman import DPResult, extension_align, local_align
from repro.align.striped_sw import striped_local_score
from repro.align.systolic_sw import SystolicBandedSW
from repro.align.ula import UniversalLevenshteinAutomaton
from repro.align.xdrop import xdrop_extension_score
from repro.core.silla import Silla
from repro.difftest.grammar import DiffCase, GenSpec
from repro.filters import (
    FilterCascade,
    MyersCandidateFilter,
    filter_names,
    get_filter,
)
from repro.genome.reference import ReferenceGenome, SegmentView
from repro.genome.sequence import encode_bases, reverse_complement
from repro.pipeline.common import (
    Candidate,
    CandidateTable,
    Extension,
    candidates_from_seeds,
    fetch_window,
    strands,
)
from repro.pipeline.genax import SegmentedSeedProvider
from repro.pipeline.pairs import rescue_search
from repro.pipeline.registry import build_aligner, get_backend
from repro.pipeline.stages import AdaptivePolicy, ExtensionJob, PipelineDriver, StageSet
from repro.seeding.accelerator import SeedingAccelerator
from repro.seeding.index import IndexTables, KmerIndex, build_segment_tables
from repro.seeding.smem import ReadBatch, SeedingMode, SmemConfig, SmemFinder
from repro.seeding.smem_oracle import (
    CamWalkFinder,
    brute_force_exact_match,
    brute_force_smems,
    seed_reads_per_segment,
)
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


def _smem_batch_setup(
    case: DiffCase,
) -> Tuple[ReferenceGenome, List[str], List[SegmentView]]:
    """The batch and segmentation the batched-seeding pair runs on.

    The batch is the query, its reverse complement and a copy with one
    base set to ``N``; the reference is cut into two or three segments
    overlapping by ``smem_k`` bases, so the segment-major pass sees
    genuinely different tables.
    """
    query = case.query
    middle = len(query) // 2
    with_n = query[:middle] + "N" + query[middle + 1 :] if query else "N"
    reads = [query, reverse_complement(query), with_n]
    reference = ReferenceGenome(case.reference)
    views = reference.segments(
        2 + len(case.reference) % 2, overlap=case.param("smem_k")
    )
    return reference, reads, views


def _merged_seed_lists(per_segment: List[List[Tuple[int, int, int]]]) -> Output:
    """Union per-read (offset, length, global position) triples into seeds."""
    out = []
    for triples in per_segment:
        grouped: Dict[Tuple[int, int], List[int]] = {}
        for offset, length, position in sorted(set(triples)):
            grouped.setdefault((offset, length), []).append(position)
        out.append(
            [[offset, length, sorted(positions)]
             for (offset, length), positions in sorted(grouped.items())]
        )
    return out


def _fast_smem_batch(case: DiffCase) -> Output:
    k = case.param("smem_k")
    reference, reads, views = _smem_batch_setup(case)
    accelerator = SeedingAccelerator(
        reference,
        SmemConfig(k=k),
        segment_count=len(views),
        tables=build_segment_tables(views, k),
    )
    return [
        [[seed.read_offset, seed.length, list(seed.positions)] for seed in seeds]
        for seeds in accelerator.seed_reads(reads)
    ]


def _oracle_smem_batch(case: DiffCase) -> Output:
    k = case.param("smem_k")
    __, reads, views = _smem_batch_setup(case)
    triples: List[List[Tuple[int, int, int]]] = [[] for __ in reads]
    for view in views:
        for read_id, read in enumerate(reads):
            for seed in brute_force_smems(view.sequence, read, k):
                triples[read_id].extend(
                    (seed.read_offset, seed.length, view.start + hit)
                    for hit in seed.hits
                )
    return _merged_seed_lists(triples)


#: CAM sizes the ``rmem-batch-vs-cam`` pair runs every case at: 1, 2 and
#: 4 overflow on its repeat-rich segments, 512 is the paper's.
_RMEM_CAM_SIZES = (1, 2, 4, 512)


def _rmem_setup(case: DiffCase) -> Tuple[str, List[str], List[SmemConfig]]:
    """Segment, read batch and configs of one ``rmem-batch-vs-cam`` case.

    The segment is the reference, three copies of its first half and the
    reference again, so hit lists hold several entries and overflow the
    small CAMs.  The batch is the query, its reverse complement, copies
    with an ``N`` and with a lower-case half, the segment's tail followed
    by the query (a match running off the segment end) and a segment
    substring (the exact-match fast path).  Each CAM size runs once, with
    the binary fallback, probing, ``SMEM_FIXED`` and the fast path set
    from the bits of a checksum of the case.
    """
    k = case.param("smem_k")
    reference, query = case.reference, case.query
    half = len(reference) // 2
    segment = reference + reference[:half] * 3 + reference
    middle = len(query) // 2
    reads = [
        query,
        reverse_complement(query),
        query[:middle] + "N" + query[middle + 1 :],
        query[:middle] + query[middle:].lower(),
        segment[-(k + len(query) % 7 + 1) :] + query,
        segment[half : half + len(query) + k],
    ]
    salt = zlib.crc32(f"{reference}|{query}|{k}".encode())
    configs = []
    for slot, cam_size in enumerate(_RMEM_CAM_SIZES):
        bits = salt >> (4 * slot)
        configs.append(
            SmemConfig(
                k=k,
                cam_size=cam_size,
                use_binary_fallback=bool(bits & 1),
                probe=bool(bits & 2),
                mode=SeedingMode.SMEM_FIXED if bits & 4 else SeedingMode.SMEM,
                exact_match_fast_path=bool(bits & 8),
            )
        )
    return segment, reads, configs


def _rmem_run(case: DiffCase, finder_type: Type[SmemFinder]) -> Output:
    """Seeds, two single-pivot RMEMs and every counter, per config."""
    segment, reads, configs = _rmem_setup(case)
    index = KmerIndex.build(segment, case.param("smem_k"))
    out = []
    for config in configs:
        finder = finder_type(index, config)
        seeds = finder.seed_batch(ReadBatch(reads, config.k))
        rmems = [finder.rmem(reads[0], pivot) for pivot in (0, len(reads[0]) // 2)]
        out.append(
            {
                "seeds": [
                    [[seed.read_offset, seed.length, list(seed.hits)] for seed in row]
                    for row in seeds
                ],
                "rmems": [
                    None if seed is None else [seed.length, list(seed.hits)]
                    for seed in rmems
                ],
                "finder": dataclasses.asdict(finder.stats),
                "intersections": dataclasses.asdict(finder.engine.stats),
            }
        )
    return out


def _fast_rmem_batch(case: DiffCase) -> Output:
    return _rmem_run(case, SmemFinder)


def _oracle_rmem_cam_walk(case: DiffCase) -> Output:
    return _rmem_run(case, CamWalkFinder)


#: Segment counts the ``segments-one-pass-vs-per-segment`` pair stacks.
_STACK_SEGMENT_COUNTS = (1, 3, 8)


def _stack_setup(
    case: DiffCase,
) -> Tuple[ReferenceGenome, List[str], List[SmemConfig]]:
    """Reference, read batch and configs of one segmented-seeding case.

    The reference is the case's reference, its first half and the
    reference again, so k-mers repeat across segments.  The batch is the
    query, its reverse complement, a copy with an ``N``, a read one base
    shorter than k, reference substrings across the first cut of the
    three- and of the eight-segment split, and one that matches exactly
    (the fast path).  Both fast-path settings run; the CAM size, binary
    fallback, probing and ``SMEM_FIXED`` come from the bits of a checksum
    of the case.
    """
    k = case.param("smem_k")
    sequence = case.reference + case.reference[: len(case.reference) // 2]
    sequence += case.reference
    query = case.query
    middle = len(query) // 2
    reads = [
        query,
        reverse_complement(query),
        query[:middle] + "N" + query[middle + 1 :],
        query[: k - 1],
    ]
    for cut in (len(sequence) // 3, len(sequence) // 8):
        reads.append(sequence[max(0, cut - k) : cut + 2 * k])
    reads.append(sequence[len(sequence) // 2 : len(sequence) // 2 + len(query)])
    salt = zlib.crc32(f"{sequence}|{query}|{k}".encode())
    configs = [
        SmemConfig(
            k=k,
            cam_size=_RMEM_CAM_SIZES[salt % len(_RMEM_CAM_SIZES)],
            use_binary_fallback=bool(salt & 4),
            probe=bool(salt & 8),
            mode=SeedingMode.SMEM_FIXED if salt & 16 else SeedingMode.SMEM,
            exact_match_fast_path=fast_path,
        )
        for fast_path in (False, True)
    ]
    return ReferenceGenome(sequence), reads, configs


def _stack_run(case: DiffCase, one_pass: bool) -> Output:
    """Seeds and every ``SeedingStats`` counter, per segment count and config.

    Segments overlap by k bases, so a read crossing a cut seeds in both
    neighbours and the merge removes the duplicated hits.
    """
    reference, reads, configs = _stack_setup(case)
    k = case.param("smem_k")
    out = []
    for count in _STACK_SEGMENT_COUNTS:
        for config in configs:
            tables = build_segment_tables(reference.segments(count, overlap=k), k)
            if one_pass:
                accelerator = SeedingAccelerator(
                    reference, config, segment_count=count, tables=tables
                )
                seeds = list(accelerator.seed_reads(reads))
                stats = accelerator.stats
            else:
                seeds, stats = seed_reads_per_segment(tables, config, reads)
            out.append(
                {
                    "seeds": [
                        [
                            [
                                seed.read_offset,
                                seed.length,
                                list(seed.positions),
                                seed.exact_whole_read,
                            ]
                            for seed in row
                        ]
                        for row in seeds
                    ],
                    "stats": dataclasses.asdict(stats),
                }
            )
    return out


def _fast_segments_one_pass(case: DiffCase) -> Output:
    return _stack_run(case, one_pass=True)


def _oracle_segments_per_segment(case: DiffCase) -> Output:
    return _stack_run(case, one_pass=False)


#: Candidate caps the ``candidate-table-vs-per-read`` pair runs: none
#: kept, one per strand, and no cap.
_CANDIDATE_CAPS = (0, 1, None)


def _candidate_setup(
    case: DiffCase,
) -> Tuple[ReferenceGenome, List[IndexTables], SmemConfig, List[str]]:
    """Reference, segment tables, seeding config and reads of one
    ``candidate-table-vs-per-read`` case.

    The reference is the case's reference, its first half and the
    reference again, so placements repeat and tie on seed length; three
    segments overlap by ``2 * smem_k`` bases, so a hit in an overlap is
    found from both neighbours.  The reads are the query, a copy with an
    ``N``, a read shorter than k, an empty read, an exact substring (an
    exact-match strand), the genome's tail with one base changed (windows
    clamped at the genome end) and the genome's head behind a prefix
    (negative window starts).
    """
    k = case.param("smem_k")
    half = len(case.reference) // 2
    sequence = case.reference + case.reference[:half] + case.reference
    reference = ReferenceGenome(sequence, name="difftest")
    tables = build_segment_tables(reference.segments(3, overlap=2 * k), k)
    query = case.query
    middle = len(query) // 2
    size = max(k + 2, len(query))
    tail = list(sequence[-size:])
    if tail:
        spot = len(tail) // 2
        tail[spot] = "ACGT"[("ACGT".index(tail[spot]) + 1) % 4]
    reads = [
        query,
        query[:middle] + "N" + query[middle + 1 :],
        query[: k - 1],
        "",
        sequence[half : half + size],
        "".join(tail),
        query[::-1][: k // 2 + 1] + sequence[:size],
    ]
    return reference, tables, SmemConfig(k=k, exact_match_fast_path=True), reads


class _RecordingStage:
    """A cascade stage that records every candidate table and verdict."""

    name = "myers"

    def __init__(self, stage: Any) -> None:
        self.stage = stage
        self.seen: List[List[Any]] = []

    def admit_batch(self, candidates: CandidateTable, stats: AlignmentStats) -> Any:
        verdicts = self.stage.admit_batch(candidates, stats)
        self.seen.extend(
            [row // 2, reverse, start, length, admitted]
            for row, reverse, start, length, admitted in zip(
                candidates.row.tolist(),
                candidates.reverse.tolist(),
                candidates.start.tolist(),
                candidates.seed_length.tolist(),
                list(map(bool, verdicts)),
            )
        )
        return verdicts


class _RecordingExtender:
    """An extension engine that records its jobs and extends none."""

    def __init__(self) -> None:
        self.jobs: List[ExtensionJob] = []

    def extend_batch(
        self, jobs: Sequence[ExtensionJob], stats: AlignmentStats
    ) -> List[Optional[Extension]]:
        self.jobs.extend(jobs)
        return [None] * len(jobs)


def _candidate_budgets(case: DiffCase) -> Tuple[int, int]:
    """A tight and a loose edit bound, so verdicts go both ways."""
    return case.param("k"), case.param("k") + 6


def _fast_candidate_table(case: DiffCase) -> Output:
    """The driver's dispatch: candidates, cascade verdicts and jobs."""
    reference, tables, config, reads = _candidate_setup(case)
    out = []
    for cap in _CANDIDATE_CAPS:
        for budget in _candidate_budgets(case):
            accelerator = SeedingAccelerator(
                reference, config, segment_count=len(tables), tables=tables
            )
            stage = _RecordingStage(MyersCandidateFilter(reference, budget, budget))
            extender = _RecordingExtender()
            driver = PipelineDriver(
                StageSet(
                    seeder=SegmentedSeedProvider(accelerator),
                    extender=extender,
                    match_score=1,
                    min_score=1,
                    max_candidates=cap,
                    cascade=FilterCascade([stage]),
                )
            )
            driver.align_batch([(f"r{index}", read) for index, read in enumerate(reads)])
            out.append(
                {
                    "candidates": stage.seen,
                    "jobs": [
                        [oriented, job.window_start, job.reverse, job.seed_length]
                        for oriented, job in extender.jobs
                    ],
                    "stats": _candidate_stats(driver.stats),
                }
            )
    return out


def _candidate_stats(stats: AlignmentStats) -> Output:
    """The counters the gather and filter phases charge."""
    return {
        name: getattr(stats, name)
        for name in (
            "reads_total",
            "reads_exact",
            "candidates_filtered",
            "candidates_survived",
            "prefilter_cycles",
        )
    }


def _oracle_candidates_per_read(case: DiffCase) -> Output:
    """Per strand: CAM-walk seeds, ``candidates_from_seeds`` and one
    scalar ``myers_semiglobal_min`` verdict per fetched window."""
    reference, tables, config, reads = _candidate_setup(case)
    oriented = [variant for read in reads for variant, __ in strands(read)]
    seed_lists, __ = seed_reads_per_segment(tables, config, oriented)
    out = []
    for cap in _CANDIDATE_CAPS:
        for budget in _candidate_budgets(case):
            stats = AlignmentStats(reads_total=len(reads))
            jobs: List[Tuple[int, str, Candidate]] = []
            exact_reads = set()
            for row, (variant, seeds) in enumerate(zip(oriented, seed_lists)):
                if any(seed.exact_whole_read for seed in seeds):
                    exact_reads.add(row // 2)
                    continue
                for candidate in candidates_from_seeds(seeds, row % 2 == 1, cap):
                    jobs.append((row // 2, variant, candidate))
            stats.reads_exact = len(exact_reads)
            windows = [
                fetch_window(reference, candidate, len(variant), budget)
                for __, variant, candidate in jobs
            ]
            stats.prefilter_cycles = sum(map(len, windows))
            admitted = [
                myers_semiglobal_min(variant, window) <= budget
                for (__, variant, __c), window in zip(jobs, windows)
            ]
            stats.candidates_survived = sum(admitted)
            stats.candidates_filtered = len(jobs) - stats.candidates_survived
            out.append(
                {
                    "candidates": [
                        [read, c.reverse, c.window_start, c.seed_length, verdict]
                        for (read, __, c), verdict in zip(jobs, admitted)
                    ],
                    "jobs": [
                        [variant, c.window_start, c.reverse, c.seed_length]
                        for (__, variant, c), verdict in zip(jobs, admitted)
                        if verdict
                    ],
                    "stats": _candidate_stats(stats),
                }
            )
    return out


# ------------------------------------------------- batched bit-parallel


def _semiglobal_lanes(case: DiffCase) -> List[Tuple[str, str]]:
    """Derive a ragged many-lane semi-global batch from one case.

    The batched kernel's failure modes are batch-shape-dependent (the
    sorted live prefix, per-lane high bits, word-boundary carries), so
    every case is scored as a multi-lane batch of slices rather than a
    batch of one: empty-pattern and empty-text lanes, cuts of the text
    that leave the live prefix at many different columns, and patterns
    wider than 64 and 128 bits, so the word-carry chain and high bits
    past word 0 are hit on every case whatever its drawn lengths.
    """
    query, reference = case.query, case.reference
    pool = query + reference
    wide = pool * (-(-3 * BITS_PER_WORD // len(pool))) if pool else ""
    return [
        (query, reference),
        (query[: len(query) // 2], reference),
        (query, reference[: len(reference) // 2]),
        (query[len(query) // 3 :], reference[len(reference) // 4 :]),
        ("", reference),
        (query, ""),
        (query, reference[: 3 * len(reference) // 4]),
        (query[len(query) // 2 :], reference[len(reference) // 3 :]),
        (wide[: BITS_PER_WORD + 1 + len(query) % BITS_PER_WORD], reference),
        (wide[: 2 * BITS_PER_WORD + 1], wide[3 : 3 * BITS_PER_WORD]),
        (wide[5 : 5 + BITS_PER_WORD + len(reference) % BITS_PER_WORD], pool),
    ]


def _windows_semiglobal_min(lanes: Sequence[Tuple[str, str]]) -> List[int]:
    """:func:`semiglobal_min_windows` over ragged ``(pattern, text)`` lanes.

    The texts are laid end to end in one 2-bit code array, lane ``i``'s
    window starting where the texts before it end, so each lane reads
    exactly its own text as a span of that array.
    """
    lengths = np.fromiter(
        (len(text) for _, text in lanes), dtype=np.int64, count=len(lanes)
    )
    distances = semiglobal_min_windows(
        [pattern for pattern, _ in lanes],
        np.arange(len(lanes), dtype=np.int64),
        encode_bases("".join(text for _, text in lanes)),
        np.cumsum(lengths) - lengths,
        lengths,
    )
    return [int(distance) for distance in distances]


def _fast_bitvector_semiglobal(case: DiffCase) -> Output:
    return _windows_semiglobal_min(_semiglobal_lanes(case))


def _oracle_semiglobal_per_lane(case: DiffCase) -> Output:
    return [
        myers_semiglobal_min(pattern, text)
        for pattern, text in _semiglobal_lanes(case)
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
    """The bitvector backend's path: the ``myers`` stage's windowed
    verdict, then the lane-batched banded traceback of what it admits."""
    k = case.param("k")
    distance = _windows_semiglobal_min([(case.query, case.reference)])[0]
    output: Dict[str, Output] = {
        "admitted": distance <= k,
        "distance": distance,
    }
    if distance <= k:
        (aligned,) = batch_banded_extension_align(
            [case.reference], [case.query], [k]
        )
        output["score"] = aligned.alignment.score
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


# ------------------------------------------------- batched banded DP

#: Per-lane bands the batched banded pair draws from: the degenerate 0,
#: small bands where the band edge cuts most alignments, and the
#: bitvector backend's 40.
BANDED_BATCH_BANDS = (0, 1, 2, 3, 5, 8, 13, 21, 40)

#: Smallest band of the batched banded pair's long-read lane.
LONG_READ_BAND = 64


def _banded_batch_lanes(
    case: DiffCase,
) -> Tuple[List[Tuple[str, str, int]], ScoringScheme]:
    """Derive a ragged (window, read, band) batch and a scheme from one case.

    The shapes the long-read and bitvector engines hand the kernel: the
    whole window, a window clamped shorter than the read, half the read,
    an empty read, an empty window and a read with ``N`` bases — each
    lane with its own band, all in one call — plus a long-read lane: the
    read against four copies of the reference at a band of 64 to 127,
    so the frame is wide and the other lanes end many rows before it.
    The scheme alternates between BWA-MEM's and the unit-cost one
    (``gap_open = 0``).
    """
    reference, query = case.reference, case.query
    shapes = [
        (reference, query),
        (reference[: len(query) // 2], query),
        (reference, query[: len(query) // 2]),
        (reference, ""),
        ("", query),
        (reference, query[::2].replace("A", "N")),
    ]
    start = case.param("k") + case.param("band")
    bands = [
        BANDED_BATCH_BANDS[(start + 4 * lane) % len(BANDED_BATCH_BANDS)]
        for lane in range(len(shapes))
    ]
    lanes = [
        (window, read, band) for (window, read), band in zip(shapes, bands)
    ]
    lanes.append((reference * 4, query, LONG_READ_BAND + start % 64))
    scheme = EDIT_DISTANCE_SCHEME if case.param("band") % 2 else BWA_MEM_SCHEME
    return lanes, scheme


def _dp_fields(result: DPResult) -> Output:
    """Every field of a banded DP result, as a JSON value."""
    alignment = result.alignment
    return {
        "score": alignment.score,
        "span": [
            alignment.reference_start,
            alignment.reference_end,
            alignment.query_start,
            alignment.query_end,
        ],
        "cigar": str(alignment.cigar) if alignment.cigar is not None else None,
        "cells": result.cells_computed,
    }


def _fast_banded_batch(case: DiffCase) -> Output:
    lanes, scheme = _banded_batch_lanes(case)
    results = batch_banded_extension_align(
        [window for window, _, _ in lanes],
        [read for _, read, _ in lanes],
        [band for _, _, band in lanes],
        scheme,
    )
    return [_dp_fields(result) for result in results]


def _oracle_banded_per_lane(case: DiffCase) -> Output:
    lanes, scheme = _banded_batch_lanes(case)
    return [
        _dp_fields(banded_extension_align(window, read, band, scheme))
        for window, read, band in lanes
    ]


# ------------------------------------------------- filter cascade


def _fast_cascade_verdicts(case: DiffCase) -> Output:
    """Every registered filter stage's ``admit_batch`` verdict on one window.

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
    for name in filter_names():
        stage = get_filter(name).build(reference, k, slack)
        jobs = CandidateTable.from_jobs([(case.query, candidate)])
        verdicts[name] = bool(stage.admit_batch(jobs, AlignmentStats())[0])
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
    return _map_genax(case, ("myers",))


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
    selects the oracle kernels (full-DP gate, scalar traceback-DP score)
    over the ones the engine's ``extend_batch`` runs (bit-parallel Myers
    gate, lane-batched banded DP).
    """
    params = _LONGREAD_POLICY.params_for(len(case.query))
    if exact:
        distance = _semiglobal_min_dp(case.query, case.reference)
    else:
        distance = myers_semiglobal_min(case.query, case.reference)
    output: Dict[str, Output] = {
        "admitted": distance <= params.gate_edits,
        "distance": distance,
        "band": params.band,
        "min_score": params.min_score,
    }
    if distance <= params.gate_edits:
        if exact:
            result = banded_extension_align(
                case.reference, case.query, params.band
            )
        else:
            result = batch_banded_extension_align(
                [case.reference], [case.query], [params.band]
            )[0]
        score = result.alignment.score
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
    windowed bit-parallel kernel reports for the two segments as one
    ragged batch (the shape the ``myers`` stage dispatches).
    """
    left, right = _sv_segments(case)
    return _windows_semiglobal_min(
        [(left, case.reference), (right, case.reference)]
    )


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
#: Long enough that band 40 is narrower than the grid, small enough that
#: six scalar lanes per case stay fast at 500 cases.
_BANDED_BATCH_SPEC = GenSpec(ref_len=(0, 96), query_len=(0, 80))

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
        name="smem-batch-vs-brute",
        contract=Contract.HIT_SET,
        description=(
            "Segment-major batched seeding (query, reverse complement and "
            "an N-bearing copy over 2-3 segments) vs brute-force SMEMs per "
            "segment, merged"
        ),
        fast=_fast_smem_batch,
        oracle=_oracle_smem_batch,
        spec=_SEEDING_SPEC,
    )
)
_register(
    OraclePair(
        name="rmem-batch-vs-cam",
        contract=Contract.EXACT_SCORE,
        description=(
            "Batched RMEM search replayed from match lengths vs the "
            "per-pivot CAM walk, on a repeat-rich segment with dirty and "
            "overhanging reads: seeds and every FinderStats and "
            "IntersectionStats field, CAM sizes 1/2/4/512"
        ),
        fast=_fast_rmem_batch,
        oracle=_oracle_rmem_cam_walk,
        spec=_SEEDING_SPEC,
    )
)
_register(
    OraclePair(
        name="candidate-table-vs-per-read",
        contract=Contract.EXACT_SCORE,
        description=(
            "The driver's per-dispatch candidate table and Myers cascade "
            "verdicts vs candidates_from_seeds per strand and the scalar "
            "myers_semiglobal_min per fetched window, at caps 0/1/None "
            "and two edit bounds: every candidate, verdict, extension "
            "job and gather/filter counter"
        ),
        fast=_fast_candidate_table,
        oracle=_oracle_candidates_per_read,
        spec=_SEEDING_SPEC,
    )
)
_register(
    OraclePair(
        name="segments-one-pass-vs-per-segment",
        contract=Contract.EXACT_SCORE,
        description=(
            "Segmented seeding in one RMEM pass over every segment vs a "
            "CAM walk per segment and the per-read merge, at 1/3/8 "
            "segments with the fast path off and on: every seed, hit "
            "list and SeedingStats field"
        ),
        fast=_fast_segments_one_pass,
        oracle=_oracle_segments_per_segment,
        spec=_SEEDING_SPEC,
    )
)
_register(
    OraclePair(
        name="bitvector-semiglobal-vs-myers",
        contract=Contract.EXACT_SCORE,
        description=(
            "Windowed NumPy Myers semi-global minimum (ragged many-lane "
            "batch per case over one code array, patterns past 64 and 128 "
            "bits) vs scalar semi-global Myers per lane"
        ),
        fast=_fast_bitvector_semiglobal,
        oracle=_oracle_semiglobal_per_lane,
        spec=_BITVECTOR_SPEC,
    )
)
_register(
    OraclePair(
        name="bitvector-batch-vs-banded",
        contract=Contract.EXACT_SCORE,
        description=(
            "Bitvector backend path (the myers stage's windowed Myers "
            "verdict + lane-batched banded traceback score) vs full-DP "
            "gate + scalar traceback-DP score"
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
        name="banded-batch-vs-scalar",
        contract=Contract.EXACT_SCORE,
        description=(
            "Lane-batched NumPy banded DP (ragged seven-lane batch, per-lane "
            "bands in 0..40 and one long-read lane at 64..127) vs the "
            "scalar banded DP per lane: every DPResult field, CIGAR and "
            "cell count included"
        ),
        fast=_fast_banded_batch,
        oracle=_oracle_banded_per_lane,
        spec=_BANDED_BATCH_SPEC,
    )
)
_register(
    OraclePair(
        name="filters-vs-distance",
        contract=Contract.NO_FALSE_REJECT,
        description=(
            "Every registered filter stage's verdict vs full-DP "
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
            "genax with the myers filter cascade vs "
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
