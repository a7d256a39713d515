"""Seeds to cascade verdicts, alone -> ``BENCH_candidates.json``.

Not a paper figure: this times one dispatch of the driver's mapping loop
from seeding through the ``myers`` filter cascade, with an extension
engine that extends nothing, on the ``repeat-rich`` workload (200
diverged copies of one 600 bp unit, 101 bp reads with 10 substitutions,
k = 10, edit bound 12, the ``repeat-bitvector`` operating point of the
bitvector backend).  Nearly every candidate there is a decoy the cascade
rejects, so the dispatch is candidate enumeration and the Myers filter.
Shapes are 16, 64 and 256 reads per dispatch (``repeat-bitvector``
maps 64 per call).

For every shape the payload reports the best and median wall time of one
dispatch, the candidates it filtered and, from the best, **us per
candidate**.  Every timed dispatch is also run once with a recording
cascade stage and extension engine, and its candidates, verdicts and
extension jobs must equal the per-strand oracle: each strand's seeds
through :func:`~repro.pipeline.common.candidates_from_seeds`, each
candidate's fetched window through the scalar
:func:`~repro.align.myers.myers_semiglobal_min`.  The exit status is
non-zero when any differs.

``--baseline FILE`` copies another run's per-shape numbers into this
run's payload, with the speed-up against each.  To compare two commits,
run this same script against the older commit's ``src`` first::

    PYTHONPATH=<old checkout>/src python benchmarks/bench_candidates.py \\
        --out /tmp/old.json
    PYTHONPATH=src python benchmarks/bench_candidates.py --baseline /tmp/old.json

Run directly (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_candidates.py [--quick]

``--quick`` keeps the shapes but times fewer repeats, for CI smoke runs;
the JSON schema is identical.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.align.myers import myers_semiglobal_min
from repro.align.records import AlignmentStats
from repro.filters import FilterCascade, build_cascade
from repro.genome.reference import ReferenceGenome
from repro.perf.schema import BENCH_SCHEMA_VERSION, bench_envelope, write_bench
from repro.perf.workloads import build_repeat_rich_workload
from repro.pipeline.bwamem import WholeGenomeSeedProvider
from repro.pipeline.common import candidates_from_seeds, fetch_window, strands
from repro.pipeline.stages import PipelineDriver, StageSet
from repro.seeding.accelerator import SeedingLane
from repro.seeding.index import IndexTables, KmerIndex
from repro.seeding.smem import SmemConfig
from repro.telemetry import monotonic_s

BENCHMARK = "bench_candidates"
DEFAULT_OUT = Path(__file__).parent / "results" / "bench" / "BENCH_candidates.json"
SEED = 2401
K = 10
EDIT_BOUND = 12
MAX_CANDIDATES = 64
REPEAT_COPIES = 200
BATCH_SIZES = (16, 64, 256)  # reads per dispatch

FULL = dict(repeats=15)
QUICK = dict(repeats=3)

ENVELOPE_KEYS = (
    "schema_version", "benchmark", "quick", "machine", "workload",
    "payload", "machine_fingerprint", "workload_fingerprint", "run_id",
)

# Required payload structure: key -> required sub-keys (None = scalar).
RESULT_SCHEMA: Dict[str, Optional[Sequence[str]]] = {
    "workload": ("seed", "k", "edit_bound", "max_candidates", "repeat_copies",
                 "repeats", "batch_sizes"),
    "shapes": ("name", "reads", "candidates", "admitted", "best_s",
               "median_s", "us_per_candidate"),
    "checks": ("reads", "candidates", "verdicts_equal", "jobs_equal",
               "stats_equal"),
    "acceptance": ("checked_dispatches", "mismatched_dispatches", "passed"),
}


def validate_result(data: dict) -> List[str]:
    """Return a list of schema violations (empty = valid)."""
    problems: List[str] = []
    for key in ENVELOPE_KEYS:
        if key not in data:
            problems.append(f"missing envelope key {key!r}")
    if data.get("schema_version") != BENCH_SCHEMA_VERSION:
        problems.append(
            f"schema_version {data.get('schema_version')!r} != "
            f"{BENCH_SCHEMA_VERSION}"
        )
    if data.get("benchmark") != BENCHMARK:
        problems.append(f"benchmark {data.get('benchmark')!r} != {BENCHMARK!r}")
    scope = dict(data.get("payload", {}))
    scope["workload"] = data.get("workload", {})
    for key, subkeys in RESULT_SCHEMA.items():
        if key not in scope:
            problems.append(f"missing key {key!r}")
            continue
        value = scope[key]
        entries = value if isinstance(value, list) else [value]
        if not entries:
            problems.append(f"{key!r} is empty")
        for entry in entries:
            if not isinstance(entry, dict):
                problems.append(f"{key!r} entry is not an object: {entry!r}")
                continue
            for subkey in subkeys or ():
                if subkey not in entry:
                    problems.append(f"{key!r} entry missing {subkey!r}")
    return problems


class _NoExtension:
    """An extension engine that records its jobs and extends none."""

    def __init__(self) -> None:
        self.jobs: List[Tuple[str, int, bool, int]] = []

    def extend_batch(self, jobs: Sequence[Any], stats: AlignmentStats) -> List[None]:
        self.jobs.extend(
            (oriented, c.window_start, c.reverse, c.seed_length) for oriented, c in jobs
        )
        return [None] * len(jobs)


class _Recording:
    """A cascade stage recording every candidate it answers, with its verdict."""

    def __init__(self, stage: Any) -> None:
        self.name = stage.name
        self.stage = stage
        self.seen: List[Tuple[str, int, bool, int, bool]] = []

    def admit_batch(self, jobs: Any, stats: AlignmentStats) -> Any:
        verdicts = self.stage.admit_batch(jobs, stats)
        self.seen.extend(
            (oriented, c.window_start, c.reverse, c.seed_length, bool(verdict))
            for (oriented, c), verdict in zip(jobs, verdicts)
        )
        return verdicts


def build_inputs() -> Tuple[ReferenceGenome, List[Tuple[str, str]], IndexTables]:
    """The repeat-rich reference, the largest batch's reads and its index."""
    reference, reads = build_repeat_rich_workload(
        repeat_copies=REPEAT_COPIES, reads=max(BATCH_SIZES), seed=SEED
    )
    tables = IndexTables(0, 0, KmerIndex.build(reference.sequence, K))
    return reference, reads, tables


def _config() -> SmemConfig:
    return SmemConfig(k=K, exact_match_fast_path=True)


def _driver(
    reference: ReferenceGenome, tables: IndexTables, cascade: FilterCascade
) -> Tuple[PipelineDriver, _NoExtension]:
    extender = _NoExtension()
    driver = PipelineDriver(
        StageSet(
            seeder=WholeGenomeSeedProvider(SeedingLane(tables, _config())),
            extender=extender,
            match_score=1,
            min_score=1,
            max_candidates=MAX_CANDIDATES,
            cascade=cascade,
        )
    )
    return driver, extender


def measure_shape(
    reference: ReferenceGenome,
    tables: IndexTables,
    reads: List[Tuple[str, str]],
    repeats: int,
) -> dict:
    cascade = build_cascade(("myers",), reference, EDIT_BOUND, EDIT_BOUND)
    driver, __ = _driver(reference, tables, cascade)
    driver.align_batch(reads)  # warm-up: builds the lazy tables
    stats = driver.stats
    candidates = stats.candidates_filtered + stats.candidates_survived
    admitted = stats.candidates_survived
    times: List[float] = []
    for _ in range(repeats):
        started = monotonic_s()
        driver.align_batch(reads)
        times.append(monotonic_s() - started)
    best = min(times)
    entry = {
        "name": f"reads-{len(reads)}",
        "reads": len(reads),
        "candidates": candidates,
        "admitted": admitted,
        "best_s": best,
        "median_s": statistics.median(times),
        "us_per_candidate": best * 1e6 / max(1, candidates),
    }
    print(f"{entry['name']}: best {best * 1e3:.2f} ms of {repeats} "
          f"({entry['us_per_candidate']:.2f} us/candidate, {candidates} "
          f"candidates, {admitted} admitted)")
    return entry


def oracle(
    reference: ReferenceGenome, tables: IndexTables, reads: List[Tuple[str, str]]
) -> Tuple[list, list, dict]:
    """Per strand: seeds, ``candidates_from_seeds`` and one verdict per
    fetched window, with the counters the dispatch charges."""
    lane = SeedingLane(tables, _config())
    jobs = []
    exact_reads = 0
    for __, sequence in reads:
        exact_seen = False
        for oriented, reverse in strands(sequence):
            seeds = lane.seed_read(oriented)
            if any(seed.exact_whole_read for seed in seeds):
                exact_seen = True
                continue
            for candidate in candidates_from_seeds(seeds, reverse, MAX_CANDIDATES):
                jobs.append((oriented, candidate))
        exact_reads += exact_seen
    windows = [
        fetch_window(reference, candidate, len(oriented), EDIT_BOUND)
        for oriented, candidate in jobs
    ]
    distances = [
        myers_semiglobal_min(oriented, window)
        for (oriented, __), window in zip(jobs, windows)
    ]
    seen = [
        (oriented, c.window_start, c.reverse, c.seed_length, distance <= EDIT_BOUND)
        for (oriented, c), distance in zip(jobs, distances)
    ]
    admitted = [entry[:4] for entry in seen if entry[4]]
    stats = {
        "reads_exact": exact_reads,
        "candidates_survived": len(admitted),
        "candidates_filtered": len(seen) - len(admitted),
        "prefilter_cycles": sum(map(len, windows)),
    }
    return seen, admitted, stats


def check_dispatch(
    reference: ReferenceGenome, tables: IndexTables, reads: List[Tuple[str, str]]
) -> dict:
    """One dispatch with a recording stage and engine, against the oracle."""
    (stage,) = build_cascade(("myers",), reference, EDIT_BOUND, EDIT_BOUND).stages
    recording = _Recording(stage)
    driver, extender = _driver(reference, tables, FilterCascade([recording]))
    driver.align_batch(reads)
    want_seen, want_jobs, want_stats = oracle(reference, tables, reads)
    got_stats = {name: getattr(driver.stats, name) for name in want_stats}
    entry = {
        "reads": len(reads),
        "candidates": len(recording.seen),
        "verdicts_equal": recording.seen == want_seen,
        "jobs_equal": extender.jobs == want_jobs,
        "stats_equal": got_stats == want_stats,
    }
    exact = entry["verdicts_equal"] and entry["jobs_equal"] and entry["stats_equal"]
    print(f"oracle, {len(reads)} reads: {'exact' if exact else 'DIFFERS'}")
    return entry


def compare(shapes: List[dict], baseline: dict) -> dict:
    """Another run's per-shape numbers beside this run's, with speed-ups."""
    theirs = {shape["name"]: shape for shape in baseline["payload"]["shapes"]}
    rows = []
    for shape in shapes:
        other = theirs.get(shape["name"])
        if other is None:
            continue
        rows.append({
            "name": shape["name"],
            "us_per_candidate": other["us_per_candidate"],
            "speedup": other["best_s"] / shape["best_s"],
        })
        print(f"{shape['name']}: baseline {other['us_per_candidate']:.2f} -> "
              f"{shape['us_per_candidate']:.2f} us/candidate "
              f"({rows[-1]['speedup']:.2f}x)")
    return {
        "git_sha": baseline.get("git_sha"),
        "git_dirty": baseline.get("git_dirty"),
        "run_id": baseline.get("run_id"),
        "recorded_utc": baseline.get("recorded_utc"),
        "shapes": rows,
    }


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer repeats for CI")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--baseline", type=Path, default=None,
                        help="a BENCH_candidates.json to record beside this run")
    args = parser.parse_args(argv)

    mode = QUICK if args.quick else FULL
    reference, reads, tables = build_inputs()
    shapes = [
        measure_shape(reference, tables, reads[:size], mode["repeats"])
        for size in BATCH_SIZES
    ]
    checks = [check_dispatch(reference, tables, reads[:size]) for size in BATCH_SIZES]
    mismatched = sum(
        not (check["verdicts_equal"] and check["jobs_equal"] and check["stats_equal"])
        for check in checks
    )
    acceptance = {
        "checked_dispatches": len(checks),
        "mismatched_dispatches": mismatched,
        "passed": mismatched == 0,
    }
    print(f"acceptance: {len(checks) - mismatched}/{len(checks)} dispatches "
          f"equal the per-strand oracle -> "
          f"{'PASS' if acceptance['passed'] else 'FAIL'}")

    payload: Dict[str, object] = {
        "shapes": shapes, "checks": checks, "acceptance": acceptance,
    }
    if args.baseline is not None:
        with open(args.baseline, encoding="utf-8") as handle:
            payload["baseline"] = compare(shapes, json.load(handle))
    result = bench_envelope(
        BENCHMARK,
        quick=args.quick,
        workload={
            "seed": SEED,
            "k": K,
            "edit_bound": EDIT_BOUND,
            "max_candidates": MAX_CANDIDATES,
            "repeat_copies": REPEAT_COPIES,
            "repeats": mode["repeats"],
            "batch_sizes": list(BATCH_SIZES),
        },
        payload=payload,
    )
    problems = validate_result(result)
    if problems:
        for problem in problems:
            print(f"schema violation: {problem}")
        return 1
    write_bench(args.out, result)
    print(f"wrote {args.out} (run {result['run_id']})")
    return 0 if acceptance["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(run())
