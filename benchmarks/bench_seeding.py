"""Segmented seeding, alone -> ``BENCH_seeding.json``.

Not a paper figure: this times one
:meth:`repro.seeding.accelerator.SeedingAccelerator.seed_reads` call with
no pipeline around it, at 32, 128 and 512 oriented reads per call (reads
and their reverse complements, as a driver hands them to the seeder), at
two operating points:

* ``genax``: 101 bp reads at 1-3% error against a 200 kbp reference cut
  into 1, 4 and 8 segments, with genax's default config (k = 12, probing
  and the exact-match fast path on).  ``short-genax`` seeds 32 oriented
  reads against 4 segments per call.
* ``bitvector``: the ``repeat-rich`` workload (200 diverged copies of a
  600 bp unit, reads with 10 substitutions) in one segment, with
  bitvector's config (k = 10, probing off, the fast path on).
  ``repeat-bitvector`` seeds 128 oriented reads per call.

For every shape the payload reports the best and median wall time of one
call and, from the best, **us per read** (per oriented read).  At every
operating point and segment count, one batch of oriented reads is also
seeded by the
segment-at-a-time CAM walk
(:func:`~repro.seeding.smem_oracle.seed_reads_per_segment`); the seeds
and every ``SeedingStats`` counter must be equal, and the exit status is
non-zero when they are not.

``--baseline FILE`` copies another run's per-shape numbers into this
run's payload, with the speed-up against each.  To compare two commits,
run this same script against the older commit's ``src`` first (a tree
without the oracle records timings only, and exits 1)::

    PYTHONPATH=<old checkout>/src python benchmarks/bench_seeding.py \\
        --out /tmp/old.json
    PYTHONPATH=src python benchmarks/bench_seeding.py --baseline /tmp/old.json

Run directly (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_seeding.py [--quick]

``--quick`` keeps the shapes but times fewer repeats and checks fewer
reads, for CI smoke runs; the JSON schema is identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.genome.reads import ErrorProfile, ReadSimulator
from repro.genome.reference import ReferenceGenome, make_reference
from repro.genome.sequence import reverse_complement
from repro.perf.schema import BENCH_SCHEMA_VERSION, bench_envelope, write_bench
from repro.perf.workloads import build_repeat_rich_workload
from repro.seeding.accelerator import SeedingAccelerator
from repro.seeding.index import IndexTables, build_segment_tables
from repro.seeding.smem import SmemConfig
from repro.telemetry import monotonic_s

BENCHMARK = "bench_seeding"
DEFAULT_OUT = Path(__file__).parent / "results" / "bench" / "BENCH_seeding.json"
SEED = 2301
K = 12
GENOME_BP = 200_000
READ_LENGTH = 101
SEGMENT_COUNTS = (1, 4, 8)
BATCH_SIZES = (32, 128, 512)  # oriented reads per call
REPEAT_COPIES = 200
BITVECTOR_K = 10

FULL = dict(repeats=15, checked_reads=32)
QUICK = dict(repeats=2, checked_reads=8)

ENVELOPE_KEYS = (
    "schema_version", "benchmark", "quick", "machine", "workload",
    "payload", "machine_fingerprint", "workload_fingerprint", "run_id",
)

# Required payload structure: key -> required sub-keys (None = scalar).
RESULT_SCHEMA: Dict[str, Optional[Sequence[str]]] = {
    "workload": ("seed", "k", "genome_bp", "read_length", "repeats",
                 "checked_reads", "segment_counts", "batch_sizes", "points"),
    "shapes": ("name", "point", "segments", "reads", "best_s", "median_s",
               "us_per_read", "seeds", "hits"),
    "checks": ("point", "segments", "reads", "seeds_equal", "stats_equal"),
    "acceptance": ("checked_batches", "mismatched_batches", "passed"),
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
        if not entries and key != "checks":
            problems.append(f"{key!r} is empty")
        for entry in entries:
            if not isinstance(entry, dict):
                problems.append(f"{key!r} entry is not an object: {entry!r}")
                continue
            for subkey in subkeys or ():
                if subkey not in entry:
                    problems.append(f"{key!r} entry missing {subkey!r}")
    return problems


@dataclasses.dataclass(frozen=True)
class Point:
    """One operating point: its inputs, seeding config and segment counts."""

    name: str
    reference: ReferenceGenome
    reads: List[str]  # the largest batch's oriented reads
    config: SmemConfig
    segment_counts: Tuple[int, ...]


def _oriented(reads: Sequence[str]) -> List[str]:
    return [oriented for read in reads for oriented in (read, reverse_complement(read))]


def build_points() -> List[Point]:
    """The genax and bitvector operating points."""
    reference = make_reference(GENOME_BP, seed=SEED)
    simulator = ReadSimulator(
        reference,
        read_length=READ_LENGTH,
        seed=SEED,
        error_profile=ErrorProfile(rate_start=0.01, rate_end=0.03),
    )
    reads = [read.sequence for read in simulator.simulate(max(BATCH_SIZES) // 2)]
    repeat_reference, named = build_repeat_rich_workload(
        repeat_copies=REPEAT_COPIES, reads=max(BATCH_SIZES) // 2, seed=SEED
    )
    return [
        Point(
            "genax",
            reference,
            _oriented(reads),
            SmemConfig(k=K, probe=True, exact_match_fast_path=True),
            SEGMENT_COUNTS,
        ),
        Point(
            "bitvector",
            repeat_reference,
            _oriented([sequence for __, sequence in named]),
            SmemConfig(k=BITVECTOR_K, exact_match_fast_path=True),
            (1,),
        ),
    ]


def _shape_name(point: Point, segments: int, reads: int) -> str:
    # genax keeps its earlier names, so older runs compare as baselines.
    prefix = "" if point.name == "genax" else f"{point.name}-"
    return f"{prefix}segments-{segments}-reads-{reads}"


def measure_shape(
    point: Point,
    tables: List[IndexTables],
    reads: List[str],
    repeats: int,
) -> dict:
    accelerator = SeedingAccelerator(
        point.reference, point.config, segment_count=len(tables), tables=tables
    )
    seeds = accelerator.seed_reads(reads)  # warm-up: builds the lazy tables
    times: List[float] = []
    for _ in range(repeats):
        started = monotonic_s()
        accelerator.seed_reads(reads)
        times.append(monotonic_s() - started)
    best = min(times)
    entry = {
        "name": _shape_name(point, len(tables), len(reads)),
        "point": point.name,
        "segments": len(tables),
        "reads": len(reads),
        "best_s": best,
        "median_s": statistics.median(times),
        "us_per_read": best * 1e6 / len(reads),
        "seeds": sum(len(row) for row in seeds),
        "hits": sum(len(seed.positions) for row in seeds for seed in row),
    }
    print(f"{entry['name']}: best {best * 1e3:.2f} ms of {repeats} "
          f"({entry['us_per_read']:.1f} us/read), {entry['seeds']} seeds")
    return entry


def check_batch(
    point: Point, tables: List[IndexTables], reads: List[str]
) -> Optional[dict]:
    """One batch seeded both ways; ``None`` when this tree has no oracle."""
    try:
        from repro.seeding.smem_oracle import seed_reads_per_segment
    except ImportError:
        return None
    accelerator = SeedingAccelerator(
        point.reference, point.config, segment_count=len(tables), tables=tables
    )
    seeds = accelerator.seed_reads(reads)
    want_seeds, want_stats = seed_reads_per_segment(tables, point.config, reads)
    entry = {
        "point": point.name,
        "segments": len(tables),
        "reads": len(reads),
        "seeds_equal": list(seeds) == want_seeds,
        "stats_equal": (
            dataclasses.asdict(accelerator.stats) == dataclasses.asdict(want_stats)
        ),
    }
    verdict = "exact" if entry["seeds_equal"] and entry["stats_equal"] else "DIFFERS"
    print(f"oracle, {point.name}, {len(tables)} segments, {len(reads)} reads: "
          f"{verdict}")
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
            "us_per_read": other["us_per_read"],
            "speedup": other["best_s"] / shape["best_s"],
        })
        print(f"{shape['name']}: baseline {other['us_per_read']:.1f} -> "
              f"{shape['us_per_read']:.1f} us/read ({rows[-1]['speedup']:.2f}x)")
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
                        help="fewer repeats and checked reads for CI")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--baseline", type=Path, default=None,
                        help="a BENCH_seeding.json to record beside this run")
    args = parser.parse_args(argv)

    mode = QUICK if args.quick else FULL
    points = build_points()
    shapes: List[dict] = []
    checks: List[dict] = []
    for point in points:
        for count in point.segment_counts:
            views = point.reference.segments(
                count, overlap=SeedingAccelerator.SEGMENT_OVERLAP
            )
            tables = build_segment_tables(views, point.config.k)
            for size in BATCH_SIZES:
                shapes.append(
                    measure_shape(point, tables, point.reads[:size], mode["repeats"])
                )
            check = check_batch(point, tables, point.reads[: mode["checked_reads"]])
            if check is not None:
                checks.append(check)
    mismatched = sum(
        not (check["seeds_equal"] and check["stats_equal"]) for check in checks
    )
    acceptance = {
        "checked_batches": len(checks),
        "mismatched_batches": mismatched,
        "passed": bool(checks) and mismatched == 0,
    }
    print(f"acceptance: {len(checks) - mismatched}/{len(checks)} checked batches "
          f"equal the per-segment CAM walk -> "
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
            "genome_bp": GENOME_BP,
            "read_length": READ_LENGTH,
            "repeats": mode["repeats"],
            "checked_reads": mode["checked_reads"],
            "segment_counts": list(SEGMENT_COUNTS),
            "batch_sizes": list(BATCH_SIZES),
            "points": {
                point.name: {
                    "k": point.config.k,
                    "probe": point.config.probe,
                    "exact_match_fast_path": point.config.exact_match_fast_path,
                    "reference_bp": len(point.reference.sequence),
                    "segment_counts": list(point.segment_counts),
                }
                for point in points
            },
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
