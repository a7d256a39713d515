"""The batched Myers kernel alone -> ``BENCH_myers.json``.

Not a paper figure: this times one
:func:`~repro.align.bitvector.semiglobal_min_windows` call, the kernel
behind the cascade's ``myers`` stage, at the lane shapes the short-read
workloads dispatch: 101 bp reads against windows of read length plus
the edit bound, on a random genome, most windows decoys and one per read
at the read's origin (each read carries a few substitutions).  Shapes:

* ``e12-lanes52``: 52 lanes over 16 reads at e = 12 (113 bp windows),
  the ``short-genax`` dispatch;
* ``e12-lanes1315``: 1,315 lanes over 64 reads at e = 12, the
  ``repeat-bitvector`` dispatch;
* ``e40-lanes1315``: the same reads at the CLI default e = 40 (141 bp
  windows), where a lane's band covers the whole read in two words.

Repeats are interleaved (every shape once per round), so drift on a
shared machine reaches every shape alike.  For every shape the payload
reports the best and median wall time of one call and, from the best,
**us per column** (per window base of the longest window).  Every lane's
distance must equal the scalar recurrence clipped at the bound,
``min(myers_semiglobal_min(read, window), e + 1)``; the exit status is
non-zero when any differs.

``--baseline FILE`` copies another run's per-shape numbers into this
run's payload, with the speed-up against each.  To compare two commits,
run this same script against the older commit's ``src`` first (a kernel
without the ``max_edits`` argument is timed on its full-distance call,
and its distances are clipped before the check)::

    PYTHONPATH=<old checkout>/src python benchmarks/bench_myers.py \\
        --out /tmp/old.json
    PYTHONPATH=src python benchmarks/bench_myers.py --baseline /tmp/old.json

Run directly (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_myers.py [--quick]

``--quick`` keeps the shapes but times fewer repeats, for CI smoke runs;
the JSON schema is identical.
"""

from __future__ import annotations

import argparse
import inspect
import json
import random
import statistics
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.align.bitvector import semiglobal_min_windows
from repro.align.myers import myers_semiglobal_min
from repro.genome.sequence import encode_bases, random_dna
from repro.perf.schema import BENCH_SCHEMA_VERSION, bench_envelope, write_bench
from repro.telemetry import monotonic_s

BENCHMARK = "bench_myers"
DEFAULT_OUT = Path(__file__).parent / "results" / "bench" / "BENCH_myers.json"
SEED = 2801
GENOME_LENGTH = 50_000
READ_LENGTH = 101
SUBSTITUTIONS = 4
# (name, edit bound, reads, lanes)
SHAPES = (
    ("e12-lanes52", 12, 16, 52),
    ("e12-lanes1315", 12, 64, 1315),
    ("e40-lanes1315", 40, 64, 1315),
)

FULL = dict(repeats=25)
QUICK = dict(repeats=3)

ENVELOPE_KEYS = (
    "schema_version", "benchmark", "quick", "machine", "workload",
    "payload", "machine_fingerprint", "workload_fingerprint", "run_id",
)

# Required payload structure: key -> required sub-keys (None = scalar).
RESULT_SCHEMA: Dict[str, Optional[Sequence[str]]] = {
    "workload": ("seed", "genome_length", "read_length", "substitutions",
                 "repeats", "shapes"),
    "shapes": ("name", "edit_bound", "reads", "lanes", "columns", "within",
               "best_s", "median_s", "best_ms", "median_ms", "us_per_column"),
    "checks": ("name", "lanes", "mismatched_lanes"),
    "acceptance": ("checked_lanes", "mismatched_lanes", "passed"),
}

#: ``(patterns, rows, reference codes, starts, lengths)`` of one call.
Lanes = Tuple[List[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray]


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


def build_lanes(genome: str, edit_bound: int, reads: int, lanes: int) -> Lanes:
    """*lanes* windows over *reads* reads: each read's origin, then decoys."""
    rng = random.Random(f"{SEED}:{reads}:{lanes}")
    patterns, rows, starts = [], [], []
    for row in range(reads):
        origin = rng.randrange(len(genome) - READ_LENGTH)
        read = list(genome[origin : origin + READ_LENGTH])
        for spot in rng.sample(range(READ_LENGTH), SUBSTITUTIONS):
            read[spot] = "ACGT"[("ACGT".index(read[spot]) + 1) % 4]
        patterns.append("".join(read))
        rows.append(row)
        starts.append(origin)
    while len(rows) < lanes:
        rows.append(len(rows) % reads)
        starts.append(rng.randrange(len(genome)))
    first = np.array(starts, dtype=np.int64)
    # The myers stage's clamp: a window past the genome's end is cut short.
    end = np.minimum(len(genome), first + READ_LENGTH + edit_bound)
    return (
        patterns,
        np.array(rows, dtype=np.int64),
        encode_bases(genome),
        first,
        end - first,
    )


def kernel_call(edit_bound: int) -> Callable[[Lanes], np.ndarray]:
    """The kernel call at *edit_bound*, bounded on every tree.

    A kernel without ``max_edits`` returns full distances; they are
    clipped here so both trees answer the same question.
    """
    if "max_edits" in inspect.signature(semiglobal_min_windows).parameters:
        return lambda lanes: semiglobal_min_windows(*lanes, max_edits=edit_bound)
    return lambda lanes: np.minimum(semiglobal_min_windows(*lanes), edit_bound + 1)


def check_shape(genome: str, name: str, edit_bound: int, lanes: Lanes) -> dict:
    """Every lane's distance against the clipped scalar recurrence."""
    patterns, rows, __, starts, lengths = lanes
    got = kernel_call(edit_bound)(lanes).tolist()
    want = [
        min(
            myers_semiglobal_min(patterns[row], genome[start : start + length]),
            edit_bound + 1,
        )
        for row, start, length in zip(rows, starts, lengths)
    ]
    mismatched = sum(a != b for a, b in zip(got, want))
    print(f"{name}: {len(want) - mismatched}/{len(want)} lanes equal the "
          f"scalar recurrence")
    return {"name": name, "lanes": len(want), "mismatched_lanes": mismatched}


def measure(repeats: int) -> Tuple[List[dict], List[dict]]:
    """Interleaved timing rounds over every shape, then the checks."""
    genome = random_dna(GENOME_LENGTH, random.Random(SEED))
    calls = []
    for name, edit_bound, reads, lanes in SHAPES:
        built = build_lanes(genome, edit_bound, reads, lanes)
        call = kernel_call(edit_bound)
        call(built)  # warm-up
        calls.append((name, edit_bound, reads, built, call))
    times: Dict[str, List[float]] = {name: [] for name, *__ in calls}
    for _ in range(repeats):
        for name, __, __, built, call in calls:
            started = monotonic_s()
            call(built)
            times[name].append(monotonic_s() - started)
    shapes = []
    for name, edit_bound, reads, built, call in calls:
        best = min(times[name])
        median = statistics.median(times[name])
        columns = int(built[4].max())
        entry = {
            "name": name,
            "edit_bound": edit_bound,
            "reads": reads,
            "lanes": len(built[1]),
            "columns": columns,
            "within": int((call(built) <= edit_bound).sum()),
            "best_s": best,
            "median_s": median,
            "best_ms": best * 1e3,
            "median_ms": median * 1e3,
            "us_per_column": best * 1e6 / columns,
        }
        print(f"{name}: best {entry['best_ms']:.2f} ms, median "
              f"{entry['median_ms']:.2f} ms of {repeats} "
              f"({entry['us_per_column']:.1f} us/column, {entry['lanes']} "
              f"lanes, {entry['within']} within e = {edit_bound})")
        shapes.append(entry)
    checks = [
        check_shape(genome, name, bound, built)
        for name, bound, __, built, __ in calls
    ]
    return shapes, checks


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
            "best_ms": other["best_ms"],
            "median_ms": other["median_ms"],
            "speedup": other["best_s"] / shape["best_s"],
            "median_speedup": other["median_s"] / shape["median_s"],
        })
        print(f"{shape['name']}: baseline {other['best_ms']:.2f} -> "
              f"{shape['best_ms']:.2f} ms best ({rows[-1]['speedup']:.2f}x), "
              f"{other['median_ms']:.2f} -> {shape['median_ms']:.2f} ms median "
              f"({rows[-1]['median_speedup']:.2f}x)")
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
                        help="a BENCH_myers.json to record beside this run")
    args = parser.parse_args(argv)

    mode = QUICK if args.quick else FULL
    shapes, checks = measure(mode["repeats"])
    mismatched = sum(check["mismatched_lanes"] for check in checks)
    acceptance = {
        "checked_lanes": sum(check["lanes"] for check in checks),
        "mismatched_lanes": mismatched,
        "passed": mismatched == 0,
    }
    print(f"acceptance: {mismatched} lanes differ from the scalar recurrence "
          f"-> {'PASS' if acceptance['passed'] else 'FAIL'}")

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
            "genome_length": GENOME_LENGTH,
            "read_length": READ_LENGTH,
            "substitutions": SUBSTITUTIONS,
            "repeats": mode["repeats"],
            "shapes": [list(shape) for shape in SHAPES],
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
