"""Lane-batched banded DP kernel, alone -> ``BENCH_banded.json``.

Not a paper figure: this times :func:`repro.align.banded.
batch_banded_extension_align` with no pipeline around it, at the lane
shapes the backends hand it:

* ``long-nanopore`` — 4 and 8 lanes of 2 kbp reads at ~10% (mostly
  indel) error, band 125: the ``longread`` backend's dispatches;
* ``short-band12`` — 64 lanes of 101 bp reads, band 12;
* ``bwamem`` — 400 lanes of 101 bp reads, band 40: one ``bwamem``
  dispatch.

Each window is the read's source plus ``band`` bases of slack, the
shape ``window_span`` fetches.  For every shape the payload reports the
best and median wall time of one kernel call, the rows it streams (the
longest window) and the cells it computes, and from those **ns per
row** and **ns per cell**.  Sampled lanes of every shape are re-aligned
with the scalar oracle :func:`~repro.align.banded.banded_extension_align`
and must equal it in every ``DPResult`` field; the exit status is
non-zero when one does not.

Run directly (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_banded_kernel.py [--quick]

``--quick`` keeps the shapes but times fewer repeats and checks fewer
lanes, for CI smoke runs; the JSON schema is identical.
"""

from __future__ import annotations

import argparse
import random
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.align.banded import (
    banded_extension_align,
    batch_banded_extension_align,
)
from repro.align.smith_waterman import DPResult
from repro.perf.schema import BENCH_SCHEMA_VERSION, bench_envelope, write_bench
from repro.telemetry import monotonic_s

BENCHMARK = "bench_banded_kernel"
DEFAULT_OUT = (
    Path(__file__).parent / "results" / "bench" / "BENCH_banded.json"
)
SEED = 2113

#: (name, lanes, read length, band, error rate, share of errors that are
#: indels).
SHAPES: Tuple[Tuple[str, int, int, int, float, float], ...] = (
    ("long-nanopore-4", 4, 2000, 125, 0.10, 0.8),
    ("long-nanopore-8", 8, 2000, 125, 0.10, 0.8),
    ("short-band12", 64, 101, 12, 0.02, 0.2),
    ("bwamem", 400, 101, 40, 0.02, 0.2),
)

FULL = dict(repeats=7, checked_lanes=3)
QUICK = dict(repeats=2, checked_lanes=1)

ENVELOPE_KEYS = (
    "schema_version", "benchmark", "quick", "machine", "workload",
    "payload", "machine_fingerprint", "workload_fingerprint", "run_id",
)

# Required payload structure: key -> required sub-keys (None = scalar).
RESULT_SCHEMA: Dict[str, Optional[Sequence[str]]] = {
    "workload": ("seed", "repeats", "checked_lanes", "shapes"),
    "shapes": ("name", "lanes", "read_length", "band", "rows", "cells",
               "best_s", "median_s", "ns_per_row", "ns_per_cell",
               "checked_lanes", "mismatched_lanes"),
    "acceptance": ("checked_lanes", "mismatched_lanes", "passed"),
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


def _read_from(
    rng: random.Random, source: str, error_rate: float, indel_share: float
) -> str:
    """*source* with substitutions, insertions and deletions at the rates."""
    out: List[str] = []
    for base in source:
        roll = rng.random()
        if roll >= error_rate:
            out.append(base)
        elif roll < error_rate * (1 - indel_share):
            out.append(rng.choice([b for b in "ACGT" if b != base]))
        elif roll < error_rate * (1 - indel_share / 2):
            continue  # deletion
        else:
            out.extend((base, rng.choice("ACGT")))  # insertion
    return "".join(out)


def build_lanes(
    lanes: int, read_length: int, band: int, error_rate: float,
    indel_share: float, seed: int,
) -> Tuple[List[str], List[str], List[int]]:
    """Deterministic (windows, reads, bands) for one shape."""
    rng = random.Random(seed)
    windows: List[str] = []
    reads: List[str] = []
    for _ in range(lanes):
        window = "".join(rng.choice("ACGT") for _ in range(read_length + band))
        windows.append(window)
        reads.append(
            _read_from(rng, window[:read_length], error_rate, indel_share)
        )
    return windows, reads, [band] * lanes


def dp_fields(result: DPResult) -> Tuple[object, ...]:
    alignment = result.alignment
    return (
        alignment.score,
        alignment.reference_start,
        alignment.reference_end,
        alignment.query_start,
        alignment.query_end,
        str(alignment.cigar),
        result.cells_computed,
    )


def measure_shape(
    name: str, lanes: int, read_length: int, band: int, error_rate: float,
    indel_share: float, seed: int, repeats: int, checked_lanes: int,
) -> dict:
    windows, reads, bands = build_lanes(
        lanes, read_length, band, error_rate, indel_share, seed
    )
    results = batch_banded_extension_align(windows, reads, bands)  # warm-up
    times: List[float] = []
    for _ in range(repeats):
        started = monotonic_s()
        results = batch_banded_extension_align(windows, reads, bands)
        times.append(monotonic_s() - started)
    rows = max(len(window) for window in windows)
    cells = sum(result.cells_computed for result in results)
    step = max(1, lanes // checked_lanes)
    sampled = list(range(0, lanes, step))[:checked_lanes]
    mismatched = [
        lane for lane in sampled
        if dp_fields(results[lane]) != dp_fields(
            banded_extension_align(windows[lane], reads[lane], bands[lane])
        )
    ]
    best = min(times)
    entry = {
        "name": name,
        "lanes": lanes,
        "read_length": read_length,
        "band": band,
        "error_rate": error_rate,
        "rows": rows,
        "cells": cells,
        "best_s": best,
        "median_s": statistics.median(times),
        "ns_per_row": best / rows * 1e9,
        "ns_per_cell": best / cells * 1e9,
        "checked_lanes": len(sampled),
        "mismatched_lanes": len(mismatched),
    }
    print(f"{name}: {lanes} lanes x {read_length} bp, band {band}: "
          f"best {best * 1e3:.1f} ms of {repeats}, "
          f"{entry['ns_per_row']:.0f} ns/row, "
          f"{entry['ns_per_cell']:.2f} ns/cell; "
          f"{len(sampled) - len(mismatched)}/{len(sampled)} checked lanes exact")
    return entry


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer repeats and checked lanes for CI")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    mode = QUICK if args.quick else FULL
    shapes = [
        measure_shape(*shape, seed=SEED + index, **mode)
        for index, shape in enumerate(SHAPES)
    ]
    checked = sum(shape["checked_lanes"] for shape in shapes)
    mismatched = sum(shape["mismatched_lanes"] for shape in shapes)
    acceptance = {
        "checked_lanes": checked,
        "mismatched_lanes": mismatched,
        "passed": checked > 0 and mismatched == 0,
    }
    print(f"acceptance: {checked - mismatched}/{checked} checked lanes equal "
          f"the scalar DP -> {'PASS' if acceptance['passed'] else 'FAIL'}")

    result = bench_envelope(
        BENCHMARK,
        quick=args.quick,
        workload={
            "seed": SEED,
            "repeats": mode["repeats"],
            "checked_lanes": mode["checked_lanes"],
            "shapes": [
                dict(zip(("name", "lanes", "read_length", "band",
                          "error_rate", "indel_share"), shape))
                for shape in SHAPES
            ],
        },
        payload={"shapes": shapes, "acceptance": acceptance},
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
