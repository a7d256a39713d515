"""Dense SillaX traceback, alone -> ``BENCH_sillax.json``.

Not a paper figure: this times one
:meth:`repro.sillax.dense.DenseTracebackMachine.align_batch` call with
no pipeline around it, at K = 12 on 101 bp reads against 125 bp windows
(the read plus 2K of slack), for 4, 18, 72 and 288 lanes.  ``short-genax``
hands the machine about 18 lanes per dispatch; the sweep separates the
fixed cost of a call (one NumPy step per machine cycle) from the cost
per lane.  Reads carry ~2% error, a fifth of it indels, so some trails
break and re-run.

For every shape the payload reports the best and median wall time of one
call and, from the best, **ms per call** and **ms per lane**.  Sampled
lanes of every shape are re-aligned with the object-per-PE oracle
:class:`~repro.sillax.traceback_machine.TracebackMachine` and must equal
it in every ``TracebackResult`` field; the exit status is non-zero when
one does not.

``--baseline FILE`` copies another run's per-shape numbers into this
run's payload, with the speed-up against each.  To compare two commits,
run this same script against the older commit's ``src`` first::

    PYTHONPATH=<old checkout>/src python benchmarks/bench_sillax_dense.py \\
        --out /tmp/old.json
    PYTHONPATH=src python benchmarks/bench_sillax_dense.py --baseline /tmp/old.json

Run directly (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_sillax_dense.py [--quick]

``--quick`` keeps the shapes but times fewer repeats and checks fewer
lanes, for CI smoke runs; the JSON schema is identical.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sillax.dense import DenseTracebackMachine
from repro.sillax.traceback_machine import TracebackMachine
from repro.perf.schema import BENCH_SCHEMA_VERSION, bench_envelope, write_bench
from repro.telemetry import monotonic_s

BENCHMARK = "bench_sillax_dense"
DEFAULT_OUT = (
    Path(__file__).parent / "results" / "bench" / "BENCH_sillax.json"
)
SEED = 2207
K = 12
READ_LENGTH = 101
WINDOW_LENGTH = READ_LENGTH + 2 * K
ERROR_RATE = 0.02
INDEL_SHARE = 0.2

#: (name, lanes) per timed call.
SHAPES: Tuple[Tuple[str, int], ...] = (
    ("lanes-4", 4),
    ("lanes-18", 18),
    ("lanes-72", 72),
    ("lanes-288", 288),
)

FULL = dict(repeats=7, checked_lanes=3)
QUICK = dict(repeats=2, checked_lanes=1)

ENVELOPE_KEYS = (
    "schema_version", "benchmark", "quick", "machine", "workload",
    "payload", "machine_fingerprint", "workload_fingerprint", "run_id",
)

# Required payload structure: key -> required sub-keys (None = scalar).
RESULT_SCHEMA: Dict[str, Optional[Sequence[str]]] = {
    "workload": ("seed", "k", "read_length", "window_length", "repeats",
                 "checked_lanes", "shapes"),
    "shapes": ("name", "lanes", "best_s", "median_s", "ms_per_call",
               "ms_per_lane", "reruns", "checked_lanes", "mismatched_lanes"),
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


def _read_from(rng: random.Random, source: str) -> str:
    """*source* with substitutions, insertions and deletions at the rates."""
    out: List[str] = []
    for base in source:
        roll = rng.random()
        if roll >= ERROR_RATE:
            out.append(base)
        elif roll < ERROR_RATE * (1 - INDEL_SHARE):
            out.append(rng.choice([b for b in "ACGT" if b != base]))
        elif roll < ERROR_RATE * (1 - INDEL_SHARE / 2):
            continue  # deletion
        else:
            out.extend((base, rng.choice("ACGT")))  # insertion
    return "".join(out)


def build_lanes(lanes: int, seed: int) -> Tuple[List[str], List[str]]:
    """Deterministic (windows, reads) for one shape."""
    rng = random.Random(seed)
    windows: List[str] = []
    reads: List[str] = []
    for _ in range(lanes):
        window = "".join(rng.choice("ACGT") for _ in range(WINDOW_LENGTH))
        windows.append(window)
        reads.append(_read_from(rng, window[:READ_LENGTH]))
    return windows, reads


def measure_shape(
    name: str, lanes: int, seed: int, repeats: int, checked_lanes: int
) -> dict:
    windows, reads = build_lanes(lanes, seed)
    machine = DenseTracebackMachine(K)
    results = machine.align_batch(windows, reads)  # warm-up
    times: List[float] = []
    for _ in range(repeats):
        started = monotonic_s()
        results = machine.align_batch(windows, reads)
        times.append(monotonic_s() - started)
    step = max(1, lanes // checked_lanes)
    sampled = list(range(0, lanes, step))[:checked_lanes]
    oracle = TracebackMachine(K)
    mismatched = [
        lane for lane in sampled
        if results[lane] != oracle.align(windows[lane], reads[lane])
    ]
    best = min(times)
    entry = {
        "name": name,
        "lanes": lanes,
        "best_s": best,
        "median_s": statistics.median(times),
        "ms_per_call": best * 1e3,
        "ms_per_lane": best * 1e3 / lanes,
        "reruns": sum(result.rerun_count for result in results),
        "checked_lanes": len(sampled),
        "mismatched_lanes": len(mismatched),
    }
    print(f"{name}: {lanes} lanes, K = {K}: best {entry['ms_per_call']:.1f} ms "
          f"of {repeats} ({entry['ms_per_lane']:.3f} ms/lane), "
          f"{entry['reruns']} re-runs; "
          f"{len(sampled) - len(mismatched)}/{len(sampled)} checked lanes exact")
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
            "ms_per_call": other["ms_per_call"],
            "ms_per_lane": other["ms_per_lane"],
            "speedup": other["best_s"] / shape["best_s"],
        })
        print(f"{shape['name']}: baseline {other['ms_per_call']:.1f} ms -> "
              f"{shape['ms_per_call']:.1f} ms ({rows[-1]['speedup']:.2f}x)")
    return {
        "git_sha": baseline.get("git_sha"),
        "run_id": baseline.get("run_id"),
        "recorded_utc": baseline.get("recorded_utc"),
        "shapes": rows,
    }


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer repeats and checked lanes for CI")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--baseline", type=Path, default=None,
                        help="a BENCH_sillax.json to record beside this run")
    args = parser.parse_args(argv)

    mode = QUICK if args.quick else FULL
    shapes = [
        measure_shape(name, lanes, seed=SEED + index, **mode)
        for index, (name, lanes) in enumerate(SHAPES)
    ]
    checked = sum(shape["checked_lanes"] for shape in shapes)
    mismatched = sum(shape["mismatched_lanes"] for shape in shapes)
    acceptance = {
        "checked_lanes": checked,
        "mismatched_lanes": mismatched,
        "passed": checked > 0 and mismatched == 0,
    }
    print(f"acceptance: {checked - mismatched}/{checked} checked lanes equal "
          f"the object machine -> {'PASS' if acceptance['passed'] else 'FAIL'}")

    payload: Dict[str, object] = {"shapes": shapes, "acceptance": acceptance}
    if args.baseline is not None:
        with open(args.baseline, encoding="utf-8") as handle:
            payload["baseline"] = compare(shapes, json.load(handle))
    result = bench_envelope(
        BENCHMARK,
        quick=args.quick,
        workload={
            "seed": SEED,
            "k": K,
            "read_length": READ_LENGTH,
            "window_length": WINDOW_LENGTH,
            "error_rate": ERROR_RATE,
            "indel_share": INDEL_SHARE,
            "repeats": mode["repeats"],
            "checked_lanes": mode["checked_lanes"],
            "shapes": [dict(zip(("name", "lanes"), shape)) for shape in SHAPES],
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
