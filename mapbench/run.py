"""Run the mapping benchmark on one workload (or all) and print its metrics.

Usage, from the repository root::

    python3 mapbench/run.py --workload short-genax --seed 1 --seconds 20 --trace 0
    python3 mapbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
traced pass and prints the per-layer table.  Every metric is printed by
name with its unit; the last line of standard output is one JSON object
with the metrics ``BENCHMARK.json`` declares for that mode.  The exit code
is 0 only when the run's outputs were checked and found correct.
``--workload all`` runs each workload in a child process of its own, so
that each reports its own peak memory, and prefixes its metrics with the
workload name.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

# Serial benchmark: keep numerical libraries to one thread.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"


def _load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        spec: Dict[str, Any] = json.load(handle)
    return spec


def _print_report(report: Any) -> None:
    print(f"== {report.workload}")
    for note in report.notes:
        print(f"   {note}")
    if report.layer_rows:
        print(f"   {'layer':<26} {'busy s':>9} {'share':>7}  counts")
        for name, busy, share, text in report.layer_rows:
            print(f"   {name:<26} {busy:>9.3f} {share:>7.1%}  {text}")
    for name, metric in report.metrics.items():
        print(f"   {name:<26} {metric.value:>14.6g} {metric.unit}")


def _print_result(
    correct: bool, attempted: int, failed: int, metrics: Dict[str, Any]
) -> None:
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))


def _run_each(args: argparse.Namespace, names: List[str]) -> int:
    """Run every workload in a child process and merge their results.

    A process's peak memory only grows, so workloads sharing one process
    would each report the peak of the workloads before them.
    """
    metrics: Dict[str, Any] = {}
    attempted = failed = 0
    correct = True
    for name in names:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        if child.returncode not in (0, 1) or not lines:
            print("\n".join(lines))
            return child.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        for metric, value in result["metrics"].items():
            metrics[f"{name}/{metric}"] = value
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
    _print_result(correct, attempted, failed, metrics)
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from mapbench.runner import NondeterminismError, run_traced, run_untraced
    from mapbench.workloads import WORKLOADS

    if args.workload == "all":
        return _run_each(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        known = ", ".join(WORKLOADS)
        parser.error(f"unknown workload {args.workload!r} (known: {known}, all)")

    spec = _load_spec()
    section = "per_layer" if args.trace else "end_to_end"
    declared = [metric["name"] for metric in spec[section]]
    run = run_traced if args.trace else run_untraced
    try:
        report = run(WORKLOADS[args.workload], args.seed, args.seconds)
    except NondeterminismError as exc:
        print(f"error: mapping output is not deterministic: {exc}", file=sys.stderr)
        return 3
    _print_report(report)
    missing = [metric for metric in declared if metric not in report.metrics]
    if missing:
        print(f"error: {args.workload} did not measure {missing}", file=sys.stderr)
        return 4
    metrics = {
        metric: {
            "value": report.metrics[metric].value,
            "unit": report.metrics[metric].unit,
        }
        for metric in declared
    }
    _print_result(report.correct, report.attempted, report.failed, metrics)
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
