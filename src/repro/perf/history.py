"""The perf history store: content-addressed runs + a trajectory view.

``benchmarks/history/`` holds one JSON file per recorded run, named by
the run's content address (:func:`repro.perf.schema.compute_run_id`), so
recording is idempotent: appending a byte-identical measurement twice
stores it once.  Ordering does not come from filesystem mtimes (which
rsync, git checkouts and CI artifact restores all destroy) but from a
monotonically increasing ``history.sequence`` assigned at append time,
plus a ``history.recorded_at`` reading from an injectable clock — tests
drive a :class:`~repro.telemetry.clock.ManualClock` through the same
code path CI exercises.

Baseline selection for the gate: the *latest* (highest-sequence)
recorded run whose workload fingerprint matches the current run's —
optionally also machine fingerprint, which the wall-clock mode requires.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.perf.schema import BENCH_SCHEMA_VERSION, compute_run_id, load_bench
from repro.telemetry.clock import Clock, monotonic_s

__all__ = ["HistoryStore", "render_history"]


class HistoryStore:
    """Append-once run storage under one directory."""

    def __init__(
        self, root: Union[str, Path], clock: Clock = monotonic_s
    ) -> None:
        self.root = Path(root)
        self._clock = clock

    # ------------------------------------------------------------- writing

    def append(self, result: Dict[str, Any]) -> str:
        """Record *result*; returns its run id.  Idempotent by content."""
        if result.get("schema_version") != BENCH_SCHEMA_VERSION:
            raise ValueError(
                "history only stores envelope results (schema_version "
                f"{BENCH_SCHEMA_VERSION})"
            )
        run_id = str(result.get("run_id") or compute_run_id(result))
        path = self.root / f"{run_id}.json"
        if path.exists():
            return run_id
        doc = dict(result)
        doc["run_id"] = run_id
        doc["history"] = {
            "sequence": self._next_sequence(),
            "recorded_at": self._clock(),
        }
        self.root.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return run_id

    def _next_sequence(self) -> int:
        sequences = [
            int(run.get("history", {}).get("sequence", 0))
            for run in self.runs()
        ]
        return max(sequences, default=0) + 1

    # ------------------------------------------------------------- reading

    def runs(self) -> List[Dict[str, Any]]:
        """Every recorded run, oldest first (sequence, then run id)."""
        if not self.root.is_dir():
            return []
        loaded: List[Dict[str, Any]] = []
        for path in sorted(self.root.glob("*.json")):
            loaded.append(load_bench(path))
        loaded.sort(
            key=lambda run: (
                int(run.get("history", {}).get("sequence", 0)),
                str(run.get("run_id", "")),
            )
        )
        return loaded

    def latest(
        self,
        *,
        benchmark: Optional[str] = None,
        workload_fingerprint: Optional[str] = None,
        machine_fingerprint: Optional[str] = None,
        exclude_run_id: Optional[str] = None,
    ) -> Optional[Dict[str, Any]]:
        """The newest recorded run matching every given filter."""
        for run in reversed(self.runs()):
            if benchmark is not None and run.get("benchmark") != benchmark:
                continue
            if (
                workload_fingerprint is not None
                and run.get("workload_fingerprint") != workload_fingerprint
            ):
                continue
            if (
                machine_fingerprint is not None
                and run.get("machine_fingerprint") != machine_fingerprint
            ):
                continue
            if (
                exclude_run_id is not None
                and run.get("run_id") == exclude_run_id
            ):
                continue
            return run
        return None


def _headline(run: Dict[str, Any]) -> str:
    """One summarising column for the trajectory table."""
    cells = run.get("payload", {}).get("cells")
    if isinstance(cells, list) and cells:
        candidates = sum(
            int(cell.get("work", {}).get("candidates_checked", 0))
            for cell in cells
        )
        return f"{len(cells)} cells, {candidates} candidates"
    acceptance = run.get("payload", {}).get("acceptance")
    if isinstance(acceptance, dict) and "full_cascade_reject_rate" in acceptance:
        return f"reject {acceptance['full_cascade_reject_rate']:.1%}"
    return "-"


def render_history(store: HistoryStore) -> str:
    """The queryable trajectory view ``repro-perf history`` prints."""
    runs = store.runs()
    if not runs:
        return f"no recorded runs under {store.root}"
    lines = [
        f"{'seq':>4} {'run id':<16} {'benchmark':<14} {'quick':<5} "
        f"{'git':<9} {'workload':<16} {'machine':<16} summary",
    ]
    for run in runs:
        sequence = int(run.get("history", {}).get("sequence", 0))
        git_sha = run.get("git_sha") or "-"
        lines.append(
            f"{sequence:>4} {str(run.get('run_id', '-')):<16} "
            f"{str(run.get('benchmark', '-')):<14} "
            f"{str(bool(run.get('quick'))):<5} "
            f"{str(git_sha)[:9]:<9} "
            f"{str(run.get('workload_fingerprint', '-')):<16} "
            f"{str(run.get('machine_fingerprint', '-')):<16} "
            f"{_headline(run)}"
        )
    return "\n".join(lines)
