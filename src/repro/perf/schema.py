"""The unified bench envelope: one schema for every ``BENCH_*.json``.

Before this module the repo's perf evidence was two ad-hoc files with
incompatible schemas (``bench_filters`` v1, ``bench_parallel_scaling``
v2) and no identity: nothing said which machine produced a number, which
commit it measured, or whether two files are comparable at all.  The
envelope fixes that:

* ``machine`` / ``machine_fingerprint`` — CPU count and model, NumPy and
  BLAS, the Python build, the multiprocessing start method.  Wall-clock
  numbers are only comparable between runs whose machine fingerprints
  match; the gate enforces exactly that for its wall-clock mode.
* ``workload_fingerprint`` — a stable hash over the benchmark name, the
  quick/full flag and the workload parameters.  Deterministic work-count
  metrics are comparable iff workload fingerprints match, machine
  notwithstanding — that is what lets a noisy shared CI runner gate on
  them.
* ``run_id`` — a content address (SHA-256 prefix) over everything except
  the volatile labels, so the history store is append-once and a gate
  diagnostic can name its baseline unambiguously.
* ``git_sha`` / ``git_dirty`` / ``recorded_utc`` — labels, via the same
  helpers the run manifests use (:mod:`repro.telemetry.manifest`).
  ``git_dirty`` is true when tracked files differ from ``git_sha``, so a
  run on an uncommitted tree is not mistaken for a run of that commit.
  Both describe the checkout this package was imported from, not the
  working directory, so a bench run against another checkout's ``src``
  carries that checkout's labels.

Every committed ``BENCH_*.json`` is an envelope, so :func:`load_bench`
accepts the envelope version only and names any other version it meets.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

import numpy

from repro.telemetry.clock import utc_now_iso
from repro.telemetry.manifest import config_fingerprint, git_commit, git_dirty

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "bench_envelope",
    "compute_run_id",
    "ensure_bench_out",
    "load_bench",
    "machine_info",
    "write_bench",
]

#: The unified envelope version (v1 and v2 were the pre-envelope files of
#: bench_filters and bench_parallel_scaling; none remains).
BENCH_SCHEMA_VERSION = 3

#: Envelope keys excluded from the content address: labels that may
#: differ between byte-identical measurements ("when was it recorded",
#: "was the tree committed" and the address itself).
_VOLATILE_KEYS = ("run_id", "recorded_utc", "git_dirty", "history")


def _cpu_model() -> str:
    """The CPU model string (``/proc/cpuinfo`` on Linux, else platform)."""
    cpuinfo = Path("/proc/cpuinfo")
    try:
        for line in cpuinfo.read_text().splitlines():
            if line.lower().startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def _blas_name() -> str:
    """Best-effort BLAS identification from NumPy's build config."""
    show_config = getattr(numpy, "show_config", None)
    if show_config is None:
        return "unknown"
    try:
        # NumPy's config API varies by version; mode="dicts" is >= 1.26.
        config = show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except Exception:
        return "unknown"


def machine_info() -> Dict[str, Any]:
    """Everything about this host a perf number depends on."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python_version": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "python_build": " ".join(platform.python_build()),
        "numpy_version": numpy.__version__,
        "blas": _blas_name(),
        "start_method": multiprocessing.get_start_method(),
    }


def compute_run_id(result: Mapping[str, Any]) -> str:
    """Content address of *result*, excluding the volatile label keys."""
    stable = {
        key: value
        for key, value in result.items()
        if key not in _VOLATILE_KEYS
    }
    return config_fingerprint(stable)


#: Where this package was imported from: the checkout the git labels name.
_SOURCE = Path(__file__).resolve().parent


def bench_envelope(
    benchmark: str,
    *,
    quick: bool,
    workload: Mapping[str, Any],
    payload: Mapping[str, Any],
) -> Dict[str, Any]:
    """Wrap one benchmark's *payload* in the unified envelope.

    ``workload`` is the parameter dict that makes work-count metrics
    comparable (it is hashed into ``workload_fingerprint``); ``payload``
    is the benchmark-specific body (what used to be the whole file).
    """
    result: Dict[str, Any] = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "benchmark": benchmark,
        "quick": bool(quick),
        "machine": machine_info(),
        "git_sha": git_commit(cwd=_SOURCE),
        "git_dirty": git_dirty(cwd=_SOURCE),
        "workload": dict(workload),
        "payload": dict(payload),
        "recorded_utc": utc_now_iso(),
    }
    result["machine_fingerprint"] = config_fingerprint(result["machine"])
    result["workload_fingerprint"] = config_fingerprint(
        {
            "benchmark": benchmark,
            "quick": bool(quick),
            "workload": result["workload"],
        }
    )
    result["run_id"] = compute_run_id(result)
    return result


def load_bench(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a ``BENCH_*.json`` envelope; any other version is an error."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: not a JSON object")
    version = data.get("schema_version")
    if version != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported bench schema_version {version!r} "
            f"(expected {BENCH_SCHEMA_VERSION})"
        )
    # Envelopes written before the label existed have no git_dirty.
    dirty = data.get("git_dirty")
    if dirty is not None and not isinstance(dirty, bool):
        raise ValueError(f"{path}: git_dirty must be true, false or null, got {dirty!r}")
    return data


def ensure_bench_out(path: Union[str, Path]) -> Path:
    """Refuse machine-read bench output outside a ``results/bench/`` dir.

    ``benchmarks/results/`` used to mix paper-figure ``.txt`` ablations
    with machine-read JSON; the split layout keeps trajectory tooling
    from ever globbing prose.  The matrix runner (and the migrated bench
    writers) route their output paths through this guard.
    """
    target = Path(path)
    parent = target.resolve().parent
    if parent.name != "bench" or parent.parent.name != "results":
        raise ValueError(
            f"bench output must live under a results/bench/ directory, "
            f"got {target} (resolved parent {parent})"
        )
    return target


def write_bench(path: Union[str, Path], result: Mapping[str, Any]) -> Path:
    """Write an envelope result as indented, key-sorted JSON."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(dict(result), indent=2, sort_keys=True) + "\n")
    return target
