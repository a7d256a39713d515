"""The benchmark matrix runner: backends × jobs × workload profiles.

``repro-perf run`` sweeps every requested cell and emits one
``BENCH_matrix.json`` under the unified envelope
(:mod:`repro.perf.schema`).  Each cell records two metric families:

* ``work`` — deterministic work counts (candidates checked, extensions,
  modelled cycles, per-stage cascade counters, kernel dedupe lanes) from
  the backend's own hardware counters
  (:func:`repro.pipeline.counters.collect_counters`, the cascade report
  and :class:`~repro.pipeline.bitvector.BitvectorKernelStats`).  With a
  fixed workload these are byte-identical across re-runs and machines —
  the hard CI gating signal.
* ``wall`` — elapsed seconds and reads/s.  Machine- and noise-dependent;
  gated only in the nightly wall-clock mode, inside a tolerance band.

The runner writes exclusively under a ``results/bench/`` directory
(:func:`repro.perf.schema.ensure_bench_out`) — machine-read JSON never
lands next to the paper-figure prose in ``results/paper/``.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.genome.reference import ReferenceGenome
from repro.perf.schema import bench_envelope, ensure_bench_out, write_bench
from repro.perf.workloads import Workload, get_workload, workload_names
from repro.pipeline.counters import collect_counters
from repro.pipeline.registry import backend_names, get_backend
from repro.telemetry import (
    monotonic_s,
    telemetry_session,
    write_chrome_trace,
)

__all__ = [
    "MATRIX_BENCHMARK",
    "MatrixSpec",
    "cell_key",
    "cell_work_metrics",
    "run_matrix",
]

#: The ``benchmark`` field every matrix envelope carries.
MATRIX_BENCHMARK = "perf_matrix"


@dataclass(frozen=True)
class MatrixSpec:
    """What to sweep: backends × jobs × profiles, at quick or full scale."""

    backends: Tuple[str, ...]
    jobs: Tuple[int, ...]
    profiles: Tuple[str, ...]
    quick: bool

    @classmethod
    def default(cls, quick: bool) -> "MatrixSpec":
        """Every registered backend and profile; jobs scaled to the mode."""
        return cls(
            backends=backend_names(),
            jobs=(1,) if quick else (1, 2, 4),
            profiles=workload_names(),
            quick=quick,
        )

    def validate(self) -> None:
        for name in self.backends:
            get_backend(name)  # raises on unknown names
        for name in self.profiles:
            get_workload(name)
        if not self.jobs or any(jobs < 1 for jobs in self.jobs):
            raise ValueError(f"jobs sweep must be >= 1, got {self.jobs}")


def _backend_config(backend: str, profile_name: str, jobs: int) -> Any:
    """The backend's default config pinned to the profile's operating point.

    Field names differ per backend (``edit_bound`` vs ``band``,
    ``segment_count`` only on genax); overrides apply only where the
    config dataclass has the field.  Every backend with a ``filters``
    field runs the one-stage ``("myers",)`` cascade, so candidate counts
    and the stage's rejects are part of the gated metric surface.  Myers
    is the only stage that pays: on repeat-rich input it rejects almost
    every decoy candidate for less than their extension costs, and the
    cheaper stages it replaced rejected nothing it did not.
    """
    profile = get_workload(profile_name)
    config = get_backend(backend).default_config()
    overrides: Dict[str, Any] = {
        "k": profile.kmer,
        "edit_bound": profile.edit_bound,
        "band": profile.edit_bound,
        "segment_count": profile.segment_count,
        "jobs": jobs,
        "filters": ("myers",),
    }
    names = {field.name for field in dataclasses.fields(config)}
    applicable = {
        name: value for name, value in overrides.items() if name in names
    }
    return dataclasses.replace(config, **applicable)


def cell_key(cell: Mapping[str, Any]) -> Tuple[str, int, str]:
    """The identity of one matrix cell: (backend, jobs, profile)."""
    return (str(cell["backend"]), int(cell["jobs"]), str(cell["profile"]))


def cell_work_metrics(aligner: Any) -> Dict[str, int]:
    """Every deterministic integer work counter the aligner exposes.

    Universal counters come from :func:`collect_counters` (lane/seeding
    groups degrade to zeros for backends that do not model them — the
    RuntimeWarning is suppressed here because zeros are expected, not
    surprising, in a cross-backend sweep).  Per-stage cascade counters
    and kernel dedupe lanes are added when the aligner exposes them.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        counters = collect_counters(aligner)
    metrics: Dict[str, int] = {
        name: value
        for name, value in counters.as_dict().items()
        if isinstance(value, int)
    }
    metrics["candidates_checked"] = (
        counters.candidates_filtered + counters.candidates_survived
    )
    cascade = getattr(aligner, "cascade", None)
    if cascade is not None:
        for stage_name, stage in cascade.report():
            prefix = f"filter_{stage_name}"
            metrics[f"{prefix}_checked"] = stage.checked
            metrics[f"{prefix}_rejected"] = stage.rejected
            metrics[f"{prefix}_false_accepts"] = stage.false_accepts
            metrics[f"{prefix}_cycles"] = stage.cycles
    kernel = getattr(aligner, "kernel_stats", None)
    if kernel is not None:
        metrics["kernel_batches"] = kernel.batches
        metrics["kernel_lanes"] = kernel.lanes
        metrics["kernel_lanes_scored"] = kernel.kernel_lanes
        metrics["kernel_windows_requested"] = kernel.windows_requested
        metrics["kernel_windows_fetched"] = kernel.windows_fetched
    return metrics


def _run_cell(
    reference: ReferenceGenome,
    reads: List[Tuple[str, str]],
    backend: str,
    jobs: int,
    profile: str,
) -> Dict[str, Any]:
    """Measure one cell: build, align, snapshot work + wall metrics."""
    config = _backend_config(backend, profile, jobs)
    aligner: Any
    if jobs > 1:
        from repro.parallel import ParallelAligner

        aligner = ParallelAligner(reference, config, jobs=jobs)
    else:
        aligner = get_backend(backend).build(reference, config, None)
    started = monotonic_s()
    aligner.align_batch(reads)
    elapsed = monotonic_s() - started
    return {
        "backend": backend,
        "jobs": jobs,
        "profile": profile,
        "work": cell_work_metrics(aligner),
        "wall": {
            "elapsed_s": elapsed,
            "reads_per_s": len(reads) / elapsed if elapsed > 0 else 0.0,
        },
    }


def _capture_trace(
    trace_out: Union[str, Path],
    reference: ReferenceGenome,
    reads: List[Tuple[str, str]],
    backend: str,
    profile: str,
) -> None:
    """One untimed instrumented serial pass -> Chrome trace JSON.

    Runs after the timed sweep so tracer overhead never skews recorded
    wall numbers; the artifact is the "after" side of the nightly
    ``repro-perf trace-diff`` report.
    """
    config = _backend_config(backend, profile, jobs=1)
    with telemetry_session() as telemetry:
        telemetry.stage_begin("perf_matrix_pass")
        get_backend(backend).build(reference, config, None).align_batch(reads)
        telemetry.stage_end("perf_matrix_pass")
    write_chrome_trace(trace_out, telemetry.tracer)


def run_matrix(
    spec: MatrixSpec,
    out: Optional[Union[str, Path]] = None,
    *,
    profile_overrides: Optional[Mapping[str, Mapping[str, Any]]] = None,
    trace_out: Optional[Union[str, Path]] = None,
    echo: bool = False,
) -> Dict[str, Any]:
    """Run the sweep; returns (and optionally writes) the envelope result.

    ``profile_overrides`` maps profile name -> builder parameter
    overrides (tests shrink workloads with it); overrides are part of
    the recorded workload parameters, so they change the workload
    fingerprint exactly as they should.
    """
    spec.validate()
    if out is not None:
        out = ensure_bench_out(out)

    workload_params: Dict[str, Dict[str, Any]] = {}
    built: Dict[str, Workload] = {}
    for profile_name in spec.profiles:
        profile = get_workload(profile_name)
        params = profile.params(spec.quick)
        if profile_overrides and profile_name in profile_overrides:
            params.update(profile_overrides[profile_name])
        built[profile_name] = profile.build(**params)
        workload_params[profile_name] = dict(
            params,
            kmer=profile.kmer,
            edit_bound=profile.edit_bound,
            segment_count=profile.segment_count,
        )

    cells: List[Dict[str, Any]] = []
    for profile_name in spec.profiles:
        reference, reads = built[profile_name]
        for backend in spec.backends:
            for jobs in spec.jobs:
                cell = _run_cell(reference, reads, backend, jobs, profile_name)
                cells.append(cell)
                if echo:
                    wall = cell["wall"]
                    work = cell["work"]
                    print(
                        f"{profile_name}/{backend}/jobs={jobs}: "
                        f"{wall['elapsed_s']:.2f}s "
                        f"({wall['reads_per_s']:.1f} reads/s), "
                        f"{work['candidates_checked']} candidates, "
                        f"{work['extensions']} extensions"
                    )

    if trace_out is not None:
        trace_backend = (
            "genax" if "genax" in spec.backends else spec.backends[0]
        )
        _capture_trace(
            trace_out, *built[spec.profiles[0]], trace_backend,
            spec.profiles[0],
        )
        if echo:
            print(f"trace -> {trace_out}")

    workload = {
        "backends": list(spec.backends),
        "jobs": list(spec.jobs),
        "profiles": workload_params,
    }
    result = bench_envelope(
        MATRIX_BENCHMARK,
        quick=spec.quick,
        workload=workload,
        payload={"cells": cells},
    )
    if out is not None:
        write_bench(out, result)
        if echo:
            print(f"wrote {out} (run {result['run_id']})")
    return result
