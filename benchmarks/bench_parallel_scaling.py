"""Parallel batch-alignment scaling sweep -> ``BENCH_parallel.json``.

Not a paper figure: this is the perf trajectory for the repo's own
parallel subsystem (:mod:`repro.parallel`).  On the ``bench_scale.py``
workload (200 kbp genome with planted repeats, 120 x 101 bp reads) it
measures, end to end:

* **index cache** — cold table build vs. warm :class:`IndexCache` load;
* **prefilter** — serial throughput with the one-stage Myers cascade
  (``filters=("myers",)``) off vs. on, plus the reject rate;
* **sharded scaling** — ``ParallelAligner`` reads/s at each worker count,
  with every sharded run checked bit-identical to the serial
  ``GenAxAligner.align_batch`` mappings;
* **dispatch** — the bitvector backend with one read per extension
  dispatch (one ``align_batch`` call per read) vs. one cross-read
  dispatch per batch (one ``align_batch`` call), with the cross-read
  run checked bit-identical to the per-read one (``mappings_changed``
  must be 0) and the window-dedupe counters recorded;
* **combined** — best configuration (max jobs + prefilter + warm cache).

The ``acceptance`` block enforces the concordance bar: every sharded run
identical to serial, and 0 mappings changed by the prefilter and by
cross-read dispatch.  The exit status is non-zero when it fails.

Results land in ``benchmarks/results/bench/BENCH_parallel.json`` in the
unified bench envelope (:mod:`repro.perf.schema`, ``schema_version`` 3:
machine fingerprint, workload fingerprint, content-addressed run id; the
bench-specific body lives under ``payload``) so future PRs can regress
against them (load them with :func:`repro.perf.schema.load_bench`).
Wall-clock numbers are machine-dependent — ``machine.cpu_count`` is
recorded so a single-core CI runner's flat scaling curve is
interpretable.

Run directly (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py [--quick]

``--quick`` shrinks the workload (50 kbp / 30 reads, jobs 1-2) for CI
smoke runs; the JSON schema is identical.
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.genome.reference import ReferenceGenome
from repro.parallel import IndexCache, ParallelAligner
from repro.perf.schema import BENCH_SCHEMA_VERSION, bench_envelope, write_bench
from repro.perf.workloads import build_illumina_workload
from repro.pipeline.bitvector import BitvectorAligner, BitvectorConfig
from repro.pipeline.genax import GenAxAligner, GenAxConfig
from repro.seeding.accelerator import SeedingAccelerator
from repro.telemetry import (
    monotonic_s,
    telemetry_session,
    write_chrome_trace,
    write_metrics,
)

BENCHMARK = "bench_parallel_scaling"
DEFAULT_OUT = (
    Path(__file__).parent / "results" / "bench" / "BENCH_parallel.json"
)

FULL = dict(genome_bp=200_000, reads=120, jobs=(1, 2, 4), segment_count=8)
QUICK = dict(genome_bp=50_000, reads=30, jobs=(1, 2), segment_count=4)
READ_LENGTH = 101
EDIT_BOUND = 12
KMER = 12

# Envelope keys every migrated BENCH file must carry (repro.perf.schema).
ENVELOPE_KEYS = (
    "schema_version", "benchmark", "quick", "machine", "workload",
    "payload", "machine_fingerprint", "workload_fingerprint", "run_id",
)

# Required payload structure: key -> required sub-keys (None = scalar).
# ``machine`` and ``workload`` live on the envelope, the rest under
# ``payload``; :func:`validate_result` checks each where it lives.
RESULT_SCHEMA: Dict[str, Optional[Sequence[str]]] = {
    "machine": ("cpu_count", "start_method"),
    "workload": ("genome_bp", "reads", "read_length", "segment_count",
                 "edit_bound", "kmer"),
    "index_cache": ("cold_build_s", "warm_load_s", "speedup"),
    "prefilter": ("candidates_checked", "candidates_rejected", "reject_rate",
                  "serial_off_s", "serial_on_s", "speedup"),
    "serial": ("elapsed_s", "reads_per_s"),
    "scaling": ("jobs", "elapsed_s", "reads_per_s", "identical_to_serial"),
    "dispatch": ("dispatch", "elapsed_s", "reads_per_s", "speedup_vs_serial",
                 "mappings_changed"),
    "speedup_max_jobs_vs_1": None,
    "combined": ("jobs", "prefilter", "elapsed_s", "reads_per_s",
                 "speedup_vs_serial"),
    "acceptance": ("scaling_identical", "prefilter_mappings_changed",
                   "dispatch_mappings_changed", "passed"),
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
    scope["machine"] = data.get("machine", {})
    scope["workload"] = data.get("workload", {})
    for key, subkeys in RESULT_SCHEMA.items():
        if key not in scope:
            problems.append(f"missing key {key!r}")
            continue
        if subkeys is None:
            continue
        value = scope[key]
        entries = value if isinstance(value, list) else [value]
        if not entries:
            problems.append(f"{key!r} is empty")
        for entry in entries:
            if not isinstance(entry, dict):
                problems.append(f"{key!r} entry is not an object: {entry!r}")
                continue
            for subkey in subkeys:
                if subkey not in entry:
                    problems.append(f"{key!r} entry missing {subkey!r}")
    return problems


def build_workload(
    genome_bp: int, read_count: int
) -> Tuple[ReferenceGenome, List[Tuple[str, str]]]:
    """The bench_scale.py workload: planted repeats, variants, 1-3% error.

    Delegates to the registered generator in
    :mod:`repro.perf.workloads` (the ``illumina-small`` profile), so the
    matrix runner and this bench build byte-identical inputs.
    """
    return build_illumina_workload(
        genome_bp=genome_bp, reads=read_count, read_length=READ_LENGTH
    )


def mapping_key(mapped) -> List[Tuple[int, bool, int, str]]:
    return [(m.position, m.reverse, m.score, str(m.cigar)) for m in mapped]


def measure_index_cache(
    reference: ReferenceGenome, config: GenAxConfig, cache_dir: str
) -> dict:
    """Cold build (populates the cache) vs. warm load of the same entry."""
    overlap = SeedingAccelerator.SEGMENT_OVERLAP
    cold = IndexCache(cache_dir)
    started = monotonic_s()
    cold.load_or_build(reference, config.k, config.segment_count, overlap)
    cold_s = monotonic_s() - started
    assert cold.stats.misses == 1, "expected a cold cache"

    warm = IndexCache(cache_dir)
    started = monotonic_s()
    warm.load_or_build(reference, config.k, config.segment_count, overlap)
    warm_s = monotonic_s() - started
    assert warm.stats.hits == 1, "expected a warm cache"
    return {
        "cold_build_s": cold_s,
        "warm_load_s": warm_s,
        "speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
    }


def timed_align(aligner, reads, per_read: bool = False) -> Tuple[float, list]:
    started = monotonic_s()
    if per_read:
        mapped = [aligner.align_batch([read])[0] for read in reads]
    else:
        mapped = aligner.align_batch(reads)
    elapsed = monotonic_s() - started
    return elapsed, mapped


def measure_dispatch(
    reference: ReferenceGenome, reads, serial_s: float
) -> List[dict]:
    """Sweep the bitvector backend's extension dispatch: one read per
    ``extend_batch`` call (one ``align_batch`` call per read) vs. every
    read's candidates in one call (one ``align_batch`` call).  The
    per-read run is the concordance baseline: cross-read dispatch must
    reproduce its mappings bit-for-bit (``mappings_changed`` is the
    count of rows that differ, and the acceptance bar is 0)."""
    results: List[dict] = []
    baseline_key: Optional[list] = None
    for dispatch in ("per_read", "cross_read"):
        aligner = BitvectorAligner(
            reference, BitvectorConfig(k=KMER, edit_bound=EDIT_BOUND)
        )
        elapsed, mapped = timed_align(
            aligner, reads, per_read=dispatch == "per_read"
        )
        key = mapping_key(mapped)
        if baseline_key is None:
            baseline_key = key
        entry = {
            "dispatch": dispatch,
            "elapsed_s": elapsed,
            "reads_per_s": len(reads) / elapsed,
            "speedup_vs_serial": serial_s / elapsed if elapsed > 0 else
            float("inf"),
            "mappings_changed": sum(
                1 for a, b in zip(baseline_key, key) if a != b
            ),
        }
        kstats = aligner.kernel_stats
        entry["dedupe"] = {
            "windows_requested": kstats.windows_requested,
            "windows_fetched": kstats.windows_fetched,
            "window_dedupe_rate": kstats.window_dedupe_rate,
            "lanes": kstats.lanes,
            "kernel_lanes": kstats.kernel_lanes,
            "max_batch_lanes": kstats.max_batch_lanes,
        }
        results.append(entry)
        print(f"dispatch={dispatch}: {elapsed:.2f}s "
              f"({entry['reads_per_s']:.1f} reads/s, "
              f"{entry['speedup_vs_serial']:.2f}x serial), "
              f"{entry['mappings_changed']} mappings changed, "
              f"dedupe {kstats.windows_fetched}/{kstats.windows_requested} "
              f"windows fetched")
    return results


def capture_telemetry(
    reference: ReferenceGenome,
    config: GenAxConfig,
    reads,
    out: Path,
) -> dict:
    """One instrumented serial pass -> trace + metrics next to ``--out``.

    Runs *after* every timed measurement so tracer/histogram overhead can
    never skew the recorded wall-clock numbers; the artifacts give each
    benchmark run a stage-level breakdown (Perfetto-loadable trace plus
    the metric registry) alongside the scalar JSON.
    """
    trace_path = out.with_suffix(".trace.json")
    metrics_path = out.with_suffix(".metrics.json")
    with telemetry_session() as telemetry:
        telemetry.stage_begin("bench_serial_pass")
        GenAxAligner(reference, config).align_batch(reads)
        telemetry.stage_end("bench_serial_pass")
    out.parent.mkdir(parents=True, exist_ok=True)
    write_chrome_trace(trace_path, telemetry.tracer)
    write_metrics(metrics_path, telemetry.metrics)
    return {"trace": str(trace_path), "metrics": str(metrics_path)}


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small workload for CI smoke runs")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    shape = QUICK if args.quick else FULL
    print(f"workload: {shape['genome_bp']:,} bp, {shape['reads']} reads "
          f"x {READ_LENGTH} bp, segments={shape['segment_count']}")
    reference, reads = build_workload(shape["genome_bp"], shape["reads"])

    def config(**overrides) -> GenAxConfig:
        base = dict(
            edit_bound=EDIT_BOUND, k=KMER, segment_count=shape["segment_count"]
        )
        base.update(overrides)
        return GenAxConfig(**base)

    with tempfile.TemporaryDirectory(prefix="genax-cache-") as cache_dir:
        print("index cache: cold build vs warm load ...")
        cache = measure_index_cache(reference, config(), cache_dir)
        print(f"  cold {cache['cold_build_s']:.3f}s, warm "
              f"{cache['warm_load_s']:.3f}s -> {cache['speedup']:.1f}x")

        # Serial baseline (prefilter off) — the concordance reference.
        serial_aligner = GenAxAligner(reference, config(cache_dir=cache_dir))
        serial_s, serial_mapped = timed_align(serial_aligner, reads)
        serial_key = mapping_key(serial_mapped)
        serial = {"elapsed_s": serial_s, "reads_per_s": len(reads) / serial_s}
        print(f"serial: {serial_s:.2f}s ({serial['reads_per_s']:.1f} reads/s)")

        # Prefilter on, still serial: algorithmic win + reject rate.
        pf_aligner = GenAxAligner(
            reference, config(filters=("myers",), cache_dir=cache_dir)
        )
        pf_s, pf_mapped = timed_align(pf_aligner, reads)
        checked = (pf_aligner.stats.candidates_filtered
                   + pf_aligner.stats.candidates_survived)
        prefilter = {
            "candidates_checked": checked,
            "candidates_rejected": pf_aligner.stats.candidates_filtered,
            "reject_rate": (pf_aligner.stats.candidates_filtered / checked
                            if checked else 0.0),
            "serial_off_s": serial_s,
            "serial_on_s": pf_s,
            "speedup": serial_s / pf_s if pf_s > 0 else float("inf"),
            "mappings_changed": sum(
                1 for a, b in zip(serial_key, mapping_key(pf_mapped)) if a != b
            ),
        }
        print(f"prefilter: rejected {prefilter['candidates_rejected']}/"
              f"{checked} ({prefilter['reject_rate']:.0%}), "
              f"{pf_s:.2f}s -> {prefilter['speedup']:.2f}x serial, "
              f"{prefilter['mappings_changed']} mappings changed")

        # Sharded sweep (prefilter off, like-for-like vs the serial baseline).
        scaling = []
        for jobs in shape["jobs"]:
            aligner = ParallelAligner(
                reference, config(cache_dir=cache_dir), jobs=jobs
            )
            elapsed, mapped = timed_align(aligner, reads)
            identical = mapping_key(mapped) == serial_key
            scaling.append({
                "jobs": jobs,
                "elapsed_s": elapsed,
                "reads_per_s": len(reads) / elapsed,
                "identical_to_serial": identical,
            })
            print(f"jobs={jobs}: {elapsed:.2f}s "
                  f"({scaling[-1]['reads_per_s']:.1f} reads/s), "
                  f"identical={identical}")

        # Dispatch sweep: one read vs every read per bitvector dispatch.
        dispatch = measure_dispatch(reference, reads, serial_s)

        # Best configuration: max jobs + prefilter + warm cache.
        best_jobs = max(shape["jobs"])
        combined_aligner = ParallelAligner(
            reference,
            config(filters=("myers",), cache_dir=cache_dir),
            jobs=best_jobs,
        )
        combined_s, _ = timed_align(combined_aligner, reads)
        combined = {
            "jobs": best_jobs,
            "prefilter": True,
            "elapsed_s": combined_s,
            "reads_per_s": len(reads) / combined_s,
            "speedup_vs_serial": serial_s / combined_s,
        }
        print(f"combined (jobs={best_jobs}, prefilter, warm cache): "
              f"{combined_s:.2f}s -> {combined['speedup_vs_serial']:.2f}x serial")

        # Untimed instrumented pass: stage trace + metric artifacts.
        telemetry_paths = capture_telemetry(
            reference, config(cache_dir=cache_dir), reads, args.out
        )
        print(f"telemetry: {telemetry_paths['trace']}, "
              f"{telemetry_paths['metrics']}")

    acceptance = {
        "scaling_identical": all(
            entry["identical_to_serial"] for entry in scaling
        ),
        "prefilter_mappings_changed": prefilter["mappings_changed"],
        "dispatch_mappings_changed": sum(
            entry["mappings_changed"] for entry in dispatch
        ),
    }
    acceptance["passed"] = (
        acceptance["scaling_identical"]
        and acceptance["prefilter_mappings_changed"] == 0
        and acceptance["dispatch_mappings_changed"] == 0
    )
    print(f"acceptance: sharded identical={acceptance['scaling_identical']}, "
          f"{acceptance['prefilter_mappings_changed']} prefilter and "
          f"{acceptance['dispatch_mappings_changed']} dispatch mappings "
          f"changed -> {'PASS' if acceptance['passed'] else 'FAIL'}")

    result = bench_envelope(
        BENCHMARK,
        quick=args.quick,
        workload={
            "genome_bp": shape["genome_bp"],
            "reads": len(reads),
            "read_length": READ_LENGTH,
            "segment_count": shape["segment_count"],
            "edit_bound": EDIT_BOUND,
            "kmer": KMER,
        },
        payload={
            "index_cache": cache,
            "prefilter": prefilter,
            "serial": serial,
            "scaling": scaling,
            "dispatch": dispatch,
            "speedup_max_jobs_vs_1": (
                scaling[-1]["reads_per_s"] / scaling[0]["reads_per_s"]
            ),
            "combined": combined,
            "acceptance": acceptance,
            # Optional key (not in RESULT_SCHEMA): older files stay valid.
            "telemetry": telemetry_paths,
        },
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
