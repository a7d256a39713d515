"""Command-line interface: simulate, align, and inspect.

Installed as ``repro-genax``.  Subcommands:

* ``simulate`` — generate a synthetic reference (FASTA) and a read set
  (FASTQ) with ground truth in the read names.
* ``align`` — map a FASTQ against a FASTA with either pipeline
  (``genax`` or ``bwamem``) and write SAM.
* ``distance`` — edit distance of two strings via the Silla automaton.
* ``seeds`` — print the SMEM seeds of a read against a reference.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Any, List, Optional, Sequence, Tuple

from repro.align.records import ReadInput
from repro.core.silla import Silla
from repro.filters import filter_names, parse_cascade_spec
from repro.genome.fasta import read_fasta, read_fastq, write_fasta, write_fastq
from repro.genome.reads import ReadSimulator, build_profile_reads, profile_names
from repro.genome.reference import ReferenceGenome, make_reference
from repro.genome.variants import simulate_variants
from repro.pipeline.bitvector import BitvectorConfig
from repro.pipeline.bwamem import BwaMemConfig
from repro.pipeline.genax import GenAxConfig
from repro.pipeline.longread import LongReadConfig
from repro.pipeline.registry import backend_names, get_backend
from repro.pipeline.sam import write_sam
from repro.seeding.accelerator import SeedingAccelerator
from repro.seeding.smem import SmemConfig
from repro.telemetry import (
    PipelineTelemetry,
    RunManifest,
    monotonic_s,
    render_profile,
    telemetry_session,
    write_chrome_trace,
    write_manifest,
    write_metrics,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-genax",
        description="GenAx (ISCA 2018) reproduction: simulate and align reads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="generate a reference + reads")
    simulate.add_argument("--length", type=int, default=50_000, help="genome bp")
    simulate.add_argument("--reads", type=int, default=100)
    simulate.add_argument("--read-length", type=int, default=101)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--no-variants", action="store_true")
    simulate.add_argument(
        "--profile",
        choices=profile_names(),
        default="illumina",
        help="read profile from the registry; 'illumina' keeps the "
        "classic variant-aware simulator, other profiles use their "
        "registered builders (--read-length/--no-variants then ignored)",
    )
    simulate.add_argument("--out-reference", required=True)
    simulate.add_argument("--out-reads", required=True)

    align = sub.add_parser("align", help="map FASTQ reads onto a FASTA reference")
    align.add_argument("reference")
    align.add_argument("reads")
    align.add_argument("output", help="SAM output path")
    align.add_argument(
        "--pipeline",
        choices=backend_names(),
        default="genax",
        help="mapping backend, from the pipeline registry",
    )
    align.add_argument("--edit-bound", type=int, default=12)
    align.add_argument("--segments", type=int, default=4)
    align.add_argument("--kmer", type=int, default=12)
    align.add_argument("--min-score", type=int, default=30)
    align.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for any pipeline (1 = in-process serial)",
    )
    align.add_argument(
        "--paired",
        action="store_true",
        help="treat the FASTQ as interleaved FR mate pairs (/1 then /2) "
        "and rescue unmapped mates from their partner's insert window",
    )
    align.add_argument(
        "--insert-mean",
        type=int,
        default=350,
        help="paired-end library mean insert size (with --paired)",
    )
    align.add_argument(
        "--insert-slack",
        type=int,
        default=140,
        help="half-width of the rescue window around the mean insert "
        "(with --paired)",
    )
    align.add_argument(
        "--filters",
        default=None,
        metavar="SPEC",
        help="pre-alignment filter cascade of the genax and bwamem "
        "pipelines: registered filter names, comma-separated "
        f"({', '.join(filter_names())}), or 'none' (the default); the "
        "filter shares the pipeline's edit budget (bitvector always runs "
        "myers as its verifier; longread has no cascade)",
    )
    align.add_argument(
        "--cache-dir",
        default=None,
        help="directory for persisted index tables (skips the O(genome) rebuild)",
    )
    align.add_argument(
        "--profile",
        action="store_true",
        help="print a per-stage time/work table to stderr after the run",
    )
    align.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a Chrome trace-event JSON (loads in Perfetto) to PATH",
    )
    align.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write run metrics to PATH (.prom -> Prometheus text, else JSON)",
    )

    distance = sub.add_parser("distance", help="Silla edit distance of two strings")
    distance.add_argument("left")
    distance.add_argument("right")
    distance.add_argument("--k", type=int, default=8)

    sub.add_parser("evaluate", help="print the regenerated §VIII evaluation summary")

    seeds = sub.add_parser("seeds", help="SMEM seeds of a read")
    seeds.add_argument("reference")
    seeds.add_argument("read_sequence")
    seeds.add_argument("--kmer", type=int, default=12)
    seeds.add_argument("--segments", type=int, default=1)
    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    reference = make_reference(args.length, seed=args.seed)
    if args.profile == "illumina":
        # The classic path: variant-aware, byte-identical to the
        # pre-profile CLI for the same arguments.
        variants = None
        if not args.no_variants:
            variants = simulate_variants(
                reference.sequence, random.Random(args.seed + 1)
            )
        simulator = ReadSimulator(
            reference, variants, read_length=args.read_length, seed=args.seed + 2
        )
        simulated = simulator.simulate(args.reads)
    else:
        if args.read_length != 101 or args.no_variants:
            print(
                "warning: --read-length/--no-variants only apply to the "
                "illumina profile",
                file=sys.stderr,
            )
        simulated = build_profile_reads(
            args.profile, reference, args.reads, seed=args.seed + 2
        )
    write_fasta(args.out_reference, [(reference.name, reference.sequence)])
    # Encode ground truth into read names: name|pos|strand.
    from repro.genome.reads import Read

    reads = [
        Read(
            name=f"{s.name}|{s.true_position}|{'-' if s.reverse else '+'}",
            sequence=s.sequence,
            quality=s.read.quality,
        )
        for s in simulated
    ]
    write_fastq(args.out_reads, reads)
    print(
        f"wrote {len(reference):,} bp reference to {args.out_reference} and "
        f"{len(reads)} {args.profile} reads to {args.out_reads}"
    )
    return 0


def _load_reference(path: str) -> ReferenceGenome:
    records = read_fasta(path)
    if not records:
        raise SystemExit(f"no sequences in {path}")
    if len(records) > 1:
        print(f"warning: using first of {len(records)} sequences", file=sys.stderr)
    name, sequence = records[0]
    return ReferenceGenome(sequence=sequence, name=name)


def _cmd_align(args: argparse.Namespace) -> int:
    reference = _load_reference(args.reference)
    try:
        reads = read_fastq(args.reads)
    except ValueError as exc:
        raise SystemExit(f"error: {args.reads}: {exc}")
    if args.jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {args.jobs}")
    if args.paired:
        # Mate rescue mutates the serial driver's shared counters pair by
        # pair; the shard-parallel driver has no pair-aware merge yet.
        if args.jobs > 1:
            raise SystemExit("--paired requires --jobs 1 (serial mate rescue)")
        if len(reads) % 2:
            raise SystemExit(
                f"--paired needs an even read count (interleaved mates), "
                f"got {len(reads)}"
            )
    # The clock abstraction wraps time.perf_counter(), never time.time():
    # wall-clock time is not monotonic (NTP steps, DST) and must never
    # measure elapsed time.  genaxlint's wall-clock rule (GX102) cites
    # this site as the exemplar, and GX104 keeps even perf_counter()
    # calls confined to repro/telemetry/clock.py.
    started = monotonic_s()
    cascade_names: Optional[Tuple[str, ...]] = None
    if args.filters is not None:
        try:
            cascade_names = parse_cascade_spec(args.filters)
        except ValueError as exc:
            raise SystemExit(f"--filters: {exc}")
    if args.pipeline == "genax":
        config: object = GenAxConfig(
            k=args.kmer,
            edit_bound=args.edit_bound,
            segment_count=args.segments,
            min_score=args.min_score,
            filters=cascade_names,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
        )
    else:
        if args.cache_dir:
            print(
                "warning: --cache-dir only applies to the genax pipeline",
                file=sys.stderr,
            )
        if args.pipeline == "bitvector":
            if args.filters is not None:
                print(
                    "warning: --filters does not apply to the bitvector "
                    "pipeline (the myers stage is this pipeline's verifier)",
                    file=sys.stderr,
                )
            config = BitvectorConfig(
                k=args.kmer,
                edit_bound=args.edit_bound,
                min_score=args.min_score,
                jobs=args.jobs,
            )
        elif args.pipeline == "longread":
            if cascade_names:
                print(
                    "warning: --filters does not apply to the longread "
                    "pipeline (band and gate are derived per read)",
                    file=sys.stderr,
                )
            config = LongReadConfig(
                k=args.kmer,
                min_score=args.min_score,
                jobs=args.jobs,
            )
        else:
            config = BwaMemConfig(
                k=args.kmer,
                band=args.edit_bound,
                min_score=args.min_score,
                filters=cascade_names,
                jobs=args.jobs,
            )
    telemetry_on = bool(args.profile or args.trace_out or args.metrics_out)
    telemetry: Optional[PipelineTelemetry] = None
    if telemetry_on:
        with telemetry_session() as telemetry:
            # The root span; worker/driver spans nest underneath it.
            telemetry.stage_begin("align_run")
            aligner, mapped = _run_alignment(args, reference, config, reads)
            telemetry.stage_end("align_run")
    else:
        aligner, mapped = _run_alignment(args, reference, config, reads)
    pair_stats = None
    if args.paired:
        mapped, pair_stats = _resolve_read_pairs(args, reference, aligner, mapped, reads)
    elapsed = monotonic_s() - started
    write_sam(args.output, reference, mapped, reads)
    stats = aligner.stats
    suffix = f" with {args.jobs} job(s)"
    if pair_stats is not None:
        suffix += (
            f", {pair_stats.rescued}/{pair_stats.rescue_attempts} mates "
            f"rescued, {pair_stats.proper_pairs}/{pair_stats.pairs_total} "
            "pairs proper"
        )
    if cascade_names or args.pipeline == "bitvector":
        checked = stats.candidates_filtered + stats.candidates_survived
        suffix += f", filters rejected {stats.candidates_filtered}/{checked}"
    print(
        f"{args.pipeline}: mapped {stats.reads_mapped}/{stats.reads_total} reads "
        f"({stats.reads_exact} exact) in {elapsed:.1f}s"
        f"{suffix} -> {args.output}"
    )
    if telemetry is not None:
        _export_telemetry(args, telemetry, aligner, config, elapsed, pair_stats)
    return 0


def _resolve_read_pairs(
    args: argparse.Namespace,
    reference: ReferenceGenome,
    aligner: Any,
    mapped: List[Any],
    reads: Sequence[Any],
) -> Tuple[List[Any], Any]:
    """Pair consecutive mates, rescuing unmapped ones from insert windows.

    The single-end mapping order is preserved: entry ``2i`` / ``2i + 1``
    of the returned list is pair *i*'s first / second mate, possibly
    replaced by a rescued placement (marked with the rescue MAPQ).
    """
    from repro.pipeline.pairs import PairRescuer, resolve_pair

    rescuer = PairRescuer(
        reference.sequence,
        insert_mean=args.insert_mean,
        insert_slack=args.insert_slack,
        min_score=args.min_score,
    )
    resolved: List[Any] = []
    for index in range(0, len(mapped), 2):
        first_read, second_read = reads[index], reads[index + 1]
        pairing = resolve_pair(
            mapped[index],
            mapped[index + 1],
            first_read.sequence,
            second_read.sequence,
            rescuer,
            aligner.stats,
        )
        resolved.extend((pairing.first, pairing.second))
    return resolved, rescuer.stats


def _run_alignment(
    args: argparse.Namespace,
    reference: ReferenceGenome,
    config: object,
    reads: Sequence[ReadInput],
) -> Tuple[Any, List[Any]]:
    """Run the mapping; returns ``(aligner, mapped)``.

    Every registered backend shards through the same parallel driver;
    jobs == 1 builds the serial aligner straight from the registry.
    """
    if args.jobs > 1:
        from repro.parallel import ParallelAligner

        parallel = ParallelAligner(reference, config, backend=args.pipeline)
        return parallel, parallel.align_batch(reads)
    serial = get_backend(args.pipeline).build(reference, config, None)
    return serial, serial.align_batch(reads)


def _export_telemetry(
    args: argparse.Namespace,
    telemetry: PipelineTelemetry,
    aligner: Any,
    config: object,
    elapsed: float,
    pair_stats: Any = None,
) -> None:
    """Publish backend counters and write the requested telemetry artifacts."""
    from repro.pipeline.counters import (
        collect_counters,
        publish_cascade,
        publish_counters,
        publish_kernel,
        publish_pairs,
    )

    counters = collect_counters(aligner)
    publish_counters(telemetry.metrics, counters, args.pipeline)
    publish_cascade(
        telemetry.metrics, getattr(aligner, "cascade", None), args.pipeline
    )
    publish_kernel(
        telemetry.metrics, getattr(aligner, "kernel_stats", None),
        args.pipeline,
    )
    publish_pairs(telemetry.metrics, pair_stats, args.pipeline)
    if args.profile:
        print(render_profile(telemetry.metrics, elapsed), file=sys.stderr)
    if args.trace_out:
        write_chrome_trace(args.trace_out, telemetry.tracer)
        print(f"trace -> {args.trace_out}", file=sys.stderr)
    if args.metrics_out:
        write_metrics(args.metrics_out, telemetry.metrics)
        print(f"metrics -> {args.metrics_out}", file=sys.stderr)
    manifest = RunManifest.for_run(
        command=["repro-genax"] + list(getattr(args, "_argv", [])),
        backend=args.pipeline,
        config=config,
    )
    manifest.wall_seconds = elapsed
    manifest.reads_total = counters.reads_total
    manifest_path = f"{args.output}.manifest.json"
    write_manifest(manifest_path, manifest)
    print(f"manifest -> {manifest_path}", file=sys.stderr)


def _cmd_distance(args: argparse.Namespace) -> int:
    silla = Silla(args.k)
    distance = silla.distance(args.left.upper(), args.right.upper())
    if distance is None:
        print(f"> {args.k}")
        return 1
    print(distance)
    return 0


def _cmd_seeds(args: argparse.Namespace) -> int:
    reference = _load_reference(args.reference)
    accel = SeedingAccelerator(
        reference, SmemConfig(k=args.kmer), segment_count=args.segments
    )
    seeds = accel.seed_read(args.read_sequence.upper())
    for seed in seeds:
        positions = ",".join(str(p) for p in seed.positions[:8])
        suffix = "..." if len(seed.positions) > 8 else ""
        print(
            f"offset={seed.read_offset} length={seed.length} "
            f"hits={len(seed.positions)} positions={positions}{suffix}"
        )
    if not seeds:
        print("no seeds")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.report import evaluation_report

    print(evaluation_report())
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "align": _cmd_align,
    "distance": _cmd_distance,
    "seeds": _cmd_seeds,
    "evaluate": _cmd_evaluate,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    # Keep the raw invocation around for the run manifest (observability).
    args._argv = list(argv) if argv is not None else list(sys.argv[1:])
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
