"""Closed-loop workload runs and the metrics computed from them.

One caller feeds a workload's reads through ``align_batch`` in
fixed-size batches, each batch waiting for the previous one.  The
untraced run first maps a fixed check set with a second aligner (the
warm-up, and the reference for the accuracy and determinism checks),
then measures the end-to-end metrics in a timed loop that starts with
the same reads.  The traced run maps a fixed read set twice, untraced
and then under :func:`mapbench.layers.instrument`, and derives the
per-layer metrics from the second pass.

Machine speed.  On a shared machine the speed at which this process
executes Python swings by tens of percent over tens of seconds, with the
load of its neighbours.  The timed loops therefore run a fixed reference
loop (:func:`calibration_seconds`) before the first batch and after every
batch, and rescale each batch's time to the machine speed at which the
reference loop takes :data:`REFERENCE_SECONDS`.  The reference loop is
part of the benchmark, not of the program, so a change to the program
moves the rescaled times exactly as it moves the raw ones; only the
machine's drift is divided out.  Raw wall-clock figures are printed too.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.align.records import MappedRead
from repro.model import constants
from repro.model.throughput import (
    GenAxThroughputModel,
    GenAxWorkload,
    SillaXCycleModel,
)
from repro.pipeline.registry import BackendSpec, get_backend

from mapbench.layers import LayerTrace, instrument
from mapbench.workloads import MIN_CORRECT_FRAC, Inputs, Truth, Workload

#: Set-ups per run; ``setup_s`` is their median.  One set-up takes about
#: 0.1 s and its time swings with allocator and page-fault luck, so the
#: median needs many of them to repeat from run to run.
SETUP_REPEATS = 25
#: Iterations of the reference loop, and the time it takes at the
#: reference machine speed (an unloaded 2.1 GHz Xeon vCPU, CPython 3).
REFERENCE_ITERATIONS = 50_000
REFERENCE_SECONDS = 0.009

#: A mapping outcome as compared between runs: the record, or the
#: exception type that failed its batch.
Outcome = Tuple[Any, ...]


class NondeterminismError(RuntimeError):
    """Two runs of the same seed mapped the same reads differently."""


def _reference_loop(iterations: int) -> int:
    counts: Dict[str, int] = {}
    total = 0
    text = "ACGT" * 64
    for i in range(iterations):
        base = text[i & 255]
        counts[base] = counts.get(base, 0) + (i * 7) % 13
        total += len(counts) ^ i
    return total


def calibration_seconds() -> float:
    """Seconds the reference loop takes now (best of two runs)."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        _reference_loop(REFERENCE_ITERATIONS)
        best = min(best, time.perf_counter() - start)
    return best


@dataclass
class LoopResult:
    """What one closed-loop pass produced."""

    read_indices: List[int] = field(default_factory=list)  # into the pool
    mapped: List[Optional[MappedRead]] = field(default_factory=list)
    failed: int = 0
    failure_types: Counter[str] = field(default_factory=Counter)
    first_failure: str = ""  # traceback of the first failed batch
    seconds: float = 0.0  # wall time inside align_batch calls
    batch_seconds: List[float] = field(default_factory=list)
    # Reference-loop seconds before the first batch and after each batch.
    calibration: List[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.mapped)

    @property
    def reference_seconds(self) -> float:
        """Mapping time rescaled to the reference machine speed.

        Each batch's time is scaled by the reference loop's speed measured
        just before and just after it.
        """
        cal = self.calibration
        return sum(
            seconds * REFERENCE_SECONDS / ((cal[i] + cal[i + 1]) / 2)
            for i, seconds in enumerate(self.batch_seconds)
        )

    def outcomes(self) -> List[Outcome]:
        return [outcome(record) for record in self.mapped]


def outcome(record: Optional[MappedRead]) -> Outcome:
    """A comparable summary of one read's mapping (``None``: failed)."""
    if record is None:
        return ("failed",)
    return (
        record.read_name,
        record.position,
        record.reverse,
        record.score,
        str(record.cigar),
        record.mapping_quality,
        record.secondary_count,
    )


def run_closed_loop(
    aligner: Any,
    reads: Sequence[Tuple[str, str]],
    batch_size: int,
    seconds: Optional[float] = None,
    limit: Optional[int] = None,
    min_reads: int = 0,
    clock: Callable[[], float] = time.perf_counter,
    calibrate: Callable[[], float] = calibration_seconds,
) -> LoopResult:
    """Map batches one after another until *seconds* or *limit* is reached.

    A time-bounded loop maps at least *min_reads* reads, however long
    they take.  The pool of *reads* is cycled if the loop outlasts it.  A
    batch whose ``align_batch`` call raises counts every read in it as
    failed, records the exception type and the loop goes on with the next
    batch.
    """
    if not reads:
        raise ValueError("a closed loop needs at least one read")
    result = LoopResult(calibration=[calibrate()])
    next_read = 0
    while True:
        if limit is not None and next_read >= limit:
            break
        if (
            seconds is not None
            and result.seconds >= seconds
            and next_read >= min_reads
        ):
            break
        size = batch_size if limit is None else min(batch_size, limit - next_read)
        indices = [(next_read + i) % len(reads) for i in range(size)]
        batch = [reads[i] for i in indices]
        next_read += size
        start = clock()
        try:
            mapped: List[Optional[MappedRead]] = list(aligner.align_batch(batch))
            elapsed = clock() - start
        except Exception as exc:  # the workload keeps running; see failures
            elapsed = clock() - start
            result.failed += size
            result.failure_types[type(exc).__name__] += 1
            if not result.first_failure:
                result.first_failure = traceback.format_exc()
            mapped = [None] * size
        result.seconds += elapsed
        result.batch_seconds.append(elapsed)
        result.calibration.append(calibrate())
        result.read_indices.extend(indices)
        result.mapped.extend(mapped)
    return result


# ------------------------------------------------------------------ set-up


@dataclass
class SetupResult:
    """Repeated set-up of one workload's aligner."""

    aligner: Any  # the last one built
    shared: Any  # the index tables it was built from
    index_s: List[float]
    build_s: List[float]


def set_up(
    spec: BackendSpec, inputs: Inputs, config: Any, repeats: int
) -> SetupResult:
    """Build the index and the aligner *repeats* times.

    Times are rescaled to the reference machine speed, like the mapping
    times, from the reference loop run before and after each set-up.
    """
    aligner: Any = None
    shared: Any = None
    index_s: List[float] = []
    build_s: List[float] = []
    before = calibration_seconds()
    for _ in range(repeats):
        # Free the previous set-up first, so that one index is alive at a
        # time and the peak memory stays the workload's own.
        aligner = shared = None
        gc.collect()
        start = time.perf_counter()
        shared = spec.prepare(inputs.reference, config)
        built = time.perf_counter()
        aligner = spec.build(inputs.reference, config, shared)
        done = time.perf_counter()
        after = calibration_seconds()
        scale = REFERENCE_SECONDS / ((before + after) / 2)
        index_s.append((built - start) * scale)
        build_s.append((done - built) * scale)
        before = after
    return SetupResult(aligner, shared, index_s, build_s)


# ---------------------------------------------------------------- accuracy


def is_correct(record: Optional[MappedRead], truth: Truth, tolerance: int) -> bool:
    """Mapped on the true strand within *tolerance* bp of the true start."""
    return (
        record is not None
        and not record.is_unmapped
        and record.reverse == truth.reverse
        and abs(record.position - truth.position) <= tolerance
    )


def accuracy(
    loop: LoopResult, truth: Sequence[Truth], tolerance: int
) -> Tuple[int, int]:
    """(mapped, correct) read counts of one pass, joined with the truth."""
    mapped = correct = 0
    for index, record in zip(loop.read_indices, loop.mapped):
        if record is None or record.is_unmapped:
            continue
        mapped += 1
        correct += is_correct(record, truth[index], tolerance)
    return mapped, correct


def check_same(first: Sequence[Outcome], second: Sequence[Outcome], what: str) -> None:
    """Raise :class:`NondeterminismError` unless the outcomes agree."""
    if len(first) != len(second):
        raise NondeterminismError(
            f"{what}: {len(first)} reads in one run and {len(second)} in the other"
        )
    for index, (one, other) in enumerate(zip(first, second)):
        if one != other:
            raise NondeterminismError(
                f"{what}: read {index} mapped as {one} in one run "
                f"and {other} in the other"
            )


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB (Linux reports KiB).

    ``run.py`` runs each workload in a process of its own, so this is the
    peak of one workload.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def modelled_kreads_per_s(aligner: Any) -> float:
    """The GenAx throughput model fed with this run's measured statistics.

    The same recipe as the Fig. 15a benchmark: exact-match fraction,
    extensions per inexact read, seeding lookups per read and the SillaX
    re-execution fraction, all measured from the simulated pipeline.
    """
    stats = aligner.stats
    lanes = aligner.lane_stats
    seeding = aligner.seeding_stats
    inexact = max(1, stats.reads_total - stats.reads_exact)
    model = GenAxThroughputModel(
        workload=GenAxWorkload(
            exact_fraction=stats.reads_exact / max(1, stats.reads_total),
            hits_per_nonexact_read=stats.extensions / inexact,
            seeding_lookups_per_read=seeding.cycles_per_read / 2.0,
        ),
        cycle_model=SillaXCycleModel(
            read_length=constants.READ_LENGTH_BP,
            edit_bound=constants.EDIT_DISTANCE_BOUND,
            rerun_fraction=lanes.rerun_fraction,
        ),
    )
    return model.kreads_per_second()


# ------------------------------------------------------------------- runs


@dataclass
class Metric:
    """One reported figure."""

    value: float
    unit: str


@dataclass
class RunReport:
    """Everything one workload run reports."""

    workload: str
    attempted: int
    failed: int
    correct: bool
    metrics: Dict[str, Metric]
    notes: List[str] = field(default_factory=list)
    layer_rows: List[Tuple[str, float, float, str]] = field(default_factory=list)


def run_untraced(workload: Workload, seed: int, seconds: float) -> RunReport:
    """The end-to-end run: set-up, check pass, timed closed loop.

    A second aligner first maps the workload's check set, its first
    ``check_reads`` reads; this is also the warm-up.  The timed loop
    starts with the same reads and must map them identically.  The
    accuracy fractions and the throughput model's inputs come from the
    check set, so they do not depend on how far the timed loop got.
    ``reads_per_s`` comes from the timed loop, at the reference machine
    speed (see the module docstring).
    """
    spec = get_backend(workload.backend)
    config = workload.config()
    inputs = workload.make_inputs(seed, workload.pool_reads)
    setup = set_up(spec, inputs, config, SETUP_REPEATS)
    checker = spec.build(inputs.reference, config, setup.shared)
    check = run_closed_loop(
        checker, inputs.reads, workload.batch_size, limit=workload.check_reads
    )
    modelled = (
        modelled_kreads_per_s(checker) if hasattr(checker, "lane_stats") else None
    )
    del checker
    loop = run_closed_loop(
        setup.aligner,
        inputs.reads,
        workload.batch_size,
        seconds=seconds,
        min_reads=workload.check_reads,
    )
    check_same(
        check.outcomes(), loop.outcomes()[: check.attempted], workload.name
    )

    mapped, correct = accuracy(check, inputs.truth, workload.tolerance)
    attempted = loop.attempted
    completed = attempted - loop.failed
    correct_frac = correct / check.attempted
    metrics = {
        "reads_per_s": Metric(completed / loop.reference_seconds, "1/s"),
        "setup_s": Metric(
            statistics.median(
                index + build for index, build in zip(setup.index_s, setup.build_s)
            ),
            "s",
        ),
        "peak_rss_mb": Metric(peak_rss_mb(), "MiB"),
        "reads_mapped_frac": Metric(mapped / check.attempted, "fraction"),
        "reads_correct_frac": Metric(correct_frac, "fraction"),
        "reads_failed_frac": Metric(loop.failed / attempted, "fraction"),
        "wall_reads_per_s": Metric(completed / loop.seconds, "1/s"),
    }
    if modelled is not None:
        metrics["sim_kreads_per_s"] = Metric(modelled, "kreads/s")
    speed = REFERENCE_SECONDS / statistics.median(loop.calibration)
    notes = [
        f"{attempted} reads in {loop.seconds:.2f} s of mapping, batches of "
        f"{workload.batch_size}; machine at {speed:.2f} x reference speed",
        f"accuracy and determinism: the first {check.attempted} reads, "
        "mapped identically by a second aligner before timing",
    ]
    if loop.failed:
        types = ", ".join(f"{name} x{n}" for name, n in loop.failure_types.items())
        notes.append(f"failed batches: {types}\n{loop.first_failure}")
    ok = loop.failed == 0 and correct_frac >= MIN_CORRECT_FRAC
    if correct_frac < MIN_CORRECT_FRAC:
        notes.append(
            f"reads_correct_frac {correct_frac:.4f} is below the workload's "
            f"floor {MIN_CORRECT_FRAC}"
        )
    return RunReport(workload.name, attempted, loop.failed, ok, metrics, notes)


def run_traced(workload: Workload, seed: int, seconds: float) -> RunReport:
    """The per-layer run: one fixed read set, untraced then traced.

    Both passes map the first ``trace_reads`` reads (fewer if the
    untraced pass hits half of *seconds* first), so the work counts repeat
    exactly for a seed and the overhead compares like with like.
    """
    spec = get_backend(workload.backend)
    config = workload.config()
    inputs = workload.make_inputs(seed, workload.trace_reads)
    setup = set_up(spec, inputs, config, SETUP_REPEATS)
    # Warm-up, so that neither pass pays the process's first-batch costs.
    run_closed_loop(
        spec.build(inputs.reference, config, setup.shared),
        inputs.reads,
        workload.batch_size,
        limit=workload.batch_size,
    )
    plain = run_closed_loop(
        setup.aligner,
        inputs.reads,
        workload.batch_size,
        seconds=seconds / 2,
        limit=workload.trace_reads,
    )
    trace, traced, aligner = traced_pass(
        spec, config, inputs, setup.shared, workload.batch_size, plain.attempted
    )
    check_same(plain.outcomes(), traced.outcomes(), f"{workload.name} traced")

    metrics, rows = layer_metrics(trace, traced, aligner, setup)
    metrics["trace.overhead_frac"] = Metric(
        traced.reference_seconds / plain.reference_seconds - 1.0, "fraction"
    )
    notes = [
        f"{traced.attempted} reads, mapped untraced then traced: "
        f"{plain.seconds:.2f} s and {traced.seconds:.2f} s of wall time",
    ]
    ok = traced.failed == 0 and plain.failed == 0
    return RunReport(
        workload.name, traced.attempted, traced.failed, ok, metrics, notes, rows
    )


def traced_pass(
    spec: BackendSpec,
    config: Any,
    inputs: Inputs,
    shared: Any,
    batch_size: int,
    limit: int,
) -> Tuple[LayerTrace, LoopResult, Any]:
    """Build an aligner under instrumentation and map the first *limit* reads."""
    trace = LayerTrace()
    with instrument(trace):
        aligner = spec.build(inputs.reference, config, shared)
        loop = run_closed_loop(aligner, inputs.reads, batch_size, limit=limit)
    return trace, loop, aligner


#: The top-level layers, in pipeline order.
TOP_LAYERS = ("seeding", "filters", "extend", "select", "driver")


def layer_busy(trace: LayerTrace) -> Dict[str, float]:
    """Busy seconds per top-level layer (``filters`` includes its stages)."""
    busy = {layer: 0.0 for layer in TOP_LAYERS}
    for layer, seconds in trace.busy.items():
        busy[layer.split(".")[0]] += seconds
    return busy


def layer_metrics(
    trace: LayerTrace, loop: LoopResult, aligner: Any, setup: SetupResult
) -> Tuple[Dict[str, Metric], List[Tuple[str, float, float, str]]]:
    """Per-layer metrics of a traced pass, plus rows for the layer table.

    A layer's metrics appear only when the workload's backend has that
    layer: no ``filters.*`` without a cascade, no ``sillax.*`` off the
    SillaX engine, no ``kernel.*`` off the batched bitvector kernel.
    """
    wall = loop.seconds
    reads = loop.attempted
    counts = trace.counts
    busy = layer_busy(trace)
    metrics: Dict[str, Metric] = {}
    rows: List[Tuple[str, float, float, str]] = []

    def layer(name: str, count_text: str) -> None:
        metrics[f"{name}.busy_s"] = Metric(busy[name], "s")
        if name != "driver":
            metrics[f"{name}.share"] = Metric(busy[name] / wall, "fraction")
        rows.append((name, busy[name], busy[name] / wall, count_text))

    seeds = counts["seeding.seeds"]
    metrics["seeding.seeds_per_read"] = Metric(seeds / reads, "count")
    seeding_text = f"{seeds} seeds"
    seeding_stats = getattr(aligner, "seeding_stats", None)
    if seeding_stats is not None:
        lookups = seeding_stats.finder.index_lookups
        metrics["seeding.index_lookups"] = Metric(lookups, "count")
        seeding_text += f", {lookups} index lookups"
    chain_stats = getattr(aligner, "chain_stats", None)
    if chain_stats is not None:
        metrics["seeding.chains"] = Metric(chain_stats.chains_emitted, "count")
        seeding_text += f", {chain_stats.chains_emitted} chains"
    layer("seeding", seeding_text)

    cascade = getattr(aligner, "cascade", None)
    if cascade is not None:
        # The cascade's own per-stage counts.  Its ``cycles`` counter is
        # left out: it charges every stage the window length.
        report = cascade.report()
        checked = report[0][1].checked  # every candidate meets stage one
        rejected = sum(stats.rejected for __, stats in report)
        metrics["filters.checked"] = Metric(checked, "count")
        metrics["filters.rejected_frac"] = Metric(
            rejected / checked if checked else 0.0, "fraction"
        )
        layer("filters", f"{checked} checked, {rejected} rejected")
        for stage, stats in report:
            key = f"filters.{stage}"
            stage_busy = trace.busy.get(key, 0.0)
            metrics[f"{key}.busy_s"] = Metric(stage_busy, "s")
            metrics[f"{key}.rejected"] = Metric(stats.rejected, "count")
            rows.append(
                (
                    f"  {key}",
                    stage_busy,
                    stage_busy / wall,
                    f"{stats.checked} checked, {stats.rejected} rejected",
                )
            )
        # The cascade's own bookkeeping, apart from its stages.
        own = trace.busy.get("filters", 0.0)
        rows.append(("  filters (cascade)", own, own / wall, ""))

    jobs = counts["extend.jobs"]
    accepted = counts["extend.accepted"]
    metrics["extend.jobs"] = Metric(jobs, "count")
    metrics["extend.accepted_frac"] = Metric(
        accepted / jobs if jobs else 0.0, "fraction"
    )
    metrics["extend.s_per_job"] = Metric(
        busy["extend"] / jobs if jobs else 0.0, "s"
    )
    layer("extend", f"{jobs} jobs in {counts['extend.calls']} calls, "
          f"{accepted} accepted")
    lane_stats = getattr(aligner, "lane_stats", None)
    if lane_stats is not None:
        metrics["sillax.cycles_per_read"] = Metric(lane_stats.cycles / reads, "count")
        metrics["sillax.rerun_frac"] = Metric(lane_stats.rerun_fraction, "fraction")
    kernel = getattr(aligner, "kernel_stats", None)
    if kernel is not None:
        metrics["kernel.lanes_scored"] = Metric(kernel.kernel_lanes, "count")
        metrics["kernel.dedupe_frac"] = Metric(
            1.0 - kernel.kernel_lanes / kernel.lanes if kernel.lanes else 0.0,
            "fraction",
        )
    if lane_stats is None:
        # SillaX charges cycles; the software engines charge DP cells.
        metrics["align.dp_cells"] = Metric(aligner.stats.dp_cells, "count")

    layer("select", "")
    layer("driver", "candidate enumeration, fast path, plan bookkeeping")
    metrics["driver.other_s"] = metrics.pop("driver.busy_s")
    unattributed = wall - sum(busy.values())
    rows.append(("(unattributed)", unattributed, unattributed / wall, ""))

    metrics["setup.index_s"] = Metric(statistics.median(setup.index_s), "s")
    metrics["setup.build_s"] = Metric(statistics.median(setup.build_s), "s")
    return metrics, rows
