"""The benchmark's workloads: seeded read sets with ground truth.

Each workload pairs one registered backend (:mod:`repro.pipeline.registry`)
with a read set drawn from the public simulators, so a workload name plus
a seed reproduces the inputs exactly.  Every read keeps its simulator
ground truth (true start, strand) for the accuracy join in
:mod:`mapbench.runner`.

The three workloads put different layers in front:

* ``short-genax`` — the paper's accelerator model on 101 bp Illumina
  reads; SillaX extension dominates.
* ``repeat-bitvector`` — the vectorized backend on a repeat-rich genome;
  thousands of decoy candidates make the filter cascade and seeding
  dominate, and SillaX never runs.
* ``long-nanopore`` — the long-read backend on ~2 kbp indel-heavy reads;
  the same ``align/`` kernels (Myers gate, banded DP) in a different
  shape: a few long candidates instead of many short ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.genome.long_reads import NanoporeSimulator
from repro.genome.reads import ErrorProfile, ReadSimulator, SimulatedRead
from repro.genome.reference import ReferenceGenome, make_reference
from repro.genome.variants import simulate_variants
from repro.perf.matrix import _backend_config
from repro.perf.workloads import build_repeat_rich_workload

_ACGT = frozenset("ACGT")

#: Below this share of reads mapped to their true locus a run is reported
#: incorrect; every workload clears it with a wide margin.
MIN_CORRECT_FRAC = 0.9


@dataclass(frozen=True)
class Truth:
    """Where the simulator drew a read from."""

    position: int  # reference coordinate of the read's first base
    reverse: bool


@dataclass
class Inputs:
    """One workload's generated inputs: reference plus reads with truth."""

    reference: ReferenceGenome
    reads: List[Tuple[str, str]]  # (name, sequence), what the aligner sees
    truth: List[Truth]  # truth[i] answers reads[i]


InputBuilder = Callable[[int, int], Inputs]  # (seed, read count) -> inputs


@dataclass(frozen=True)
class Workload:
    """One named workload: inputs, backend operating point, checks."""

    name: str
    backend: str  # registered backend name
    profile: str  # registered perf profile whose k / edit bound it runs
    make_inputs: InputBuilder
    batch_size: int  # reads per align_batch call
    pool_reads: int  # reads generated; the timed loop cycles through them
    check_reads: int  # fixed read set for accuracy and determinism
    trace_reads: int  # reads in the traced (per-layer) pass
    tolerance: int  # bp a mapping may sit from the true start

    def config(self) -> Any:
        """The config ``repro-perf`` runs this backend with on the profile.

        That is the default config at the profile's k / edit bound /
        segment count, serial, with the default filter cascade where the
        backend has a ``filters`` field (``longread`` has none).
        """
        return _backend_config(self.backend, self.profile, jobs=1)


def _sub_seeds(seed: int, count: int) -> List[int]:
    rng = random.Random(seed)
    return [rng.randrange(1 << 30) for _ in range(count)]


def _from_simulated(
    reference: ReferenceGenome, prefix: str, simulated: List[SimulatedRead]
) -> Inputs:
    reads: List[Tuple[str, str]] = []
    truth: List[Truth] = []
    for read in simulated:
        # Dirty reads (N bases) abort a whole batch today; they are left
        # out until the pipeline defines their behaviour.
        if not set(read.sequence) <= _ACGT:
            continue
        reads.append((f"{prefix}{len(reads)}", read.sequence))
        truth.append(Truth(read.true_position, read.reverse))
    return Inputs(reference, reads, truth)


def illumina_inputs(seed: int, count: int) -> Inputs:
    """101 bp reads at 1-3% error with planted variants, 200 kbp reference."""
    ref_seed, variant_seed, read_seed = _sub_seeds(seed, 3)
    reference = make_reference(200_000, seed=ref_seed)
    variants = simulate_variants(reference.sequence, random.Random(variant_seed))
    simulator = ReadSimulator(
        reference,
        variants,
        read_length=101,
        seed=read_seed,
        error_profile=ErrorProfile(rate_start=0.01, rate_end=0.03),
    )
    return _from_simulated(reference, "ill", simulator.simulate(count))


def repeat_inputs(seed: int, count: int) -> Inputs:
    """200 diverged copies of one unit, read with 10 substitutions each.

    ``build_repeat_rich_workload`` encodes the truth in each read name
    (``read<i>|<start>|+``);
    every read is forward-strand.
    """
    (build_seed,) = _sub_seeds(seed, 1)
    reference, named = build_repeat_rich_workload(
        repeat_copies=200, reads=count, seed=build_seed
    )
    reads: List[Tuple[str, str]] = []
    truth: List[Truth] = []
    for name, sequence in named:
        __, start, strand = name.split("|")
        reads.append((f"rep{len(reads)}", sequence))
        truth.append(Truth(int(start), strand == "-"))
    return Inputs(reference, reads, truth)


def nanopore_inputs(seed: int, count: int) -> Inputs:
    """2 kbp fragments at ~10% indel-dominated error, 120 kbp reference.

    Fragment length is fixed so per-read work varies only with the errors
    and the candidates, not with a drawn length.
    """
    ref_seed, read_seed = _sub_seeds(seed, 2)
    reference = make_reference(120_000, seed=ref_seed)
    simulator = NanoporeSimulator(
        reference,
        mean_length=2_000,
        min_length=2_000,
        max_length=2_000,
        seed=read_seed,
    )
    return _from_simulated(reference, "ont", simulator.simulate(count))


# Batch sizes come from a sweep of reads per ``align_batch`` call (1 to 64
# short, 16 to 1024 repeat, 1 to 16 long reads): each is the smallest size
# at which reads/s and the layer shares are flat to within about a point
# of the largest batch tried.  ``repro align`` maps a whole file in one
# call; at these sizes the per-read work is the same, and each call stays
# short against the timed run.
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="short-genax",
            backend="genax",
            profile="illumina-small",
            make_inputs=illumina_inputs,
            batch_size=16,
            pool_reads=1_200,
            check_reads=64,
            trace_reads=128,
            tolerance=25,
        ),
        Workload(
            name="repeat-bitvector",
            backend="bitvector",
            profile="repeat-rich",
            make_inputs=repeat_inputs,
            batch_size=64,
            pool_reads=12_000,
            check_reads=1_024,
            trace_reads=1_024,
            tolerance=25,
        ),
        Workload(
            name="long-nanopore",
            backend="longread",
            profile="nanopore-small",
            make_inputs=nanopore_inputs,
            batch_size=4,
            pool_reads=200,
            check_reads=12,
            trace_reads=24,
            tolerance=100,
        ),
    )
}
