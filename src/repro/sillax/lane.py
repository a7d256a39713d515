"""SillaX lane: the device-level unit GenAx instantiates four of (§VI).

A lane owns one traceback-capable SillaX engine, a slice of the reference
cache, and cycle/energy accounting.  The lane's job in GenAx is to *extend
seeds*: given a read and a hit position, fetch the reference window and run
the traceback machine, translating the result back to global coordinates.

The cycle model follows §IV: N stream cycles + ~K control cycles per phase
+ re-execution cycles when pointer trails break.  ``LaneStats`` aggregates
everything Fig. 13/14 need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.align.records import Alignment
from repro.align.scoring import BWA_MEM_SCHEME, ScoringScheme
from repro.genome.reference import ReferenceGenome
from repro.sillax.traceback_machine import TracebackMachine, TracebackResult


@dataclass
class LaneStats:
    """Aggregate counters for one lane (or a pool of lanes)."""

    extensions: int = 0
    cycles: int = 0
    stream_cycles: int = 0
    rerun_events: int = 0
    rerun_cycles: int = 0
    rerun_cycle_samples: List[int] = field(default_factory=list)

    def record(self, result: TracebackResult) -> None:
        """Charge one extension's cycles (and re-run, if its trail broke)."""
        self.extensions += 1
        self.cycles += result.total_cycles
        self.stream_cycles += result.stream_cycles
        if result.reran:
            self.rerun_events += 1
            self.rerun_cycles += result.rerun_cycles
            self.rerun_cycle_samples.append(result.rerun_cycles)

    def merge(self, other: "LaneStats") -> None:
        self.extensions += other.extensions
        self.cycles += other.cycles
        self.stream_cycles += other.stream_cycles
        self.rerun_events += other.rerun_events
        self.rerun_cycles += other.rerun_cycles
        self.rerun_cycle_samples.extend(other.rerun_cycle_samples)

    @property
    def rerun_fraction(self) -> float:
        """Fraction of extensions that needed >= 1 re-execution (Fig. 13)."""
        if not self.extensions:
            return 0.0
        return self.rerun_events / self.extensions

    @property
    def cycles_per_extension(self) -> float:
        if not self.extensions:
            return 0.0
        return self.cycles / self.extensions


@dataclass(frozen=True)
class ExtensionOutcome:
    """One seed extension, in global genome coordinates."""

    score: int
    position: int  # global reference start of the alignment (-1 if clipped away)
    result: TracebackResult

    @classmethod
    def placed(cls, result: TracebackResult, window_start: int) -> "ExtensionOutcome":
        """*result* (window coordinates) placed at the window's genome start."""
        if result.alignment is None:
            return cls(score=0, position=-1, result=result)
        position = max(0, window_start) + result.alignment.reference_start
        return cls(score=result.score, position=position, result=result)


def extension_window(
    reference: ReferenceGenome, read_sequence: str, window_start: int, k: int
) -> str:
    """The reference a lane extends *read_sequence* against.

    The window spans the read length plus K slack (deletions in the read
    consume extra reference), clamped at the genome ends; clipping inside
    the machine trims whatever does not belong to the alignment.
    """
    return reference.fetch(window_start, window_start + len(read_sequence) + k)


@dataclass
class SillaXLane:
    """One seed-extension lane."""

    k: int
    scheme: ScoringScheme = BWA_MEM_SCHEME
    stats: LaneStats = field(default_factory=LaneStats)

    def __post_init__(self) -> None:
        self._machine = TracebackMachine(self.k, self.scheme)

    def extend(
        self,
        reference: ReferenceGenome,
        read_sequence: str,
        window_start: int,
    ) -> ExtensionOutcome:
        """Extend a read against the reference window starting at *window_start*."""
        window = extension_window(reference, read_sequence, window_start, self.k)
        result = self._machine.align(window, read_sequence)
        self.stats.record(result)
        return ExtensionOutcome.placed(result, window_start)

    def align_pair(self, reference_window: str, read_sequence: str) -> TracebackResult:
        """Raw pair alignment (used by Fig. 14's hit-throughput benches)."""
        result = self._machine.align(reference_window, read_sequence)
        self.stats.record(result)
        return result
