"""Closed-loop accounting, accuracy join and the determinism check."""

import json
from pathlib import Path
from typing import List, Sequence, Tuple

import pytest

from mapbench.runner import (
    REFERENCE_SECONDS,
    LoopResult,
    NondeterminismError,
    accuracy,
    check_same,
    run_closed_loop,
)
from mapbench.workloads import WORKLOADS, Truth
from repro.align.records import MappedRead

ROOT = Path(__file__).resolve().parents[2]


class FlakyAligner:
    """Maps every read to its index; raises on batches holding ``N``."""

    def __init__(self) -> None:
        self.batches: List[int] = []

    def align_batch(self, reads: Sequence[Tuple[str, str]]) -> List[MappedRead]:
        self.batches.append(len(reads))
        if any("N" in sequence for __, sequence in reads):
            raise ValueError("non-ACGT base 'N'")
        return [
            MappedRead(read_name=name, position=int(name), reverse=False, score=1)
            for name, __ in reads
        ]


def test_failed_batch_counts_every_read_and_loop_continues() -> None:
    reads = [(str(i), "NACG" if i == 5 else "ACGT") for i in range(12)]
    aligner = FlakyAligner()
    loop = run_closed_loop(aligner, reads, batch_size=4, limit=12)
    assert aligner.batches == [4, 4, 4]
    assert loop.attempted == 12
    assert loop.failed == 4
    assert loop.failure_types == {"ValueError": 1}
    assert "non-ACGT" in loop.first_failure
    assert [record is None for record in loop.mapped] == (
        [False] * 4 + [True] * 4 + [False] * 4
    )


def test_pool_is_cycled_when_the_loop_outlasts_it() -> None:
    reads = [(str(i), "ACGT") for i in range(3)]
    loop = run_closed_loop(FlakyAligner(), reads, batch_size=2, limit=7)
    assert loop.read_indices == [0, 1, 2, 0, 1, 2, 0]


def test_time_bounded_loop_stops_after_the_batch_in_flight() -> None:
    ticks = iter(float(t) for t in range(100))
    reads = [(str(i), "ACGT") for i in range(50)]
    loop = run_closed_loop(
        FlakyAligner(), reads, batch_size=5, seconds=3, clock=lambda: next(ticks)
    )
    # Each batch takes one tick; the loop stops once three have elapsed.
    assert loop.attempted == 15
    assert loop.seconds == 3
    ticks = iter(float(t) for t in range(100))
    longer = run_closed_loop(
        FlakyAligner(),
        reads,
        batch_size=5,
        seconds=3,
        min_reads=22,
        clock=lambda: next(ticks),
    )
    assert longer.attempted == 25  # the batch that reaches 22 reads completes


def test_batch_times_are_rescaled_to_the_reference_speed() -> None:
    half = REFERENCE_SECONDS * 2  # the reference loop ran at half speed
    loop = LoopResult(
        batch_seconds=[1.0, 1.0],
        calibration=[REFERENCE_SECONDS, half, half],
    )
    assert loop.reference_seconds == pytest.approx(1.0 / 1.5 + 1.0 / 2.0)


def test_accuracy_is_strand_aware_within_tolerance() -> None:
    def record(position: int, reverse: bool) -> MappedRead:
        return MappedRead("r", position, reverse, 1)

    loop = LoopResult(
        read_indices=[0, 1, 2, 3, 0],
        mapped=[
            record(100, False),  # correct
            record(220, True),  # 20 bp off, within tolerance
            record(300, True),  # wrong strand
            record(-1, False),  # unmapped
            None,  # failed batch
        ],
    )
    truth = [Truth(105, False), Truth(200, True), Truth(300, False), Truth(7, False)]
    assert accuracy(loop, truth, tolerance=25) == (3, 2)
    assert accuracy(loop, truth, tolerance=10) == (3, 1)


def test_check_same_names_the_differing_read() -> None:
    same = [("a", 1), ("b", 2)]
    check_same(same, list(same), "w")
    with pytest.raises(NondeterminismError, match="read 1"):
        check_same(same, [("a", 1), ("b", 3)], "w")


def test_benchmark_spec_names_the_workloads() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [workload["name"] for workload in spec["workloads"]] == list(WORKLOADS)
    assert spec["command"] == ["python3", "mapbench/run.py"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_inputs_repeat_for_a_seed_and_carry_truth(name: str) -> None:
    workload = WORKLOADS[name]
    first = workload.make_inputs(7, 6)
    again = workload.make_inputs(7, 6)
    other = workload.make_inputs(8, 6)
    assert first.reads == again.reads
    assert first.reads != other.reads
    assert len(first.truth) == len(first.reads) == 6
    for __, sequence in first.reads:
        assert set(sequence) <= set("ACGT")
