"""Attribution self-test for the outside-in layer trace.

Two checks that the traced pass charges time to the right layer:

* a fixed delay added to one layer's entry point raises that layer's row,
  and only that row, by about the delay;
* on every workload, the layer busy times (``driver`` included) add up to
  the wall time of the traced mapping calls.
"""

import time
from typing import Any, Callable, Dict

import pytest

from mapbench.layers import LayerTrace, instrument
from mapbench.runner import TOP_LAYERS, SetupResult, layer_busy, layer_metrics, traced_pass
from mapbench.workloads import WORKLOADS
from repro.filters.myers import MyersCandidateFilter
from repro.pipeline.registry import get_backend
from repro.pipeline.stages import PipelineDriver

#: Reads per traced pass: enough for every layer to run, small enough to be quick.
SMALL = {"short-genax": 8, "repeat-bitvector": 48, "long-nanopore": 2}


def _traced(name: str, seed: int = 3) -> Dict[str, Any]:
    workload = WORKLOADS[name]
    spec = get_backend(workload.backend)
    config = workload.config()
    inputs = workload.make_inputs(seed, SMALL[name])
    shared = spec.prepare(inputs.reference, config)
    trace, loop, aligner = traced_pass(
        spec, config, inputs, shared, workload.batch_size, SMALL[name]
    )
    setup = SetupResult(aligner, shared, [0.0], [0.0])
    metrics, __ = layer_metrics(trace, loop, aligner, setup)
    return {"trace": trace, "loop": loop, "aligner": aligner, "metrics": metrics}


def test_nested_calls_are_charged_to_the_innermost_wrapper() -> None:
    now = [0.0]

    def clock() -> float:
        return now[0]

    trace = LayerTrace(clock)

    def inner() -> None:
        now[0] += 2.0

    wrapped_inner = trace.wrap("inner", inner)

    def outer() -> None:
        now[0] += 1.0
        wrapped_inner()
        now[0] += 0.5

    trace.wrap("outer", outer)()
    assert trace.busy == {"inner": 2.0, "outer": 1.5}


def test_instrument_restores_every_entry_point() -> None:
    original = PipelineDriver.__dict__["align_batch"]
    with instrument(LayerTrace()):
        assert PipelineDriver.__dict__["align_batch"] is not original
    assert PipelineDriver.__dict__["align_batch"] is original


def _delayed(fn: Callable[..., Any], seconds: float) -> Callable[..., Any]:
    def slow(*args: Any, **kwargs: Any) -> Any:
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return fn(*args, **kwargs)

    return slow


def test_a_delay_in_one_layer_raises_only_that_row(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    delay = 0.002
    base = _traced("repeat-bitvector")
    monkeypatch.setattr(
        MyersCandidateFilter,
        "admit",
        _delayed(MyersCandidateFilter.__dict__["admit"], delay),
    )
    slowed = _traced("repeat-bitvector")

    def myers_checks(run: Dict[str, Any]) -> int:
        return dict(run["aligner"].cascade.report())["myers"].checked

    calls = myers_checks(slowed)  # MyersCandidateFilter.admit calls
    assert calls == myers_checks(base) > 50
    injected = calls * delay

    def rows(run: Dict[str, Any]) -> Dict[str, float]:
        busy = dict(run["trace"].busy)
        busy.setdefault("filters", 0.0)
        return busy

    before, after = rows(base), rows(slowed)
    rise = after["filters.myers"] - before["filters.myers"]
    assert injected * 0.95 <= rise <= injected * 1.25
    for row in after:
        if row != "filters.myers":
            assert abs(after[row] - before[row]) < 0.1 * injected, row


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_layer_times_add_up_to_wall_time(name: str) -> None:
    run = _traced(name)
    wall = run["loop"].seconds
    busy = layer_busy(run["trace"])
    assert all(seconds >= 0.0 for seconds in busy.values())
    assert abs(sum(busy.values()) - wall) <= 0.03 * wall
    assert busy["seeding"] > 0 and busy["extend"] > 0
    assert set(busy) == set(TOP_LAYERS)


def test_layers_a_backend_lacks_are_absent_not_zero() -> None:
    metric_names = {name: set(_traced(name)["metrics"]) for name in WORKLOADS}
    genax = metric_names["short-genax"]
    bitvector = metric_names["repeat-bitvector"]
    longread = metric_names["long-nanopore"]
    assert {"sillax.rerun_frac", "filters.myers.busy_s", "seeding.index_lookups"} <= genax
    assert not any(name.startswith(("kernel.", "align.")) for name in genax)
    assert {"kernel.dedupe_frac", "filters.busy_s", "align.dp_cells"} <= bitvector
    assert not any(name.startswith("sillax.") for name in bitvector)
    assert {"seeding.chains", "align.dp_cells"} <= longread
    assert not any(name.startswith(("filters.", "sillax.", "kernel.")) for name in longread)
