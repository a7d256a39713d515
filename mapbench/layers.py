"""Outside-in per-layer timing for the traced benchmark pass.

The benchmark times each pipeline layer from outside the program: before
an aligner is built, :func:`instrument` replaces each layer's public entry
point with a wrapper that charges the call's *self time* (its duration
minus the time of wrapped calls nested inside it) to the layer, and
records the seeding and extension work counts.  Nested calls are charged
to the innermost wrapper, so the layer times plus the driver's own time
add up to the wall time of the mapping calls.  The filter counts come
from the cascade's own per-stage statistics, not from these wrappers.

The wrapping must happen before construction: the pipeline driver and
the filter cascade cache bound methods when they are built.  Leaving the
context restores every original attribute, so untimed runs are never
wrapped.

Layers and the entry points charged to them:

``seeding``
    ``seed_batch`` of every seed provider.
``filters`` and ``filters.<stage>``
    The cascade's own bookkeeping (``admit_batch_depths``) and each
    registered stage's ``admit``/``admit_batch``.
``extend``
    ``extend``/``extend_batch`` of every extension engine.
``select``
    ``select_best`` as the driver calls it.
``driver``
    ``PipelineDriver.align_batch``: whatever the driver does itself
    (candidate enumeration, the exact-match fast path, plan bookkeeping).
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro.pipeline.stages as stages_module
from repro.filters import FilterCascade
from repro.filters.registry import filter_names, get_filter
from repro.pipeline.bitvector import BatchedBitvectorEngine
from repro.pipeline.bwamem import WholeGenomeSeedProvider
from repro.pipeline.genax import SegmentedSeedProvider, SillaXExtensionEngine
from repro.pipeline.longread import AdaptiveBandedEngine
from repro.pipeline.stages import PipelineDriver
from repro.seeding.chain import ChainedSeedProvider

#: Records work counts for one outermost call: (trace, args, result).
CountHook = Callable[["LayerTrace", Tuple[Any, ...], Any], None]


class LayerTrace:
    """Self time and work counts per layer."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.busy: Dict[str, float] = {}
        self.counts: Counter[str] = Counter()
        # One frame per active wrapped call: [layer, seconds of nested calls].
        self._stack: List[List[Any]] = []

    def wrap(
        self, layer: str, fn: Callable[..., Any], count: Optional[CountHook] = None
    ) -> Callable[..., Any]:
        """*fn* with its self time charged to *layer*.

        *count* runs once per call that is not nested directly inside a
        call of the same layer (an engine's ``extend`` delegating to its
        own ``extend_batch`` counts its jobs once).
        """
        stack = self._stack
        busy = self.busy
        clock = self.clock

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            outermost = not stack or stack[-1][0] != layer
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                busy[layer] = busy.get(layer, 0.0) + elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if count is not None and outermost:
                count(self, args, result)
            return result

        return timed


# ------------------------------------------------------------ count hooks


def _count_seeds(trace: LayerTrace, args: Tuple[Any, ...], result: Any) -> None:
    trace.counts["seeding.seeds"] += sum(len(seeds) for seeds in result)


def _count_extensions(
    trace: LayerTrace, args: Tuple[Any, ...], result: Any
) -> None:
    results = result if isinstance(result, list) else [result]
    trace.counts["extend.calls"] += 1
    trace.counts["extend.jobs"] += len(results)
    trace.counts["extend.accepted"] += sum(
        extension is not None and extension.position >= 0
        for extension in results
    )


# ----------------------------------------------------------- entry points

#: (owner, attribute, layer, count hook) for every wrapped entry point.
EntryPoint = Tuple[Any, str, str, Optional[CountHook]]


def entry_points() -> List[EntryPoint]:
    """Every layer entry point the traced pass wraps, outermost first."""
    points: List[EntryPoint] = [
        (PipelineDriver, "align_batch", "driver", None),
        (stages_module, "select_best", "select", None),
    ]
    for seeder in (
        SegmentedSeedProvider,
        WholeGenomeSeedProvider,
        ChainedSeedProvider,
    ):
        points.append((seeder, "seed_batch", "seeding", _count_seeds))
    points.append((FilterCascade, "admit_batch_depths", "filters", None))
    for name in filter_names():
        stage_type = get_filter(name).build
        for attribute in ("admit", "admit_batch"):
            if attribute in vars(stage_type):
                points.append((stage_type, attribute, f"filters.{name}", None))
    for engine, attribute in (
        (SillaXExtensionEngine, "extend"),
        (BatchedBitvectorEngine, "extend"),
        (BatchedBitvectorEngine, "extend_batch"),
        (AdaptiveBandedEngine, "extend"),
    ):
        points.append((engine, attribute, "extend", _count_extensions))
    return points


@contextlib.contextmanager
def instrument(trace: LayerTrace) -> Iterator[LayerTrace]:
    """Wrap every entry point for the duration of the block.

    Build the aligner inside the block; the originals are restored on
    exit.  A missing entry point is an error, not a silently absent layer.
    """
    saved: List[Tuple[Any, str, Any]] = []
    try:
        for owner, attribute, layer, count in entry_points():
            original = vars(owner)[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, trace.wrap(layer, original, count))
        yield trace
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
