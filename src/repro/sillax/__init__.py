"""SillaX: the cycle-level hardware models of the Silla accelerator (§IV).

Three machines of increasing capability, mirroring the paper:

* :class:`repro.sillax.edit_machine.EditMachine` — edit distance only;
  systolic retro-comparison distribution, 13-gate PEs.
* :class:`repro.sillax.scoring_machine.ScoringMachine` — affine-gap scores
  with delayed merging, clipping and score back-propagation.
* :class:`repro.sillax.traceback_machine.TracebackMachine` — adds pointer
  trails, match-count compression, broken-trail detection and re-execution.

Plus :mod:`repro.sillax.composable` (tile composition, §IV-D),
:mod:`repro.sillax.lane` (device-level cycle/throughput accounting) and
:mod:`repro.sillax.dense` (the batched NumPy scoring and traceback
models the mapper runs, exact against the machines above).
"""

from repro.sillax.edit_machine import EditMachine, EditMachineResult
from repro.sillax.scoring_machine import ScoringMachine, ScoringMachineResult
from repro.sillax.traceback_machine import (
    TracebackMachine,
    TracebackResult,
)
from repro.sillax.composable import ComposableArray, TileConfig
from repro.sillax.dense import (
    DenseScoringMachine,
    DenseScoringResult,
    DenseTracebackMachine,
)
from repro.sillax.lane import SillaXLane, LaneStats

__all__ = [
    "EditMachine",
    "EditMachineResult",
    "ScoringMachine",
    "ScoringMachineResult",
    "TracebackMachine",
    "TracebackResult",
    "ComposableArray",
    "TileConfig",
    "DenseScoringMachine",
    "DenseScoringResult",
    "DenseTracebackMachine",
    "SillaXLane",
    "LaneStats",
]
