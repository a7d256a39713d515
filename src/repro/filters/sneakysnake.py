"""SneakySnake-style universal pre-alignment cascade stage (vectorized).

SneakySnake (PAPERS.md) frames pre-alignment as a pathfinding question:
a read and a window are within edit distance ``E`` only if every read
base can be *covered* — matched against a same-letter window base on one
of the nearby diagonals — except for at most ``E`` of them.  This stage
computes that bound lane-parallel over the packed 2-bit NumPy codecs
from :mod:`repro.genome.sequence`:

* reads and windows are packed with :func:`~repro.genome.sequence.encode_batch`
  and unpacked to ``uint8`` code matrices
  (:func:`~repro.genome.sequence.unpack_batch`);
* for each diagonal ``d`` in ``[-E, slack + 2E]`` one vectorized
  comparison marks the read positions covered at that shift (a matched
  base at read offset ``j`` can only sit at window offset ``j + d`` in
  that range: the alignment may start anywhere in the window's slack and
  indels shift it by at most ``E`` either way);
* read positions uncovered on *every* diagonal each cost at least one
  edit, so their count lower-bounds the semi-global edit distance and
  ``bound > E`` is a lossless veto relative to the Myers stage's budget.

Out-of-window and padding lanes compare against a sentinel code (255,
outside the 2-bit alphabet) so they can never register as covered, which
keeps lanes independent: verdict ``i`` of :meth:`SneakySnakeFilter.admit_batch`
is exactly :meth:`SneakySnakeFilter.admit` of job ``i`` (the stage
bounds tests assert it), making the batch path pure batching
the way :class:`~repro.pipeline.stages.BatchExtensionEngine` demands.

Cycle model: like the other stages, each job charges its streamed window
once (``len(window)`` cycles) — the hardware analogue walks the snake
grid bit-parallel across diagonals while the window streams through.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

import numpy as np
from numpy.typing import NDArray

from repro.align.records import AlignmentStats
from repro.filters.base import FilterJob
from repro.genome.reference import ReferenceGenome
from repro.genome.sequence import encode_batch, unpack_batch

if TYPE_CHECKING:
    from repro.pipeline.common import Candidate

#: Code marking padding / out-of-window lanes; never equals a 2-bit base.
_SENTINEL = np.uint8(255)


class SneakySnakeFilter:
    """Diagonal-coverage lower bound on the semi-global edit distance."""

    name = "sneakysnake"

    def __init__(
        self, reference: ReferenceGenome, max_edits: int, window_slack: int
    ) -> None:
        if max_edits < 0:
            raise ValueError(f"max_edits must be non-negative, got {max_edits}")
        # Deferred import: repro.pipeline imports this package at module
        # scope, so importing pipeline.common at import time would cycle.
        from repro.pipeline.common import fetch_window

        self._fetch_window = fetch_window
        self.reference = reference
        self.max_edits = max_edits
        self.window_slack = window_slack

    # ------------------------------------------------------------- kernel

    def distance_bounds(
        self, reads: Sequence[str], windows: Sequence[str]
    ) -> NDArray[np.int64]:
        """Per-lane lower bound on each read↔window semi-global distance."""
        if len(reads) != len(windows):
            raise ValueError(
                f"got {len(reads)} reads for {len(windows)} windows"
            )
        count = len(reads)
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        packed_r, len_r = encode_batch(reads)
        packed_w, len_w = encode_batch(windows)
        max_r = int(len_r.max())
        max_w = int(len_w.max())
        codes_r = unpack_batch(packed_r, len_r)[:, :max_r]
        valid_r = np.arange(max_r, dtype=np.int64) < len_r[:, None]
        # Window codes land E columns in (diagonal -E maps read column j to
        # padded column j), padded with the sentinel on both flanks so every
        # shift of every lane stays in bounds without ever matching.
        spread = self.window_slack + 3 * self.max_edits + 1
        padded = np.full((count, max_r + spread), _SENTINEL, dtype=np.uint8)
        window_codes = np.where(
            np.arange(max_w, dtype=np.int64) < len_w[:, None],
            unpack_batch(packed_w, len_w)[:, :max_w],
            _SENTINEL,
        )
        padded[:, self.max_edits : self.max_edits + max_w] = window_codes
        uncovered = valid_r.copy()
        for shift in range(spread):
            np.logical_and(
                uncovered,
                codes_r != padded[:, shift : shift + max_r],
                out=uncovered,
            )
        return uncovered.sum(axis=1, dtype=np.int64)

    # ---------------------------------------------------------- protocol

    def admit(
        self, oriented: str, candidate: "Candidate", stats: AlignmentStats
    ) -> bool:
        return self.admit_batch([(oriented, candidate)], stats)[0]

    def admit_batch(
        self, jobs: Sequence[FilterJob], stats: AlignmentStats
    ) -> List[bool]:
        reads: List[str] = []
        windows: List[str] = []
        for oriented, candidate in jobs:
            window = self._fetch_window(
                self.reference, candidate, len(oriented), self.window_slack
            )
            stats.prefilter_cycles += len(window)
            reads.append(oriented)
            windows.append(window)
        bounds = self.distance_bounds(reads, windows)
        return [bool(bound <= self.max_edits) for bound in bounds]
