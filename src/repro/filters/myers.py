"""Myers bit-vector cascade stage: the exact within-budget membership test.

Runs Myers' semi-global recurrence over the same reference window the
extension engine would fetch (read length + ``window_slack``), so a
candidate survives iff the whole read matches *some* substring of that
window within ``max_edits`` edits.  It is the only registered stage:
cheaper over-approximations of the same bound (GateKeeper-style base
counts, SneakySnake-style diagonal coverage) were measured and removed,
because every candidate they vetoed this stage vetoed too and they
rejected almost nothing on their own.

The cascade calls :meth:`MyersCandidateFilter.admit_batch` with the
dispatch's :class:`~repro.pipeline.common.CandidateTable`, and one
:func:`~repro.align.bitvector.semiglobal_min_windows` call answers every
candidate: each read is encoded once, each window is a span of a cached
2-bit copy of the reference (the ``fetch`` clamp applied), so no window
string and no :class:`~repro.pipeline.common.Candidate` is built.  The
call is bounded at ``max_edits``: it scores only the diagonal band an
alignment within budget can touch — one machine word per lane up to
21 edits at the default slack, whatever the read length — and returns
``min(distance, max_edits + 1)``, which is all the verdict needs.  A
candidate is admitted iff that distance is ``<= max_edits``.
That is exactly ``bool(myers_search(...))``, the scalar
:meth:`~MyersCandidateFilter.admit` verdict the tests hold it to,
because both recurrences start the score at the pattern length and
:func:`~repro.align.myers.myers_search` reports a hit wherever the
running score is within budget.  The ``candidate-table-vs-per-read``
difftest pair holds every verdict of a dispatch to the scalar
:func:`~repro.align.myers.myers_semiglobal_min`.  A read base outside
upper-case ACGT costs an edit against every reference base, as in the
scalar recurrence, instead of aborting the dispatch.

Counter discipline (see :mod:`repro.filters.base`): the stage charges its
streamed window to ``stats.prefilter_cycles`` (the hardware analogue
streams one window character per cycle); the cascade owns the per-stage
checked/rejected/cycle counters and the once-per-candidate
``candidates_filtered`` / ``candidates_survived`` charges.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

import numpy
from numpy.typing import NDArray

from repro.align.bitvector import semiglobal_min_windows
from repro.align.myers import myers_search
from repro.align.records import AlignmentStats
from repro.genome.reference import ReferenceGenome
from repro.genome.sequence import encode_bases

if TYPE_CHECKING:
    from repro.pipeline.common import Candidate, CandidateTable


class MyersCandidateFilter:
    """Bit-vector semi-global scan: exact within-budget membership test."""

    name = "myers"

    def __init__(
        self, reference: ReferenceGenome, max_edits: int, window_slack: int
    ) -> None:
        if max_edits < 0:
            raise ValueError(f"max_edits must be non-negative, got {max_edits}")
        # Deferred import: repro.pipeline imports this package at module
        # scope, so importing pipeline.common at import time would cycle.
        from repro.pipeline.common import fetch_window, window_spans

        self._fetch_window = fetch_window
        self._window_spans = window_spans
        self.reference = reference
        self.max_edits = max_edits
        self.window_slack = window_slack

    def admit(
        self, oriented: str, candidate: "Candidate", stats: AlignmentStats
    ) -> bool:
        """The scalar reference verdict for one job (not on the cascade path)."""
        window = self._fetch_window(
            self.reference, candidate, len(oriented), self.window_slack
        )
        stats.prefilter_cycles += len(window)
        return bool(myers_search(oriented, window, self.max_edits))

    def admit_batch(
        self, candidates: "CandidateTable", stats: AlignmentStats
    ) -> NDArray[numpy.bool_]:
        read_lengths = numpy.fromiter(
            map(len, candidates.reads), dtype=numpy.int64, count=len(candidates.reads)
        )
        first, lengths = self._window_spans(
            candidates.start,
            read_lengths[candidates.row],
            self.window_slack,
            len(self.reference),
        )
        stats.prefilter_cycles += int(lengths.sum())
        distances = semiglobal_min_windows(
            candidates.reads,
            candidates.row,
            self._codes,
            first,
            lengths,
            self.max_edits,
        )
        return distances <= self.max_edits

    @cached_property
    def _codes(self) -> NDArray[numpy.uint8]:
        """The reference's 2-bit codes, one byte per base; built once.

        The reference is validated ``ACGT``, so every code is a base.
        """
        return encode_bases(self.reference.sequence)
