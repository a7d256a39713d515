"""Dense (NumPy) SillaX machines: the whole PE grid per step, many reads at once.

The reference machines (:mod:`repro.sillax.scoring_machine`,
:mod:`repro.sillax.traceback_machine`) update one Python object per PE,
which is the right shape for inspecting the dataflow and far too slow to
sit inside a mapper.  This module evaluates the same recurrences as
whole-grid NumPy steps — the spatial update the silicon performs in one
cycle — over a lane-minor ``(2, K+2, K+2, lanes)`` block, so a batch of
(reference window, read) pairs advances one cycle per step.

:func:`dense_forward` is that one recurrence.  Each cycle it writes the
H registers of every lane straight into a history array, one block per
cycle, and records nothing else: no per-cycle source codes, no running
best.  E and F live only as long as the recurrence reads them (the last
cycle's).  ``best``, the final cells and the winner are read off the
history afterwards.  Two models sit on top of it:

* :class:`DenseScoringMachine` — scores only (clipped best + final);
  bit-exact against the scoring machine.
* :class:`DenseTracebackMachine` — the full traceback of §IV-C.  The
  object machine's pointer record for a register is "the source that
  last set it, and when".  The trail (:class:`_DenseTrail`) derives that
  record only for the states the walk visits, from the history and with
  the forward pass's tie rules: once per state and register it finds, in
  one vectorised pass over cycles, every cycle the register was set, and
  it decides a source only for a cycle the walk asks about.  That answers
  the walk over the final registers *and* every broken-trail re-run (a
  re-run to t leaves exactly the records as they stood after cycle t)
  without streaming the strings again, as GenASM's traceback keeps the
  DP's intermediate state and decides each step only where the walk goes
  (arXiv 2009.07692).  Each
  :class:`~repro.sillax.traceback_machine.TracebackResult` equals the
  object machine's field by field: score, alignment, CIGAR,
  stream/control/collect cycles, ``rerun_count`` and ``rerun_cycles``.
  The object machine stays the oracle (``sillax-dense-vs-traceback`` in
  :mod:`repro.difftest.oracles`).

Ties break in the object machine's fixed order: E/F prefer ``open`` over
``extend`` on equal scores; H prefers the match self-loop over any other
source, then ``sub``/``sub_wait`` over ``from_f`` over ``from_e`` (its
``max()`` over ``(value, source)`` tuples); the winner is the highest
best, then the earliest cycle, then the smallest ``(i, d, layer)``.

Memory: the history holds ``(cycles + 1) * 2 * (K+2)^2`` registers per
lane, int16 whenever the scores fit (:func:`_register_dtype`), else
int32: ~110 kB for a 101 bp read against a 125 bp window at K = 12,
~1.3 MB against a 141 bp window at K = 40.  Everything else a pass holds
is O(cycles * K) per lane (the cell masks) or O(K^2) (two cycles of E
and F).  :meth:`DenseTracebackMachine.align_batch` runs lanes in chunks
that keep each history under ``HISTORY_BUDGET`` bytes;
:class:`DenseScoringMachine` runs one lane.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from repro.align.scoring import BWA_MEM_SCHEME, ScoringScheme
from repro.sillax.traceback_machine import (
    G_EXTEND,
    G_OPEN,
    H_FROM_E,
    H_FROM_F,
    H_START,
    H_SUB,
    H_SUB_WAIT,
    State,
    TracebackResult,
    TrailWalker,
    _RegisterRecord,
    clipped_result,
    traced_result,
)

# Cell mask planes (see _cell_planes).
_EQUAL, _MISMATCH, _E_OK, _F_OK = 0, 1, 2, 3

# Byte codes around a string: never equal to each other or to ASCII, and
# a string's own bytes sort below its empty code.  The empty-prefix codes
# mark the position just before a string's first character (a prefix of
# length 0, which is in range but holds no base).
_EMPTY_REF, _EMPTY_QUERY, _PAD_REF, _PAD_QUERY = 252, 253, 254, 255

#: Score reach (:func:`_register_dtype`) below which the registers are
#: int16: ``zero // 2`` of the int16 layout.
_INT16_REACH = 2**13
#: The same for int32 registers; at or beyond it a batch is rejected.
_INT32_REACH = 2**29

#: History bytes one chunk of traceback lanes may hold.  A lane needs
#: ``(cycles + 1) * 2 * (K+2)^2`` registers, so at K = 12 a 101 bp read
#: against a 125 bp window takes ~110 kB (int16) and a chunk holds 76
#: lanes; at K = 40 (141 bp window) a chunk holds 6.
HISTORY_BUDGET = 8 << 20

#: Cycles of cell masks :func:`dense_forward` expands at a time.
_MASK_WINDOW = 16


def _register_dtype(scheme: ScoringScheme, k: int, overlap: int) -> type:
    """The registers' type: int16 unless a lane's scores could outgrow it.

    Registers store score x as ``x + zero`` with ``zero`` half the type's
    range (2^14 in int16, 2^30 in int32), so -inf is 0, selection is
    ``value * mask``, and a value at or below ``zero // 2`` reads as
    -inf.  *overlap* is the largest ``min(len(ref), len(query))`` of any
    lane and ``step`` the largest score change one edit makes.  While

        ``reach = max(match * overlap, step * (2K + 1)) < zero // 2``

    no value overflows, every real score stays above ``zero // 2`` and
    every value derived from -inf at or below it:

    * No stored H is below 0.  The match and substitution candidates are
      masked by exclusive planes, so one of the two is 0.  Every other
      candidate, and every E and F, is at least ``-step``.
    * A match step moves both string positions on by one and no step
      moves either back, so a path holds at most ``overlap`` matches.
      Only a match raises a value, so a value derived from -inf (from a
      stored 0) is at most ``match * overlap < zero // 2``, and nothing
      stored or computed exceeds ``zero + match * (overlap + 1) < 2 *
      zero``.
    * Every other step (E, F, either substitution edge) raises
      ``i + d + layer`` by exactly one, and a cell has ``i, d <= K``.  A
      real score has therefore paid for at most ``2K + 1`` edits and is
      at least ``zero - step * (2K + 1) > zero // 2``.

    The bound does not grow with the strings' length beyond the overlap,
    so a 647 bp read at K = 64 (reach 903 under BWA-MEM scoring) runs in
    int16.
    """
    step = max(
        scheme.match, -scheme.substitution, -(scheme.gap_open + scheme.gap_extend)
    )
    reach = max(scheme.match * overlap, step * (2 * k + 1))
    if reach < _INT16_REACH:
        return np.int16
    if reach < _INT32_REACH:
        return np.int32
    raise ValueError("scores of this batch would overflow the int32 registers")


@dataclass(frozen=True)
class DenseForward:
    """What a forward pass leaves behind, lane-minor.

    Registers store score x as ``x + zero``; anything at or below
    ``zero // 2`` is -inf.  In ``history`` cell (i, d) sits at
    ``[i+1, d+1]``: index 0 is a -inf border, so every parent of a cell
    is in range.  ``cells`` holds the four per-cycle masks of
    :func:`_cell_planes` at ``[c, plane, i, d]``.
    """

    history: np.ndarray  # (cycles+1, 2, K+2, K+2, lanes): H after each cycle
    zero: int  # the stored value of score 0
    cells: np.ndarray  # (cycles+1, 4, K+1, K+1, lanes) bool, a read-only view
    best: np.ndarray  # (2, K+1, K+1, lanes): best H per state over all cycles
    cycles: np.ndarray  # (lanes,) the streaming phase's length per lane
    final: List[Optional[int]]  # final-cell H per lane (None: unreached)


def _encode(
    strings: Sequence[str], width: int, offset: int, empty: int, pad: int
) -> np.ndarray:
    """Position-major codes: string *l* in column *l* from row *offset*.

    Row ``offset - 1`` holds *empty* (the empty prefix); every other row
    outside the string holds *pad*.
    """
    codes = np.full((width, len(strings)), pad, dtype=np.uint8)
    codes[offset - 1] = empty
    for lane, text in enumerate(strings):
        codes[offset : offset + len(text), lane] = np.frombuffer(
            text.encode("ascii"), dtype=np.uint8
        )
    return codes


def _cell_planes(
    references: Sequence[str], queries: Sequence[str], k: int, cycles: int
) -> np.ndarray:
    """Per-cycle cell masks as a read-only ``(cycles+1, 4, K+1, K+1, lanes)`` view.

    Planes, in ``_EQUAL, _MISMATCH, _E_OK, _F_OK`` order: the cell
    compares equal bases; it compares different bases; E may be set
    (``0 <= r_len <= len(ref)`` and a query base left); F may be set (a
    reference base left and ``0 <= q_len <= len(query)``).  At cycle c the
    cell (i, d) compares ``R[c-1-i]`` with ``Q[c-1-d]``, so a plane
    depends only on ``(c - i, i - d)``: it is stored over those two
    coordinates, ``4 * (cycles + K + 1) * (2K + 1)`` bytes per lane, and
    the view strides it by cycle and cell.
    """
    size = k + 1
    lanes = len(references)
    # Reference codes by y = cycles - 1 - (c - 1 - i), the row the cell
    # (i, .) reads at cycle c, over y in [0, cycles + k].
    ref_rows = _encode(references, cycles + size, size, _EMPTY_REF, _PAD_REF)[::-1]
    # Query codes by z + k, z = y + (d - i): a sliding window over d - i.
    query_rows = _encode(
        queries, cycles + 3 * k + 1, 2 * k + 1, _EMPTY_QUERY, _PAD_QUERY
    )[::-1]
    query_win = sliding_window_view(query_rows, 2 * k + 1, axis=0).transpose(0, 2, 1)
    ref_win = ref_rows[:, None, :]
    ref_base = ref_win < _EMPTY_REF
    query_base = query_win < _EMPTY_QUERY
    by_diagonal = np.empty((4,) + query_win.shape, dtype=np.bool_)
    np.equal(ref_win, query_win, out=by_diagonal[0])  # pads never equal
    np.greater(ref_base & query_base, by_diagonal[0], out=by_diagonal[1])
    np.logical_and(ref_win <= _EMPTY_REF, query_base, out=by_diagonal[2])
    np.logical_and(ref_base, query_win <= _EMPTY_QUERY, out=by_diagonal[3])
    # [u, p, i, d, l] = by_diagonal[p, u + i, d - i + k, l] with u = cycles - c.
    s_plane, s_row, s_diag, s_lane = by_diagonal.strides
    by_u = as_strided(
        by_diagonal[0, 0, k:],
        shape=(cycles + 1, 4, size, size, lanes),
        strides=(s_row, s_plane, s_row - s_diag, s_diag, s_lane),
        writeable=False,
    )
    return by_u[::-1]


def dense_forward(
    k: int,
    scheme: ScoringScheme,
    references: Sequence[str],
    queries: Sequence[str],
) -> DenseForward:
    """Stream every (reference, query) lane through the machine at once.

    Lane *l* runs ``max(len(ref), len(query)) + K + 2`` cycles, as the
    object machine does; the pass stops early once no lane can hold a
    cell.  Blocks are lane-minor and flat per layer, so a cycle's cells
    are one contiguous run per layer and every parent of that run — one
    row up (E), one column left (F), the other layer (substitutions) — is
    the same run at a fixed offset, and several parents at once are one
    strided view.  The cell masks (:func:`_cell_planes`, expanded
    ``_MASK_WINDOW`` cycles at a time) are 0 wherever a lane holds no
    cell and on the border, so every cell is updated every cycle and
    stays exact.  A cycle is nine NumPy calls: E and F together (open and
    extend, masked); the match self-loop and the substitution edges
    together (the wait cell into layer 0 is the layer-1 H of two cycles
    back; masked); then H as the maximum of all four, written with
    ``out=`` straight into the cycle's history block.  Selection is
    arithmetic (``value * mask``, -inf stored as 0) rather than
    ``np.where``.
    """
    lanes = len(references)
    size = k + 1
    ref_lens = np.array([len(r) for r in references], dtype=np.int64)
    query_lens = np.array([len(q) for q in queries], dtype=np.int64)
    lane_cycles = np.maximum(ref_lens, query_lens) + (k + 2)
    cycles = int(lane_cycles.max()) if lanes else 0
    longest_ref = int(ref_lens.max()) if lanes else 0
    longest_query = int(query_lens.max()) if lanes else 0
    overlap = int(np.minimum(ref_lens, query_lens).max()) if lanes else 0
    dtype = _register_dtype(scheme, k, overlap)
    zero = int(np.iinfo(dtype).max) // 2 + 1
    planes = _cell_planes(references, queries, k, cycles)

    history = np.zeros((cycles + 1, 2, size + 1, size + 1, lanes), dtype=dtype)
    history[0, 0, 1, 1] = zero
    item = history.itemsize
    row = (size + 1) * lanes  # one padded grid row of every lane
    layer = (size + 1) * row
    # A cycle updates padded rows 1 .. K+1 of both layers: per layer, the
    # run from ``row`` to the layer's end.  Its parents are the same run
    # shifted one row up (E), one column left (F), or both (the wait cell).
    span = layer - row
    left = row - lanes  # from one row up to one column left
    blocks = history.reshape(cycles + 1, 2, layer)
    h_runs = blocks[:, :, row:]
    # The substitution sources of cycle c as one (2, span) view starting
    # in cycle c - 2's block: the layer-1 H at (i-1, d-1) that latched the
    # wait cell feeding layer 0, then (in the next block) layer 0's H
    # feeding layer 1.
    donors = as_strided(
        history.reshape(-1)[layer - lanes :],
        shape=(max(cycles - 1, 0), 2, span),
        strides=(2 * layer * item, (layer + row + lanes) * item, item),
        writeable=False,
    )
    # Per cycle and layer, the candidates H takes the maximum of: the match
    # self-loop, the substitution edge, E and F.  E and F are kept for the
    # next cycle in alternating slots; nothing else keeps them.
    slots = np.zeros((2, 4, 2, layer), dtype=dtype)
    candidates = slots[:, :, :, row:]
    # H + open - extend over every row, read by E one row up and by F one
    # column left: as a (gap, layer, span) view, and likewise the gaps.
    opened = np.empty((2, layer), dtype=dtype)
    opened_parent = as_strided(
        opened,
        shape=(2, 2, span),
        strides=(left * item, layer * item, item),
        writeable=False,
    )
    gap_parent = [
        as_strided(
            slots[parity, 2],
            shape=(2, 2, span),
            strides=(slots.strides[1] + left * item, layer * item, item),
            writeable=False,
        )
        for parity in (0, 1)
    ]
    # The cell masks of the next _MASK_WINDOW cycles, padded like the
    # registers (border 0), as 0/1 in the register type, with one axis
    # for the layers to broadcast over.
    window = np.zeros((_MASK_WINDOW, 4, size + 1, size + 1, lanes), dtype=dtype)
    masks = window.reshape(_MASK_WINDOW, 4, 1, layer)[..., row:]

    match, sub, ext, open_less_ext = (
        np.array(value, dtype=dtype)
        for value in (
            scheme.match,
            scheme.substitution,
            scheme.gap_extend,
            scheme.gap_open,  # (open + extend) - extend
        )
    )
    # Per slot parity: (self-loop, edge) and (E, F).
    slot_views = [(each[:2], each[2:]) for each in candidates]
    mask_views = [(mask[:2], mask[2:]) for mask in masks]
    # After cycle ``live`` no lane can hold a cell (each would need more
    # than K edits past a string's end), so nothing changes any more.
    live = cycles
    while max(0, live - longest_ref) + max(0, live - longest_query) > k:
        live -= 1
    for cycle in range(1, live + 1):
        slot = (cycle - 1) % _MASK_WINDOW
        if not slot:
            ahead = planes[cycle : cycle + _MASK_WINDOW]
            window[: len(ahead), :, 1:, 1:] = ahead
        bases, gap_ok = mask_views[slot]
        diagonal, gaps = slot_views[cycle & 1]
        h_last = h_runs[cycle - 1]

        # E (insertion, along i) and F (deletion, along d) together:
        # max(open, extend) = max(H + open - extend, gap) + extend.
        np.add(blocks[cycle - 1], open_less_ext, out=opened)
        np.maximum(opened_parent, gap_parent[(cycle - 1) & 1], out=gaps)
        np.add(gaps, ext, out=gaps)
        np.multiply(gaps, gap_ok, out=gaps)

        # The match self-loop and the substitution edges (into layer 0 via
        # the wait cell latched last cycle, into layer 1 directly from
        # layer 0), each kept only where the cell compares equal or
        # different bases.
        np.add(h_last, match, out=diagonal[0])
        if cycle > 1:
            np.add(donors[cycle - 2], sub, out=diagonal[1])
        else:
            diagonal[1, 0] = 0  # no wait cell latched before cycle 1
            np.add(h_last[0], sub, out=diagonal[1, 1])
        np.multiply(diagonal, bases, out=diagonal)
        # H: every candidate's maximum (which source wins a tie is the
        # trail's question, not the value's).
        np.maximum(diagonal, gaps, out=diagonal)
        np.maximum(diagonal[0], diagonal[1], out=h_runs[cycle])

    return DenseForward(
        history=history,
        zero=zero,
        cells=planes,
        best=history.max(axis=0)[:, 1:, 1:],
        cycles=lane_cycles,
        final=_final_cells(history, zero, k, ref_lens, query_lens),
    )


def _final_cells(
    history: np.ndarray,
    zero: int,
    k: int,
    ref_lens: np.ndarray,
    query_lens: np.ndarray,
) -> List[Optional[int]]:
    """Each lane's best H in the cell holding both whole strings, if any.

    At cycle c that cell is ``(c - len(ref), c - len(query))``; it walks
    one step down the diagonal per cycle, so a lane has at most K + 1
    cycles with a cell inside the grid.  One gather reads them all.
    """
    lanes = len(ref_lens)
    cycles = history.shape[0] - 1
    first = np.maximum(np.maximum(ref_lens, query_lens), 1)
    cycle = first[:, None, None] + np.arange(k + 1)[None, :, None]
    fi = cycle - ref_lens[:, None, None]
    fd = cycle - query_lens[:, None, None]
    layer = np.arange(2)[None, None, :]
    valid = (fi + fd + layer <= k) & (cycle <= cycles)
    lane = np.broadcast_to(np.arange(lanes)[:, None, None], valid.shape)
    values = history[
        np.where(valid, cycle, 0),
        np.broadcast_to(layer, valid.shape),
        np.where(valid, fi + 1, 0),
        np.where(valid, fd + 1, 0),
        lane,
    ].astype(np.int64)
    reached = valid & (values > zero // 2)
    top = np.where(reached, values, 0).max(axis=(1, 2), initial=0) - zero
    return [
        int(score) if hit else None
        for score, hit in zip(top, reached.any(axis=(1, 2)))
    ]


def _edits_ok(k: int) -> np.ndarray:
    """(2, K+1, K+1, 1) mask of states within the edit bound: i + d + layer <= K."""
    idx = np.arange(k + 1)
    grid = idx[:, None] + idx[None, :]
    return np.stack([grid <= k, grid + 1 <= k])[..., None]


@dataclass(frozen=True)
class DenseScoringResult:
    best_score: int
    final_score: Optional[int]
    cycles: int


class DenseScoringMachine:
    """Vectorized scoring machine for edit bound K (one lane of the forward pass)."""

    def __init__(self, k: int, scheme: ScoringScheme = BWA_MEM_SCHEME) -> None:
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        self.k = k
        self.scheme = scheme
        self._edits_ok = _edits_ok(k)

    def run(self, reference: str, query: str) -> DenseScoringResult:
        forward = dense_forward(self.k, self.scheme, [reference], [query])
        best = int((forward.best * self._edits_ok).max()) - forward.zero
        final = forward.final[0]
        if not reference and not query:
            final = 0
        return DenseScoringResult(
            best_score=best, final_score=final, cycles=int(forward.cycles[0])
        )

    def best_score(self, reference: str, query: str) -> int:
        return self.run(reference, query).best_score


class _DenseTrail(TrailWalker):
    """The trail over one lane's H history.

    A register's record after cycle t is the source that last set it at
    or before t, and when.  The first lookup of a (state, register) finds
    every cycle the register was set in, vectorised over cycles with the
    forward pass's rule (H: not held by the match self-loop; E/F: not
    -inf); a lookup then takes the last of those at or before the
    snapshot cycle and decides its source from that cycle's registers
    with the same tie order.  E and F are not kept by the forward pass:
    a gap register's values over all cycles are recomputed from the H
    history along its edge's chain back to the border, exact wherever
    they are real.  Restoring a re-run snapshot is just moving the
    snapshot cycle — the strings are never streamed again.
    """

    def __init__(
        self,
        forward: DenseForward,
        lane: int,
        scheme: ScoringScheme,
        reference_len: int,
        query_len: int,
    ) -> None:
        super().__init__(reference_len, query_len)
        self.h = forward.history[..., lane]
        self.cells = forward.cells[..., lane]
        self.real = forward.zero // 2
        self.scheme = scheme
        self.snapshot = self.h.shape[0] - 1
        self._set_at: Dict[Tuple[State, str], List[int]] = {}
        self._gaps: Dict[Tuple[State, str], np.ndarray] = {}

    def _lookup(self, state: State, register: str) -> _RegisterRecord:
        key = (state, register)
        set_at = self._set_at.get(key)
        if set_at is None:
            set_at = self._set_at[key] = self._set_cycles(state, register)
        last = bisect_right(set_at, self.snapshot) - 1
        if last < 0:
            return _RegisterRecord()
        time = set_at[last]
        return _RegisterRecord(self._source(state, register, time), time)

    def _restore(self, upto_cycle: int) -> None:
        self.snapshot = upto_cycle

    def _set_cycles(self, state: State, register: str) -> List[int]:
        """Every cycle in which *register* of *state* was set, ascending."""
        i, d, layer = state
        if register == "h":
            value = self.h[:, layer, i + 1, d + 1]
            # Set unless the match self-loop held its value (it wins ties).
            held = (value[:-1] + self.scheme.match) * self.cells[1:, _EQUAL, i, d]
            floor = np.maximum(held, self.real)
        else:
            value = self._gap(state, register)
            floor = self.real
        set_at = [cycle + 1 for cycle in np.nonzero(value[1:] > floor)[0].tolist()]
        if register == "h" and state == (0, 0, 0):
            set_at.insert(0, 0)  # the start state's record, set before cycle 1
        return set_at

    def _gap(self, state: State, register: str) -> np.ndarray:
        """E or F of *state* after every cycle, exact wherever it is real.

        The forward pass's recurrence, run along the gap's chain of
        parents back to the border: a gap whose parents are both -inf is
        -inf whatever value stands for it, so the border's is 0.
        """
        key = (state, register)
        value = self._gaps.get(key)
        if value is not None:
            return value
        i, d, layer = state
        value = np.zeros(self.h.shape[0], dtype=np.int64)
        parent = (i - 1, d, layer) if register == "e" else (i, d - 1, layer)
        if min(parent) >= 0:
            pi, pd, __ = parent
            opened = self.h[:-1, layer, pi + 1, pd + 1] + self.scheme.gap_open
            extended = np.maximum(opened, self._gap(parent, register)[:-1])
            extended += self.scheme.gap_extend
            plane = _E_OK if register == "e" else _F_OK
            np.multiply(extended, self.cells[1:, plane, i, d], out=value[1:])
        self._gaps[key] = value
        return value

    def _source(self, state: State, register: str, cycle: int) -> str:
        """The source that set *register* of *state* in *cycle*."""
        i, d, layer = state
        h = self.h
        scheme = self.scheme
        if register == "h":
            if cycle == 0:
                return H_START
            now = int(h[cycle, layer, i + 1, d + 1])
            # Layer 0's substitution comes through a wait cell, and none
            # is latched before cycle 1.
            if self.cells[cycle, _MISMATCH, i, d] and (layer or cycle > 1):
                if layer:
                    donor = int(h[cycle - 1, 0, i + 1, d + 1])
                else:
                    donor = int(h[cycle - 2, 1, i, d])
                if donor + scheme.substitution == now:
                    return H_SUB if layer else H_SUB_WAIT
            if self._gap(state, "f")[cycle] == now:
                return H_FROM_F
            return H_FROM_E
        # E/F: the parent one step back along the gap's edge; open wins ties.
        pi, pd = (i - 1, d) if register == "e" else (i, d - 1)
        parent_h = int(h[cycle - 1, layer, pi + 1, pd + 1])
        parent_gap = int(self._gap((pi, pd, layer), register)[cycle - 1])
        return G_OPEN if parent_h + scheme.gap_open >= parent_gap else G_EXTEND


class DenseTracebackMachine:
    """Batched traceback machine for edit bound K, exact against the object machine."""

    def __init__(self, k: int, scheme: ScoringScheme = BWA_MEM_SCHEME) -> None:
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        self.k = k
        self.scheme = scheme
        self._edits_ok = _edits_ok(k)

    def align(self, reference: str, query: str) -> TracebackResult:
        return self.align_batch([reference], [query])[0]

    def align_batch(
        self, references: Sequence[str], queries: Sequence[str]
    ) -> List[TracebackResult]:
        """Align lane *j* = ``(references[j], queries[j])``; results in lane order.

        Lanes run in chunks whose register history fits
        ``HISTORY_BUDGET``; a lane's result never depends on the chunk it
        lands in.
        """
        if len(references) != len(queries):
            raise ValueError(
                f"{len(references)} references for {len(queries)} queries"
            )
        if not references:
            return []
        k = self.k
        longest_ref = max(len(r) for r in references)
        longest_query = max(len(q) for q in queries)
        overlap = max(min(len(r), len(q)) for r, q in zip(references, queries))
        dtype = _register_dtype(self.scheme, k, overlap)
        cycles = max(longest_ref, longest_query) + k + 2
        lane_bytes = (cycles + 1) * 2 * (k + 2) ** 2 * np.dtype(dtype).itemsize
        per_chunk = max(1, HISTORY_BUDGET // lane_bytes)
        chunks = -(-len(references) // per_chunk)
        results: List[TracebackResult] = []
        for chunk in range(chunks):
            # Even chunks: a batch just over the budget splits in halves.
            lo = chunk * len(references) // chunks
            hi = (chunk + 1) * len(references) // chunks
            results.extend(self._align_chunk(references[lo:hi], queries[lo:hi]))
        return results

    def _align_chunk(
        self, references: Sequence[str], queries: Sequence[str]
    ) -> List[TracebackResult]:
        k = self.k
        forward = dense_forward(k, self.scheme, references, queries)
        lanes = len(references)
        # Winner per lane: highest best > 0 within the edit bound, then
        # the earliest cycle, then the smallest (i, d, layer).
        best = forward.best
        eligible = self._edits_ok & (best > forward.zero)
        top = (best * eligible).max(axis=(0, 1, 2))
        layer, i, d, lane = np.nonzero(eligible & (best == top))
        # Each tied state's first cycle at the top score (when its best
        # was set), then the lane's first (cycle, i, d, layer).
        first = (
            forward.history[:, layer, i + 1, d + 1, lane] == top[lane]
        ).argmax(axis=0)
        order = np.lexsort((layer, d, i, first, lane))
        winners, picks = np.unique(lane[order], return_index=True)
        winner = dict(zip(winners.tolist(), order[picks].tolist()))
        results: List[TracebackResult] = []
        for index in range(lanes):
            stream_cycles = int(forward.cycles[index])
            pick = winner.get(index)
            if pick is None:
                results.append(clipped_result(k, stream_cycles))
                continue
            walker = _DenseTrail(
                forward,
                index,
                self.scheme,
                len(references[index]),
                len(queries[index]),
            )
            results.append(
                traced_result(
                    k,
                    int(top[index]) - forward.zero,
                    (int(i[pick]), int(d[pick]), int(layer[pick])),
                    int(first[pick]),
                    stream_cycles,
                    walker,
                )
            )
        return results
