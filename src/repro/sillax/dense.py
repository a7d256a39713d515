"""Dense (NumPy) SillaX machines: the whole PE grid per step, many reads at once.

The reference machines (:mod:`repro.sillax.scoring_machine`,
:mod:`repro.sillax.traceback_machine`) update one Python object per PE,
which is the right shape for inspecting the dataflow and far too slow to
sit inside a mapper.  This module evaluates the same recurrences as
whole-grid NumPy steps — the spatial update the silicon performs in one
cycle — over a ``(lanes, 2, K+1, K+1)`` block, so a batch of
(reference window, read) pairs advances one cycle per step.

:func:`dense_forward` is that one recurrence.  Each cycle it updates the
H/E/F registers and wait cells of every lane and tracks each state's
``best``/``best_cycle``.  When asked, it also stores one provenance byte
per state per cycle: the source each of H, E and F was set from in that
cycle (0 = not set).  Two models sit on top of it:

* :class:`DenseScoringMachine` — scores only (clipped best + final),
  provenance off; bit-exact against the scoring machine.
* :class:`DenseTracebackMachine` — the full traceback of §IV-C.  The
  per-cycle record answers "which record was last set at or before cycle
  t?", which is exactly what the object machine's registers hold after a
  run truncated at t.  So the shared trail walk
  (:class:`~repro.sillax.traceback_machine.TrailWalker`) replays the walk
  over the final registers *and* every broken-trail re-run from one
  forward pass, without streaming the strings again, and each
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

Memory: the provenance record costs ``(cycles + 1) * 2 * (K+1)^2`` bytes
per lane (~0.6 MB for a 101 bp read at K = 40), so
:meth:`DenseTracebackMachine.align_batch` runs lanes in chunks that keep
each record under ``PROVENANCE_BUDGET`` bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

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

# Provenance byte: the H source in bits 0-2, E in bits 3-4, F in bits 5-6.
_CODE_FROM_E, _CODE_FROM_F, _CODE_SUB_WAIT, _CODE_SUB, _CODE_START = 1, 2, 3, 4, 5
_CODE_EXTEND, _CODE_OPEN = 1, 2
_E_SHIFT, _F_SHIFT = 3, 5
_H_SOURCE = {
    _CODE_FROM_E: H_FROM_E,
    _CODE_FROM_F: H_FROM_F,
    _CODE_SUB_WAIT: H_SUB_WAIT,
    _CODE_SUB: H_SUB,
    _CODE_START: H_START,
}
_GAP_SOURCE = {_CODE_EXTEND: G_EXTEND, _CODE_OPEN: G_OPEN}
#: register -> (bit shift, field mask, code -> source name)
_FIELDS = {
    "h": (0, 0x7, _H_SOURCE),
    "e": (_E_SHIFT, 0x3, _GAP_SOURCE),
    "f": (_F_SHIFT, 0x3, _GAP_SOURCE),
}
#: The substitution source by destination layer: the wait cell delivers
#: into layer 0, the direct edge into layer 1.
_SUB_CODES = np.array([_CODE_SUB_WAIT, _CODE_SUB], dtype=np.uint8).reshape(
    2, 1, 1, 1
)

# Byte codes outside a string: never equal to each other or to ASCII.
_PAD_REF, _PAD_QUERY = 254, 255

#: Registers are int32 and store score x as x + _ZERO, so -inf is 0 and
#: selection is ``value * mask``; anything at or below _REAL is -inf.
_ZERO = 2**30
_REAL = _ZERO // 2

#: Provenance bytes one chunk of traceback lanes may hold.  A lane needs
#: ``(cycles + 1) * 2 * (K+1)^2`` bytes, so at K = 40 a 101 bp read
#: against its 141 bp window takes ~0.6 MB and a chunk holds ~13 lanes.
PROVENANCE_BUDGET = 8 << 20


@dataclass(frozen=True)
class DenseForward:
    """Registers a forward pass leaves behind, lane-minor."""

    best: np.ndarray  # (2, K+1, K+1, lanes): best H per state, stored + _ZERO
    best_cycle: np.ndarray  # same shape, int32: cycle that best was set (-1: never)
    cycles: np.ndarray  # (lanes,) the streaming phase's length per lane
    final: Optional[List[Optional[int]]]  # final-cell H per lane (None: unreached)
    provenance: Optional[np.ndarray]  # (cycles+1, 2, K+1, K+1, lanes) uint8


def _encode(strings: Sequence[str], width: int, offset: int, pad: int) -> np.ndarray:
    """Position-major byte codes: string *l* in column *l* from row *offset*."""
    codes = np.full((width, len(strings)), pad, dtype=np.uint8)
    for lane, text in enumerate(strings):
        codes[offset : offset + len(text), lane] = np.frombuffer(
            text.encode("ascii"), dtype=np.uint8
        )
    return codes


def dense_forward(
    k: int,
    scheme: ScoringScheme,
    references: Sequence[str],
    queries: Sequence[str],
    provenance: bool = False,
    final: bool = False,
) -> DenseForward:
    """Stream every (reference, query) lane through the machine at once.

    Lane *l* runs ``max(len(ref), len(query)) + K + 2`` cycles, as the
    object machine does.  Each cycle updates only the box of grid cells
    some lane can hold (``c - len(ref) <= i <= c``, likewise for d, and
    ``i + d <= K``); every cell outside it is out of range, so its
    registers are -inf and nothing there is recorded.  Arrays are
    lane-minor, so a box row of every lane is one contiguous run, and
    selection is arithmetic (``value * mask``, -inf stored as 0) rather
    than ``np.where``.  -inf is therefore not one value: anything at or
    below ``_REAL`` is -inf, because a value derived from -inf only ever
    moves by one step's score per string character consumed, which stays
    below ``_ZERO // 4`` (checked on entry).
    ``provenance`` keeps the per-cycle source byte the trail walk needs;
    ``final`` reads the both-strings-consumed cell each cycle.
    """
    lanes = len(references)
    size = k + 1
    ref_lens = [len(r) for r in references]
    query_lens = [len(q) for q in queries]
    lane_cycles = np.maximum(
        np.array(ref_lens, dtype=np.int64), np.array(query_lens, dtype=np.int64)
    ) + (k + 2)
    cycles = int(lane_cycles.max()) if lanes else 0
    longest_ref = max(ref_lens, default=0)
    longest_query = max(query_lens, default=0)
    step = max(
        scheme.match, -scheme.substitution, -(scheme.gap_open + scheme.gap_extend)
    )
    if step * (longest_ref + longest_query) >= _ZERO // 4:
        raise ValueError("scores of this batch would overflow the int32 registers")
    # The cell (i, d) compares R[c-1-i] with Q[c-1-d] at cycle c.  With
    # character j stored at row K+1+j, row c+K-i holds R[c-1-i].
    width = cycles + size
    ref_codes = _encode(references, width, size, _PAD_REF)
    query_codes = _encode(queries, width, size, _PAD_QUERY)

    # Registers carry a -inf border at i = -1 and d = -1 (index 0): cell
    # (i, d) lives at [i+1, d+1], so every parent slice is in range.
    padded = (2, size + 1, size + 1, lanes)
    h = np.zeros(padded, dtype=np.int32)
    h[0, 1, 1] = _ZERO
    e = np.zeros(padded, dtype=np.int32)
    f = np.zeros(padded, dtype=np.int32)
    wait = np.zeros((size + 1, size + 1, lanes), dtype=np.int32)
    best = np.zeros((2, size, size, lanes), dtype=np.int32)
    best[0, 0, 0] = _ZERO
    best_cycle = np.full((2, size, size, lanes), -1, dtype=np.int32)
    best_cycle[0, 0, 0] = 0
    record: Optional[np.ndarray] = None
    if provenance:
        record = np.zeros((cycles + 1, 2, size, size, lanes), dtype=np.uint8)
        record[0, 0, 0, 0] = _CODE_START
    final_h: Optional[List[Optional[int]]] = [None] * lanes if final else None

    open_ext = scheme.gap_open + scheme.gap_extend
    ext = scheme.gap_extend
    sub = scheme.substitution
    match = scheme.match
    from_f = np.uint8(_CODE_FROM_F)
    i_lo = d_lo = 0
    for cycle in range(1, cycles + 1):
        last_i_lo, last_d_lo = i_lo, d_lo
        i_lo = max(0, cycle - longest_ref)
        d_lo = max(0, cycle - longest_query)
        i_hi = min(cycle, k - d_lo)
        d_hi = min(cycle, k - i_lo)
        if i_lo > i_hi or d_lo > d_hi:
            break  # no lane holds a cell any more: nothing else changes
        # The box in padded coordinates; box_i/box_d index the unpadded
        # arrays and, in padded ones, the box shifted to i-1 / d-1.
        rows = slice(i_lo + 1, i_hi + 2)
        cols = slice(d_lo + 1, d_hi + 2)
        box_i = slice(i_lo, i_hi + 1)
        box_d = slice(d_lo, d_hi + 1)

        r_chars = ref_codes[cycle + k - i_hi : cycle + k - i_lo + 1][::-1]
        q_chars = query_codes[cycle + k - d_hi : cycle + k - d_lo + 1][::-1]
        r_char = r_chars != _PAD_REF  # 1 <= r_len <= len(ref)
        q_char = q_chars != _PAD_QUERY
        # In range also admits the empty prefix (i == cycle, r_len == 0).
        r_ok = r_char
        if cycle <= i_hi:
            r_ok = r_char.copy()
            r_ok[cycle - i_lo] = True
        q_ok = q_char
        if cycle <= d_hi:
            q_ok = q_char.copy()
            q_ok[cycle - d_lo] = True
        chars = r_char[:, None] & q_char[None]
        equal = r_chars[:, None] == q_chars[None]  # implies chars
        mismatch = chars ^ equal

        # E: insertion edge along i; consumes a query character.
        open_e = h[:, box_i, cols] + open_ext
        extend_e = e[:, box_i, cols] + ext
        e_new = np.maximum(open_e, extend_e) * (r_ok[:, None] & q_char[None])

        # F: deletion edge along d; consumes a reference character.
        open_f = h[:, rows, box_d] + open_ext
        extend_f = f[:, rows, box_d] + ext
        f_new = np.maximum(open_f, extend_f) * (r_char[:, None] & q_ok[None])

        # Wait latch: a layer-1 state whose comparison this cycle fails
        # holds its substitution for delivery one diagonal on.
        h_box = h[:, rows, cols]
        wait_new = (h_box[1] + sub) * mismatch

        # H: substitution edges (via the previous cycle's wait cells into
        # layer 0, direct into layer 1), gap closes, match self-loop.
        edge = np.empty_like(e_new)
        np.multiply(wait[box_i, box_d], chars, out=edge[0])
        np.multiply(h_box[0] + sub, mismatch, out=edge[1])
        edge_best = np.maximum(np.maximum(edge, f_new), e_new)
        self_loop = (h_box + match) * equal
        h_new = np.maximum(self_loop, edge_best)  # the self-loop wins ties

        best_box = best[:, box_i, box_d]
        improved = h_new > best_box
        np.maximum(best_box, h_new, out=best_box)
        cycle_box = best_cycle[:, box_i, box_d]
        np.maximum(cycle_box, improved * np.int32(cycle), out=cycle_box)

        if record is not None:
            # Source priority sub/sub_wait > from_f > from_e is also code
            # order, so the H code is a max over the sources that tie.
            h_set = (edge_best > self_loop) & (edge_best > _REAL)
            code = np.maximum(
                (edge == edge_best) * _SUB_CODES, (f_new == edge_best) * from_f
            )
            np.maximum(code, h_set, out=code)
            code *= h_set
            # Gap codes: extend = 1, open = 2 (open wins ties).
            for gap, opened, extended, shift in (
                (e_new, open_e, extend_e, _E_SHIFT),
                (f_new, open_f, extend_f, _F_SHIFT),
            ):
                gap_set = gap > _REAL
                gap_open = gap_set & (opened >= extended)
                code += (gap_set.view(np.uint8) + gap_open.view(np.uint8)) << shift
            record[cycle, :, box_i, box_d] = code

        h[:, rows, cols] = h_new
        e[:, rows, cols] = e_new
        f[:, rows, cols] = f_new
        wait[rows, cols] = wait_new
        # Cells the box left behind are out of range from now on.
        for registers in (h, e, f):
            registers[:, last_i_lo + 1 : i_lo + 1] = 0
            registers[:, :, last_d_lo + 1 : d_lo + 1] = 0
        wait[last_i_lo + 1 : i_lo + 1] = 0
        wait[:, last_d_lo + 1 : d_lo + 1] = 0

        if final_h is not None:
            # The cell holding both whole strings this cycle, if any.
            for lane in range(lanes):
                fi = cycle - ref_lens[lane]
                fd = cycle - query_lens[lane]
                if fi < 0 or fd < 0 or fi + fd > k:
                    continue
                for layer in (0, 1):
                    value = int(h[layer, fi + 1, fd + 1, lane])
                    if fi + fd + layer > k or value <= _REAL:
                        continue
                    current = final_h[lane]
                    if current is None or value - _ZERO > current:
                        final_h[lane] = value - _ZERO
    return DenseForward(
        best=best,
        best_cycle=best_cycle,
        cycles=lane_cycles,
        final=final_h,
        provenance=record,
    )


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
        forward = dense_forward(self.k, self.scheme, [reference], [query], final=True)
        assert forward.final is not None
        best = int((forward.best * self._edits_ok).max()) - _ZERO
        final = forward.final[0]
        if not reference and not query:
            final = 0
        return DenseScoringResult(
            best_score=best, final_score=final, cycles=int(forward.cycles[0])
        )

    def best_score(self, reference: str, query: str) -> int:
        return self.run(reference, query).best_score


class _DenseTrail(TrailWalker):
    """The trail over one lane's provenance record.

    A snapshot at cycle t is the record as the object machine's registers
    hold it after a run truncated at t: per register, the last source set
    at or before t.  Restoring a re-run snapshot is therefore just moving
    t — the strings are never streamed again.
    """

    def __init__(self, record: np.ndarray, reference_len: int, query_len: int) -> None:
        super().__init__(reference_len, query_len)
        self.record = record  # (cycles + 1, 2, K+1, K+1) uint8
        self.snapshot = record.shape[0] - 1

    def _lookup(self, state: State, register: str) -> _RegisterRecord:
        i, d, layer = state
        shift, mask, sources = _FIELDS[register]
        history = (self.record[: self.snapshot + 1, layer, i, d] >> shift) & mask
        set_at = np.flatnonzero(history)
        if not set_at.size:
            return _RegisterRecord()
        time = int(set_at[-1])
        return _RegisterRecord(sources[int(history[time])], time)

    def _restore(self, upto_cycle: int) -> None:
        self.snapshot = upto_cycle


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

        Lanes run in chunks whose provenance record fits
        ``PROVENANCE_BUDGET``; a lane's result never depends on the
        chunk it lands in.
        """
        if len(references) != len(queries):
            raise ValueError(
                f"{len(references)} references for {len(queries)} queries"
            )
        cells = 2 * (self.k + 1) ** 2
        longest = max(
            (max(len(r), len(q)) for r, q in zip(references, queries)), default=0
        )
        lane_bytes = (longest + self.k + 3) * cells
        per_chunk = max(1, PROVENANCE_BUDGET // lane_bytes)
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
        forward = dense_forward(
            k, self.scheme, references, queries, provenance=True
        )
        record = forward.provenance
        assert record is not None
        lanes = len(references)
        # Winner per lane: highest best > 0 within the edit bound, then
        # the earliest cycle, then the smallest (i, d, layer).
        best = forward.best
        eligible = self._edits_ok & (best > _ZERO)
        top = (best * eligible).max(axis=(0, 1, 2))
        tied = eligible & (best == top)
        first = np.where(tied, forward.best_cycle, np.iinfo(np.int32).max).min(
            axis=(0, 1, 2)
        )
        tied &= forward.best_cycle == first
        # (i, d, layer)-major flat order: argmax finds the smallest state.
        flat = tied.transpose(3, 1, 2, 0).reshape(lanes, -1).argmax(axis=1)
        results: List[TracebackResult] = []
        for lane in range(lanes):
            stream_cycles = int(forward.cycles[lane])
            best_score = int(top[lane]) - _ZERO
            if best_score <= 0:
                results.append(clipped_result(k, stream_cycles))
                continue
            i, rest = divmod(int(flat[lane]), 2 * (k + 1))
            d, layer = divmod(rest, 2)
            walker = _DenseTrail(
                record[..., lane], len(references[lane]), len(queries[lane])
            )
            results.append(
                traced_result(
                    k,
                    best_score,
                    (i, d, layer),
                    int(first[lane]),
                    stream_cycles,
                    walker,
                )
            )
        return results
