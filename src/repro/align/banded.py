"""Banded Smith-Waterman / Gotoh alignment.

BWA-MEM and the DRAGEN platform restrict the DP to a ``2K+1``-wide band
around the principal diagonal [27] — cells further than K from the diagonal
cannot belong to any alignment with at most K indels.  This is the software
comparator used in Fig. 14 (SeqAn's banded implementation) and §VIII-C.

Time and space are ``O(K*N)``.  Like the full DP, every function counts the
cells it computes so benchmarks can report machine-independent work.

:func:`banded_extension_align` computes one cell per Python step and is
the oracle.  :func:`batch_banded_extension_align` is the same DP for many
(window, read) *lanes* at once, a whole band row of every lane per NumPy
step — the "many cells per step" shape of §IV — and equals the scalar
function field by field (``banded-batch-vs-scalar`` in
:mod:`repro.difftest.oracles`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.align.cigar import Cigar
from repro.align.records import Alignment
from repro.align.scoring import BWA_MEM_SCHEME, ScoringScheme
from repro.align.smith_waterman import DPResult, NEG_INF

_STOP, _DIAG, _UP, _LEFT = 0, 1, 2, 3


def banded_extension_align(
    reference: str,
    query: str,
    band: int,
    scheme: ScoringScheme = BWA_MEM_SCHEME,
) -> DPResult:
    """Banded seed-extension alignment anchored at (0,0) with clipping.

    Only cells with ``|i - j| <= band`` are computed.  Traceback is included
    (this is the configuration whose hardware realizations need O(K*N)
    traceback space, the cost SillaX's pointer-trail design avoids).
    """
    if band < 0:
        raise ValueError(f"band must be non-negative, got {band}")
    n, m = len(reference), len(query)
    width = 2 * band + 1

    # h[i][b] where b = j - i + band indexes the band column.
    def new_row(fill: int) -> List[int]:
        return [fill] * width

    h_rows: List[List[int]] = [new_row(NEG_INF) for _ in range(n + 1)]
    e_rows: List[List[int]] = [new_row(NEG_INF) for _ in range(n + 1)]
    f_rows: List[List[int]] = [new_row(NEG_INF) for _ in range(n + 1)]
    ptr_h: List[List[int]] = [new_row(_STOP) for _ in range(n + 1)]
    ptr_e: List[List[bool]] = [[False] * width for _ in range(n + 1)]
    ptr_f: List[List[bool]] = [[False] * width for _ in range(n + 1)]

    def bidx(i: int, j: int) -> Optional[int]:
        b = j - i + band
        if 0 <= b < width and 0 <= j <= m:
            return b
        return None

    h_rows[0][band] = 0
    for j in range(1, min(m, band) + 1):
        b = j + band
        if b < width:
            gap = scheme.gap_open + scheme.gap_extend * j
            h_rows[0][b] = gap
            e_rows[0][b] = gap
            ptr_h[0][b] = _LEFT
            ptr_e[0][b] = j > 1

    best_score = 0
    best_cell = (0, 0)
    cells = 0
    for i in range(1, n + 1):
        ref_base = reference[i - 1]
        b0 = bidx(i, 0)
        if b0 is not None and i <= band:
            gap = scheme.gap_open + scheme.gap_extend * i
            h_rows[i][b0] = gap
            f_rows[i][b0] = gap
            ptr_h[i][b0] = _UP
            ptr_f[i][b0] = i > 1
        lo = max(1, i - band)
        hi = min(m, i + band)
        for j in range(lo, hi + 1):
            cells += 1
            b = j - i + band
            # E: gap in reference (insertion) comes from (i, j-1) = band b-1.
            e_val = NEG_INF
            e_ext = False
            if b - 1 >= 0:
                open_e = h_rows[i][b - 1] + scheme.gap_open + scheme.gap_extend
                extend_e = e_rows[i][b - 1] + scheme.gap_extend
                if open_e >= extend_e:
                    e_val = open_e
                else:
                    e_val, e_ext = extend_e, True
            e_rows[i][b] = e_val
            ptr_e[i][b] = e_ext

            # F: gap in query (deletion) comes from (i-1, j) = band b+1.
            f_val = NEG_INF
            f_ext = False
            if b + 1 < width:
                open_f = h_rows[i - 1][b + 1] + scheme.gap_open + scheme.gap_extend
                extend_f = f_rows[i - 1][b + 1] + scheme.gap_extend
                if open_f >= extend_f:
                    f_val = open_f
                else:
                    f_val, f_ext = extend_f, True
            f_rows[i][b] = f_val
            ptr_f[i][b] = f_ext

            # Diagonal comes from (i-1, j-1) = same band index in row i-1.
            diag_h = h_rows[i - 1][b]
            diag = diag_h + scheme.compare(ref_base, query[j - 1]) if diag_h > NEG_INF else NEG_INF

            score, direction = diag, _DIAG
            if f_val > score:
                score, direction = f_val, _UP
            if e_val > score:
                score, direction = e_val, _LEFT
            h_rows[i][b] = score
            ptr_h[i][b] = direction if score > NEG_INF else _STOP
            if score > best_score:
                best_score = score
                best_cell = (i, j)

    cigar, ref_start, query_start = _banded_traceback(
        ptr_h, ptr_e, ptr_f, reference, query, best_cell, band
    )
    alignment = Alignment(
        score=best_score,
        reference_start=ref_start,
        reference_end=best_cell[0],
        query_start=query_start,
        query_end=best_cell[1],
        cigar=cigar,
    )
    return DPResult(alignment=alignment, cells_computed=cells)


def _banded_traceback(
    ptr_h: List[List[int]],
    ptr_e: List[List[bool]],
    ptr_f: List[List[bool]],
    reference: str,
    query: str,
    end: Tuple[int, int],
    band: int,
) -> Tuple[Cigar, int, int]:
    ops: List[Tuple[int, str]] = []
    i, j = end
    state = "H"
    while i > 0 or j > 0:
        b = j - i + band
        if state == "H":
            direction = ptr_h[i][b]
            if direction == _STOP:
                break
            if direction == _DIAG:
                ops.append((1, "=" if reference[i - 1] == query[j - 1] else "X"))
                i -= 1
                j -= 1
            elif direction == _UP:
                state = "F"
            else:
                state = "E"
        elif state == "E":
            ops.append((1, "I"))
            extend = ptr_e[i][b]
            j -= 1
            state = "E" if extend else "H"
        else:
            ops.append((1, "D"))
            extend = ptr_f[i][b]
            i -= 1
            state = "F" if extend else "H"
    ops.reverse()
    return Cigar.from_ops(ops), i, j


#: Packed pointer byte of the batched kernel: bit 0 = H came from F (up),
#: bit 1 = H came from E (left; wins over bit 0), bit 2 = E extends, bit
#: 3 = F extends.  A byte with neither direction bit is a diagonal step.
_BIT_UP, _BIT_LEFT, _BIT_E_EXT, _BIT_F_EXT = 1, 2, 4, 8

#: Code outside a string; never a Unicode code point.
_PAD = 0xFFFFFFFF


def _code_points(text: str) -> NDArray[np.uint32]:
    """Exact per-character codes, so any letter compares like ``str ==``."""
    return np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)


#: Memory one pass of :func:`batch_banded_extension_align` may hold for
#: traceback pointers, one byte per frame cell per lane per row.  A lane
#: needs ``(longest window + 1) * (2B + 1)`` bytes: a 101 bp read at
#: band 40 takes ~11 kB (a pass holds ~2,900 lanes), a 2 kbp read at
#: band 125 ~0.5 MB (~60 lanes).  The row-block buffers of the pass take
#: at most a further ``POINTER_BUDGET // 16``.
POINTER_BUDGET = 32 << 20

#: Bytes the row blocks of one pass may hold.
_BLOCK_BYTES = POINTER_BUDGET // 16

#: Block-buffer bytes per padded frame cell of one block row: nine int32
#: rows (diagonal scores, F bound, diagonal, F open and extend, H and F,
#: G, the E prefix maximum) and six byte planes (character equality, the
#: four pointer bits, the packed pointer byte).
_BLOCK_CELL_BYTES = 9 * 4 + 6

#: Largest number of score steps the int32 kernel may hold; see
#: :func:`_score_dtype`.
_INT32_REACH = 1 << 27


def _score_dtype(
    rows: int, cols: int, width: int, scheme: ScoringScheme
) -> type:
    """The kernel's score type: int32 unless a lane could outgrow it.

    A real score, its column ramp, and any value that drifted from the
    floor each move by at most ``step`` per row, column or frame column,
    so every value stays within ``(rows + cols + width + 2) * step`` of
    zero, of the floor or of the floor minus the pad penalty.  While that
    reach is at most ``_INT32_REACH`` (2^27) the int32 constants of
    :func:`_banded_pass` (floor -2^29, pad penalty 2^30) keep every cell
    that is not a real score below every real one, with no overflow;
    beyond it the pass runs in int64.
    """
    step = (
        max(scheme.match, -scheme.substitution)
        - scheme.gap_open
        - scheme.gap_extend
    )
    if (rows + cols + width + 2) * step <= _INT32_REACH:
        return np.int32
    return np.int64


def batch_banded_extension_align(
    references: Sequence[str],
    queries: Sequence[str],
    bands: Sequence[int],
    scheme: ScoringScheme = BWA_MEM_SCHEME,
) -> List[DPResult]:
    """:func:`banded_extension_align` over many lanes, one band row per step.

    Lane *l* aligns ``queries[l]`` against ``references[l]`` with band
    ``bands[l]``; windows, reads and bands may all differ.  Every lane
    shares one diagonal frame ``d = j - i`` in ``[-B, B]`` for the
    largest band ``B``, and each row of all live lanes is updated by
    whole-array operations: ``F`` and the diagonal from the previous row,
    then the in-row ``E`` chain as a prefix maximum.  That prefix maximum
    is exact because ``gap_open <= 0``: opening a gap from a cell whose
    best came from ``E`` never beats extending that ``E``.  Ties break as
    in the scalar code (diagonal, then ``F``, then ``E``; open before
    extend), the best cell is the first strict row-major maximum, and
    result *l* equals ``banded_extension_align(references[l],
    queries[l], bands[l], scheme)`` in every field.

    Scores live for one block of rows only; traceback keeps one packed
    pointer byte per frame cell per lane, ``(longest window + 1) * lanes
    * (2B + 1)`` bytes, which the per-lane walk reads back.  Lanes run in
    even chunks, in lane order, whose pointer array fits
    ``POINTER_BUDGET``; a lane's result never depends on the chunk it
    lands in.
    """
    lanes = len(references)
    if len(queries) != lanes or len(bands) != lanes:
        raise ValueError(
            f"got {lanes} references, {len(queries)} queries and "
            f"{len(bands)} bands; need one of each per lane"
        )
    for band in bands:
        if band < 0:
            raise ValueError(f"band must be non-negative, got {band}")
    if not lanes:
        return []
    lane_bytes = (max(len(r) for r in references) + 1) * (2 * max(bands) + 1)
    chunks = -(-lanes // max(1, POINTER_BUDGET // lane_bytes))
    size = -(-lanes // chunks)
    results: List[DPResult] = []
    for start in range(0, lanes, size):
        stop = start + size
        results.extend(
            _banded_pass(
                references[start:stop],
                queries[start:stop],
                bands[start:stop],
                scheme,
            )
        )
    return results


def _banded_pass(
    references: Sequence[str],
    queries: Sequence[str],
    bands: Sequence[int],
    scheme: ScoringScheme,
) -> List[DPResult]:
    """One vectorised pass of :func:`batch_banded_extension_align`.

    Layout: the live lanes' band rows lie side by side in one flat array,
    each lane ``[pad, 2B + 1 frame columns, pad]``, so a cell's up-right
    neighbour (``F``'s source) is the next element and one NumPy call
    updates a whole row of every lane on contiguous memory.  Scores are
    held plus a column ramp ``-gap_extend * p`` (``p`` the padded
    column): ``F`` then steps by constants, the ``E`` chain becomes a
    plain prefix maximum along each lane's padded row, and every
    comparison the pointer bits need is unchanged.

    Cells off a lane's DP need no mask.  A real cell reads only real
    cells, cells left of its row's real span, and ``F`` through the
    band's right edge.  So ``F`` is clamped to the floor off the DP and
    on that edge (a ``minimum`` against a bound row), and the left pad's
    diagonal score is minus a pad penalty, which sinks what the previous
    lane's ``E`` chain leaves there.  Cells left of the real span then
    stay within the floor's drift (the floor is ``-2^29`` in int32 and
    drifts by at most one step per row), cells right of it hold bounded
    values nothing real reads, and the row maxima clamp both to the
    floor before they are taken.  :func:`_score_dtype` picks int32 when
    every such bound fits it.  The column-0 seeds ``(i, 0)`` need no
    case of their own: ``F`` carries the leading deletion run down from
    the origin and yields exactly the scalar seed scores.

    Rows run in blocks of as many rows as fit ``_BLOCK_BYTES``
    (``POINTER_BUDGET // 16``).  A block first builds its diagonal
    scores and ``F`` bounds in bulk, then runs its rows at eight NumPy
    calls each, then derives the pointer bits from the rows it stored,
    packs them into bytes and takes every row's maximum at once.  A
    block runs every lane still streaming at its first row; a lane that
    ends inside it computes rows against the pad code, which only lose
    score and are never read back.
    """
    lanes = len(references)
    # Longest window first: the lanes still streaming rows at row i are
    # then always a prefix, so finished lanes drop out by slicing.
    order = sorted(range(lanes), key=lambda lane: -len(references[lane]))
    ref_lens = np.array([len(references[lane]) for lane in order])
    query_lens = np.array([len(queries[lane]) for lane in order])
    lane_bands = np.array([bands[lane] for lane in order])
    top = int(lane_bands.max())
    width = 2 * top + 1
    stride = width + 2
    rows = int(ref_lens[0])
    dtype = _score_dtype(rows, int(query_lens.max()), width, scheme)
    limits = np.iinfo(dtype)
    floor, ceiling = dtype(limits.min // 4), dtype(limits.max)
    pad_penalty = dtype(limits.max // 2)
    match, sub = scheme.match, scheme.substitution
    gap_open, gap_extend = scheme.gap_open, scheme.gap_extend

    # Query codes padded so row i reads padded column p (frame column
    # p - 1, query column j = i + p - 1 - top) at qcodes[:, i - 1 + p];
    # the bounds on j are laid out the same way.  One spare position
    # gives a pass of empty windows a window too.
    span = rows + stride
    ref_codes = np.full((rows, lanes), _PAD, dtype=np.uint32)
    qcodes = np.full((lanes, span), _PAD, dtype=np.uint32)
    for slot, lane in enumerate(order):
        reference, query = references[lane], queries[lane]
        ref_codes[: len(reference), slot] = _code_points(reference)
        reach = min(len(query), rows + top)
        qcodes[slot, top + 1 : top + 1 + reach] = _code_points(query[:reach])
    j = np.arange(-top, span - top)
    m = query_lens[:, None]
    d = np.arange(-top - 1, top + 2)
    b = lane_bands[:, None]
    # F is real on 0 <= j <= m inside the band but off its right edge
    # (the scalar F there reads outside the band); H on 1 <= j <= m.
    # Pads are outside every band.
    f_reach = np.where((0 <= j) & (j <= m), ceiling, floor)
    f_band = np.where((-b <= d) & (d < b), ceiling, floor)
    h_reach = np.where((1 <= j) & (j <= m), ceiling, floor)
    h_band = np.where(np.abs(d) <= b, ceiling, floor)
    windows = np.lib.stride_tricks.sliding_window_view
    query_rows = windows(qcodes, stride, axis=1).transpose(1, 0, 2)
    f_rows = windows(f_reach, stride, axis=1).transpose(1, 0, 2)
    h_rows = windows(h_reach, stride, axis=1).transpose(1, 0, 2)

    ramp = np.arange(stride, dtype=dtype) * dtype(-gap_extend)
    flat_ramp = np.tile(ramp, lanes)
    # (F open, F extend) from the up-right (H, F), in ramped units.
    f_steps = np.array(
        [[gap_open + 2 * gap_extend], [2 * gap_extend]], dtype=dtype
    )
    plane_shifts = np.arange(4, dtype=np.uint64)[:, None]

    # Row 0: the origin, then a leading insertion run along the band.
    run = np.arange(top + 1)
    on_run = run <= np.minimum(m, b)
    row0 = np.full((lanes, stride), floor, dtype=dtype)
    row0[:, 1 + top : 1 + width] = np.where(
        on_run,
        np.where(run > 0, gap_open + gap_extend * run, 0)
        + ramp[1 + top : 1 + width],
        floor,
    )
    pointers = np.zeros((rows + 1, lanes, width), dtype=np.uint8)
    pointers[0, :, top:] = np.where(
        on_run & (run > 0), _BIT_LEFT | np.where(run > 1, _BIT_E_EXT, 0), 0
    )
    carry = np.empty((2, lanes * stride), dtype=dtype)
    carry[0] = row0.ravel()
    carry[1] = floor

    # Each row's first maximum; row 0 stands for the origin (0, 0).
    row_best = np.full((rows + 1, lanes), floor, dtype=dtype)
    row_best[0] = 0
    row_arg = np.full((rows + 1, lanes), top, dtype=np.intp)
    live = lanes
    i = 1
    while i <= rows:
        while ref_lens[live - 1] < i:
            live -= 1
        cells = live * stride
        fit = _BLOCK_BYTES // (cells * _BLOCK_CELL_BYTES)
        count = min(rows + 1 - i, max(1, fit))
        block = slice(i - 1, i - 1 + count)

        # Diagonal scores and F bounds of the whole block.
        same = np.equal(
            query_rows[block, :live], ref_codes[block, :live, None]
        )
        score = np.multiply(same, dtype(match - sub), dtype=dtype)
        np.add(score, dtype(sub), out=score)
        score[:, :, 0] = -pad_penalty
        f_cap = np.minimum(f_rows[block, :live], f_band[:live])

        # hf[t] holds row i - 1 + t as (H, F); hf[0] is the carried row.
        # The last lane's right pad has no up-right neighbour.
        hf = np.empty((count + 1, 2, cells), dtype=dtype)
        hf[0] = carry[:, :cells]
        hf[1:, 1, -1] = floor
        f_pair = np.empty((count, 2, cells), dtype=dtype)
        diag = np.empty((count, cells), dtype=dtype)
        g = np.empty((count, cells), dtype=dtype)
        e_max = np.empty((count, cells), dtype=dtype)
        e = np.empty(cells, dtype=dtype)
        e[0] = floor
        e_to = e[1:]
        block_rows = zip(
            hf[:-1],
            hf[1:, 0],
            hf[1:, 1],
            hf[1:, 1, :-1],
            f_pair[:, :, :-1],
            f_cap.reshape(count, cells),
            score.reshape(count, cells),
            diag,
            g,
            g.reshape(count, live, stride),
            e_max.reshape(count, live, stride),
            e_max[:, :-1],
        )
        for (
            prev, h_row, f_row, f_to, f_from, f_bound, s_row, d_row, g_row,
            g_lanes, e_lanes, e_from,
        ) in block_rows:
            np.add(prev[:, 1:], f_steps, out=f_from)
            np.maximum(f_from[0], f_from[1], out=f_to)
            np.minimum(f_row, f_bound, out=f_row)
            np.add(prev[0], s_row, out=d_row)
            np.maximum(d_row, f_row, out=g_row)
            np.maximum.accumulate(g_lanes, axis=1, out=e_lanes)
            np.add(e_from, gap_open, out=e_to)
            np.maximum(g_row, e, out=h_row)

        # Pointer bits of the block.  At real cells: up iff F > diagonal
        # iff G > diagonal; left iff E > G iff H > G; E at p extends iff
        # E[p - 1] > H[p - 1] + gap_open, i.e. the prefix maximum at
        # p - 2 beats H at p - 1.  Each plane holds one bit per byte;
        # shifting whole 64-bit words packs eight cells per operation.
        h = hf[1:, 0]
        size = count * cells
        planes = np.empty((4, -(-size // 8) * 8), dtype=np.bool_)
        bits = planes[:, :size].reshape(4, count, cells)
        np.greater(g, diag, out=bits[0])
        np.greater(h, g, out=bits[1])
        bits[2, :, :2] = False
        np.greater(e_max[:, :-2], h[:, 1:-1], out=bits[2, :, 2:])
        np.greater(f_pair[:, 1], f_pair[:, 0], out=bits[3])
        words = planes.view(np.uint64)
        np.left_shift(words, plane_shifts, out=words)
        packed = np.bitwise_or.reduce(words, axis=0).view(np.uint8)
        pointers[i : i + count, :live] = packed[:size].reshape(
            count, live, stride
        )[:, :, 1:-1]

        # Row maxima over real cells; every other cell is clamped to the
        # floor.  A row past a lane's window never holds a new best (see
        # above), so its maximum may stand.
        scores = np.subtract(h, flat_ramp[:cells], out=diag).reshape(
            count, live, stride
        )
        np.minimum(scores, h_rows[block, :live], out=scores)
        np.minimum(scores, h_band[:live], out=scores)
        best = scores.argmax(axis=2)
        row_arg[i : i + count, :live] = best - 1
        row_best[i : i + count, :live] = np.take_along_axis(
            scores, best[:, :, None], axis=2
        )[:, :, 0]
        carry = hf[count]
        i += count

    # The scalar row-major scan keeps a new best only if strictly greater:
    # the first row holding the overall maximum, at its first maximum.
    best_rows = np.argmax(row_best, axis=0)
    slot_of = [0] * lanes
    for slot, lane in enumerate(order):
        slot_of[lane] = slot
    results: List[DPResult] = []
    for lane, slot in enumerate(slot_of):
        reference, query = references[lane], queries[lane]
        end_i = int(best_rows[slot])
        end_j = end_i + int(row_arg[end_i, slot]) - top
        trail = pointers[: end_i + 1, slot].tobytes()
        cigar, ref_start, query_start = _packed_traceback(
            trail, width, top, reference, query, end_i, end_j
        )
        alignment = Alignment(
            score=int(row_best[end_i, slot]),
            reference_start=ref_start,
            reference_end=end_i,
            query_start=query_start,
            query_end=end_j,
            cigar=cigar,
        )
        cells = _band_cells(len(reference), len(query), bands[lane])
        results.append(DPResult(alignment=alignment, cells_computed=cells))
    return results


def _band_cells(rows: int, cols: int, band: int) -> int:
    """Cells the banded DP computes: ``1 <= i <= rows``, ``1 <= j <= cols``,
    ``|i - j| <= band``."""
    i = np.arange(1, rows + 1, dtype=np.int64)
    spans = np.minimum(cols, i + band) - np.maximum(1, i - band) + 1
    return int(np.maximum(spans, 0).sum())


def _packed_traceback(
    trail: bytes,
    width: int,
    top: int,
    reference: str,
    query: str,
    end_i: int,
    end_j: int,
) -> Tuple[Cigar, int, int]:
    """Walk one lane's packed pointers (row-major, ``width`` per row).

    The walk leaves a non-negative best cell and steps only through cells
    with real scores, each of which points somewhere, so it always ends at
    the origin and needs no stop code (the stop in
    :func:`_banded_traceback` never fires either).  Runs are built during
    the walk, end first, so the :class:`Cigar` needs no merge pass.
    """
    ops: List[Tuple[int, str]] = []
    run_op, run_length = "", 0
    i, j = end_i, end_j
    state = "H"
    while i > 0 or j > 0:
        byte = trail[i * width + j - i + top]
        if state == "H":
            if byte & _BIT_LEFT:
                state = "E"
                continue
            if byte & _BIT_UP:
                state = "F"
                continue
            op = "=" if reference[i - 1] == query[j - 1] else "X"
            i -= 1
            j -= 1
        elif state == "E":
            op = "I"
            j -= 1
            state = "E" if byte & _BIT_E_EXT else "H"
        else:
            op = "D"
            i -= 1
            state = "F" if byte & _BIT_F_EXT else "H"
        if op == run_op:
            run_length += 1
        else:
            if run_length:
                ops.append((run_length, run_op))
            run_op, run_length = op, 1
    if run_length:
        ops.append((run_length, run_op))
    ops.reverse()
    return Cigar(ops=tuple(ops)), i, j


def banded_extension_score(
    reference: str,
    query: str,
    band: int,
    scheme: ScoringScheme = BWA_MEM_SCHEME,
) -> Tuple[int, int]:
    """Score-only banded extension: returns (best clipped score, cells computed).

    This is the inner loop the SeqAn CPU baseline runs in Fig. 14; keeping a
    score-only variant lets throughput benches measure the cheapest software
    formulation.
    """
    if band < 0:
        raise ValueError(f"band must be non-negative, got {band}")
    n, m = len(reference), len(query)
    width = 2 * band + 1
    h_prev = [NEG_INF] * width
    e_prev = [NEG_INF] * width
    f_prev = [NEG_INF] * width
    h_prev[band] = 0
    for j in range(1, min(m, band) + 1):
        if j + band < width:
            h_prev[j + band] = scheme.gap_open + scheme.gap_extend * j
            e_prev[j + band] = h_prev[j + band]

    best = 0
    cells = 0
    for i in range(1, n + 1):
        ref_base = reference[i - 1]
        h_cur = [NEG_INF] * width
        e_cur = [NEG_INF] * width
        f_cur = [NEG_INF] * width
        if i <= band:
            h_cur[band - i] = scheme.gap_open + scheme.gap_extend * i
            f_cur[band - i] = h_cur[band - i]
        lo = max(1, i - band)
        hi = min(m, i + band)
        for j in range(lo, hi + 1):
            cells += 1
            b = j - i + band
            e_val = NEG_INF
            if b - 1 >= 0:
                e_val = max(
                    h_cur[b - 1] + scheme.gap_open + scheme.gap_extend,
                    e_cur[b - 1] + scheme.gap_extend,
                )
            f_val = NEG_INF
            if b + 1 < width:
                f_val = max(
                    h_prev[b + 1] + scheme.gap_open + scheme.gap_extend,
                    f_prev[b + 1] + scheme.gap_extend,
                )
            diag = h_prev[b]
            if diag > NEG_INF:
                diag += scheme.compare(ref_base, query[j - 1])
            score = max(diag, e_val, f_val)
            h_cur[b] = score
            e_cur[b] = e_val
            f_cur[b] = f_val
            if score > best:
                best = score
        h_prev, e_prev, f_prev = h_cur, e_cur, f_cur
    return best, cells
