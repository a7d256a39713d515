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

#: The batched kernel's "no score" value.  Cells outside a lane's DP hold
#: it, and values derived only from it stay far below any real score
#: (they move by one penalty or match per cell), so they lose every
#: comparison against a real value exactly as the scalar ``NEG_INF``
#: clamps do.  Such cells are never on a traceback path.
_FLOOR = -(1 << 40)

#: Code outside a string; never a Unicode code point.
_PAD = 0xFFFFFFFF


def _code_points(text: str) -> NDArray[np.uint32]:
    """Exact per-character codes, so any letter compares like ``str ==``."""
    return np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)


#: Traceback-pointer bytes one pass of :func:`batch_banded_extension_align`
#: may hold.  A lane needs ``(longest window + 1) * (2B + 1)`` bytes: a
#: 101 bp read at band 40 takes ~11 kB (a pass holds ~2,900 lanes), a
#: 2 kbp read at band 125 ~0.5 MB (~60 lanes).
POINTER_BUDGET = 32 << 20


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

    Scores live for two rows only; traceback keeps one packed pointer
    byte per frame cell per lane, ``(longest window + 1) * lanes *
    (2B + 1)`` bytes, which the per-lane walk reads back.  Lanes run in
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
    """One vectorised pass of :func:`batch_banded_extension_align`."""
    lanes = len(references)
    # Longest window first: the lanes still streaming rows at row i are
    # then always a prefix, so finished lanes drop out by slicing.
    order = sorted(range(lanes), key=lambda lane: -len(references[lane]))
    ref_lens = [len(references[lane]) for lane in order]
    lane_bands = np.array([bands[lane] for lane in order], dtype=np.int64)
    top = int(lane_bands.max())
    width = 2 * top + 1
    rows = ref_lens[0]
    match, sub = scheme.match, scheme.substitution
    gap_open, gap_extend = scheme.gap_open, scheme.gap_extend

    # Query codes padded so row i reads frame column c = j - i + top at
    # qcodes[:, i - 1 + c]; ``qdead`` marks the positions off the query.
    ref_codes = np.full((lanes, rows), _PAD, dtype=np.uint32)
    qcodes = np.full((lanes, rows + 2 * top), _PAD, dtype=np.uint32)
    qdead = np.ones((lanes, rows + 2 * top), dtype=np.bool_)
    row0_run = np.zeros(lanes, dtype=np.int64)  # row-0 gap run: min(m, band)
    for slot, lane in enumerate(order):
        reference, query = references[lane], queries[lane]
        ref_codes[slot, : len(reference)] = _code_points(reference)
        reach = min(len(query), rows + top)
        qcodes[slot, top : top + reach] = _code_points(query[:reach])
        qdead[slot, top : top + reach] = False
        row0_run[slot] = min(len(query), bands[lane])
    columns = np.arange(width, dtype=np.int64)
    off_band = np.abs(columns - top)[None, :] > lane_bands[:, None]

    # H and F rows carry one padding column each side (always _FLOOR), so
    # the up-neighbour of frame column c is padded column c + 2.
    h_prev = np.full((lanes, width + 2), _FLOOR, dtype=np.int64)
    f_prev = np.full((lanes, width + 2), _FLOOR, dtype=np.int64)
    h_cur = np.full((lanes, width + 2), _FLOOR, dtype=np.int64)
    f_cur = np.full((lanes, width + 2), _FLOOR, dtype=np.int64)
    e_row = np.empty((lanes, width), dtype=np.int64)
    pointers = np.zeros((rows + 1, lanes, width), dtype=np.uint8)

    # Row 0: the origin, then a leading insertion run along the band.
    run = np.arange(1, top + 1, dtype=np.int64)
    on_run = run[None, :] <= row0_run[:, None]
    h_prev[:, top + 1] = 0
    h_prev[:, top + 2 : width + 1] = np.where(
        on_run, gap_open + gap_extend * run, _FLOOR
    )
    pointers[0, :, top + 1 :] = np.where(
        on_run, _BIT_LEFT | np.where(run > 1, _BIT_E_EXT, 0), 0
    )

    # E at column c opened from G at c' < c scores
    # (gap_open + gap_extend * c) + (-gap_extend * c').
    e_ramp = gap_open + gap_extend * columns
    g_ramp = -gap_extend * columns
    # Each row's first maximum; row 0 stands for the origin (0, 0).
    row_best = np.full((rows + 1, lanes), _FLOOR, dtype=np.int64)
    row_best[0] = 0
    row_arg = np.full((rows + 1, lanes), top, dtype=np.intp)
    live = lanes
    for i in range(1, rows + 1):
        while ref_lens[live - 1] < i:
            live -= 1
        hp, fp = h_prev[:live], f_prev[:live]
        h_row, f_row = h_cur[:live, 1:-1], f_cur[:live, 1:-1]
        window = slice(i - 1, i - 1 + width)
        invalid = qdead[:live, window] | off_band[:live]

        same = qcodes[:live, window] == ref_codes[:live, i - 1 : i]
        diag = hp[:, 1:-1] + np.where(same, match, sub)
        f_open = hp[:, 2:] + (gap_open + gap_extend)
        f_extend = fp[:, 2:] + gap_extend
        f_ext = f_extend > f_open
        f_val = np.maximum(f_open, f_extend)
        up = f_val > diag
        g_val = np.maximum(diag, f_val)
        np.putmask(g_val, invalid, _FLOOR)
        # Column-0 seed (i, 0), a leading deletion run of length i, sits
        # at frame column top - i of the lanes whose band reaches it.
        seed_col = top - i
        seeded = lane_bands[:live] >= i if seed_col >= 0 else None
        seed = gap_open + gap_extend * i
        if seeded is not None:
            g_val[:, seed_col] = np.where(seeded, seed, g_val[:, seed_col])

        e_val = e_row[:live]
        e_val[:, 0] = _FLOOR
        np.add(
            np.maximum.accumulate(g_val + g_ramp, axis=1)[:, :-1],
            e_ramp[1:],
            out=e_val[:, 1:],
        )
        left = e_val > g_val
        np.maximum(g_val, e_val, out=h_row)
        np.putmask(h_row, invalid, _FLOOR)
        np.copyto(f_row, f_val)
        np.putmask(f_row, invalid, _FLOOR)
        if seeded is not None:
            h_row[:, seed_col] = np.where(seeded, seed, h_row[:, seed_col])
            f_row[:, seed_col] = np.where(seeded, seed, f_row[:, seed_col])

        ptr = pointers[i, :live]
        np.copyto(ptr, f_ext)
        ptr <<= 1
        # E at c extends E at c - 1 only if that strictly beats opening
        # from H at c - 1 (both pay gap_extend for the new base).
        ptr[:, 1:] |= e_val[:, :-1] > h_row[:, :-1] + gap_open
        ptr <<= 1
        ptr |= left
        ptr <<= 1
        ptr |= up
        if seeded is not None:
            seed_ptr = _BIT_UP | (_BIT_F_EXT if i > 1 else 0)
            ptr[:, seed_col] = np.where(seeded, seed_ptr, ptr[:, seed_col])

        np.max(h_row, axis=1, out=row_best[i, :live])
        np.argmax(h_row, axis=1, out=row_arg[i, :live])
        h_prev, h_cur = h_cur, h_prev
        f_prev, f_cur = f_cur, f_prev

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
    :func:`_banded_traceback` never fires either).
    """
    ops: List[Tuple[int, str]] = []
    i, j = end_i, end_j
    state = "H"
    while i > 0 or j > 0:
        byte = trail[i * width + j - i + top]
        if state == "H":
            if byte & _BIT_LEFT:
                state = "E"
            elif byte & _BIT_UP:
                state = "F"
            else:
                ops.append((1, "=" if reference[i - 1] == query[j - 1] else "X"))
                i -= 1
                j -= 1
        elif state == "E":
            ops.append((1, "I"))
            j -= 1
            state = "E" if byte & _BIT_E_EXT else "H"
        else:
            ops.append((1, "D"))
            i -= 1
            state = "F" if byte & _BIT_F_EXT else "H"
    ops.reverse()
    return Cigar.from_ops(ops), i, j


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
