"""Batched bit-parallel Myers kernels (NumPy), the software SillaX array.

GenAx's thesis is that alignment automata should process many DP cells
per step (§IV); GenASM and Scrooge are the software proof that Myers'
bit-vector recurrence is the right CPU analogue.  This module is that
analogue for the staged pipeline: whole *batches* of (pattern, text)
pairs — one lane per pair — advance one text column per step, each lane's
entire DP column packed into ``uint64`` words, so a single NumPy
expression updates every lane's column at once.  Throughput comes from
lane count: per-column cost is a fixed handful of vectorized bitwise ops,
so the pipeline driver batches candidates *across reads* before
dispatching (see :class:`repro.pipeline.stages.PipelineDriver`).

Layout
------

Sequences arrive as one array of 2-bit codes plus window spans, not as
packed strings.  The texts are windows of one reference code array
(one byte per base, :func:`repro.genome.sequence.encode_bases`), named
by ``(start, length)`` and read with one gather.  Each pattern is
spread once into per-symbol bit-planes (``peq[pattern, symbol, word]``:
bit ``j`` set iff pattern base ``64*word+j`` equals ``symbol``), the
classic blocked-Myers equality masks, which every lane of that pattern
reads.  Lanes may have different pattern/text lengths: each lane reads
its score at its own high bit (pattern length − 1), through a flat
index computed once per call, and stops updating once its text is
exhausted, so one kernel call handles a ragged batch.

Liveness is a sorted prefix, not a mask: the kernel orders lanes by text
length, longest first, so the lanes still reading text at column ``c``
are the first ``live[c]`` rows of every state array.  Each column then
costs a fixed count of whole-array NumPy operations on ``[:live]`` slices
(``hp`` and ``hn`` stacked, so their high-bit reads and their cross-word
shift are one operation each), with no ``np.where`` over dead lanes.
That fixed count is what the lane count amortises: on 101 bp patterns the
batched kernel beats the scalar bigint scan from a few dozen lanes per
call, which is why the cascade's ``myers`` stage
(:class:`repro.filters.myers.MyersCandidateFilter`, through
:func:`semiglobal_min_windows`) answers a whole dispatch in one kernel
call.  On the bitvector backend that stage is the only verifier: the
extension engine runs the banded traceback on what it admits and no
Myers test of its own.

Bits above a lane's pattern length are garbage by construction and
provably harmless: the recurrence only moves information upward (adds
carry up within a word, the word-carry chain and the ``hp``/``hn`` shifts
go low word → high word), so bit ``m-1`` never sees them.

The recurrence is Myers' semi-global one: the horizontal carry shifted
into bit 0 is 0, so text-side gaps are free and the running minimum of
the column score is the batched
:func:`repro.align.myers.myers_semiglobal_min` — the quantity the
``myers`` stage thresholds against its edit bound.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np
from numpy.typing import NDArray

from repro.genome.sequence import DIRTY_BASE, encode_bases

__all__ = ["semiglobal_min_windows"]

#: DP-column bits per machine word (the blocked-Myers block size).
BITS_PER_WORD = 64

_ONE = np.uint64(1)
_SHIFT_ONE = np.uint64(1)
_SHIFT_TOP = np.uint64(BITS_PER_WORD - 1)
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def _peq_from_codes(codes: NDArray[np.uint8]) -> NDArray[np.uint64]:
    """Per-symbol equality bit-planes: ``peq[lane, symbol, word]``.

    *codes* holds one pattern per row, 2-bit base codes with 4 for
    padding or any base outside ``ACGT``; code 4 matches none of the four
    planes, so padding never matches any text symbol.  Bit ``j`` of a
    word is pattern base ``64*word+j``: the match masks are packed
    little-endian, eight bases to a byte, eight bytes to a word.
    """
    count, columns = codes.shape
    words = max(1, -(-columns // BITS_PER_WORD))
    padded = np.full((count, words * BITS_PER_WORD), 4, dtype=np.uint8)
    padded[:, :columns] = codes
    match = padded[:, None, :] == np.arange(4, dtype=np.uint8)[:, None]
    planes = np.packbits(match, axis=2, bitorder="little")
    return planes.view(np.dtype("<u8"))


def _ripple_add(
    eq: NDArray[np.uint64], vp: NDArray[np.uint64]
) -> NDArray[np.uint64]:
    """Blocked addition ``X = ((eq & vp) + vp) ^ vp | eq``, per lane.

    The Myers recurrence's carry chain: the addition must wrap modulo
    2**64 so ``total < addend`` recovers each word's carry-out bit,
    which ripples into the next word (Hyyro's blocked formulation).  Every
    word's sum is one whole-array add; only the carry chain walks the
    words, as carry-lookahead on bool masks: a word passes a carry on if
    its own add overflowed (*generate*) or if it is all ones and a carry
    came in (*propagate*).  This is the one place in the kernel where
    uint64 overflow is the *algorithm*, not a bug — it is sanctioned in
    ``repro.analysis.config.DTYPE_ALLOWLIST`` and cross-checked against
    arbitrary-precision Python ints by the carry-ripple property test.
    """
    addend = eq & vp
    total = addend + vp
    words = vp.shape[1]
    if words > 1:
        # carry[:, w]: the carry into word w + 1.
        carry = total[:, :-1] < addend[:, :-1]
        for word in range(1, words - 1):
            carry[:, word] |= (total[:, word] == _ALL_ONES) & carry[:, word - 1]
        total[:, 1:] += carry
    total ^= vp
    total |= eq
    return total


def _run_kernel(
    peq: NDArray[np.uint64],
    pattern_rows: NDArray[np.int64],
    pattern_lengths: NDArray[np.int64],
    text_codes: NDArray[Any],
    text_lengths: NDArray[np.int64],
) -> NDArray[np.int64]:
    """Advance every lane over its text; one iteration per text column.

    Lane ``i`` reads the equality planes ``peq[pattern_rows[i]]``, so
    lanes sharing a pattern share its planes; *pattern_lengths* and the
    text arrays are per lane.  Lanes run sorted by text length, longest
    first, so the lanes still reading text at any column are a prefix of
    the state arrays: each column updates ``[:live]`` slices and never
    masks.  Returns the per-lane minimum column score, in the caller's
    lane order (lanes with empty patterns are the caller's job — their
    high-bit index would be meaningless here).
    """
    count = len(text_lengths)
    words = peq.shape[2]
    order = np.argsort(-text_lengths, kind="stable")
    sorted_lengths = text_lengths[order]
    columns = int(sorted_lengths[0]) if count else 0
    # live[c]: how many sorted lanes still have a text base at column c.
    live = np.searchsorted(
        -sorted_lengths, -np.arange(columns, dtype=np.int64), side="left"
    )
    # Row of the flattened (lane, symbol) equality planes each sorted lane
    # reads at each column, column-major so a column's rows are contiguous.
    planes = peq.reshape(-1, words)
    plane_rows = np.ascontiguousarray(
        (pattern_rows[order] * 4)[None, :] + text_codes[order, :columns].T
    )
    vp: NDArray[np.uint64] = np.full((count, words), _ALL_ONES, dtype=np.uint64)
    vn: NDArray[np.uint64] = np.zeros((count, words), dtype=np.uint64)
    sorted_patterns = pattern_lengths[order]
    score = sorted_patterns.astype(np.int64)
    best = score.copy()
    high = np.maximum(sorted_patterns - 1, 0)
    # Flat index of each sorted lane's high word in a (lanes, words) array.
    high_word = np.arange(count) * words + high // BITS_PER_WORD
    high_bit = (high % BITS_PER_WORD).astype(np.uint64)
    for column in range(columns):
        n = int(live[column])
        eq = planes.take(plane_rows[column, :n], axis=0)
        lane_vp = vp[:n]
        lane_vn = vn[:n]
        xv = eq | lane_vn
        xh = _ripple_add(eq, lane_vp)
        # hp and hn stacked, so each step below is one array operation.
        h = np.empty((2, n, words), dtype=np.uint64)
        hp, hn = h
        np.bitwise_or(xh, lane_vp, out=hp)
        np.invert(hp, out=hp)
        hp |= lane_vn
        np.bitwise_and(lane_vp, xh, out=hn)
        high_bits = h.reshape(2, n * words)[:, high_word[:n]]
        high_bits >>= high_bit[:n]
        high_bits &= _ONE
        lane_score = score[:n]
        lane_score += high_bits[0].view(np.int64)
        lane_score -= high_bits[1].view(np.int64)
        # Shift hp/hn one bit up across word boundaries; the bit entering
        # hp's bit 0 is the semi-global horizontal carry, 0.
        shifted = h << _SHIFT_ONE
        shifted[:, :, 1:] |= h[:, :, :-1] >> _SHIFT_TOP
        hp, hn = shifted
        np.bitwise_and(hp, xv, out=lane_vn)
        xv |= hp
        np.invert(xv, out=xv)
        np.bitwise_or(hn, xv, out=lane_vp)
        np.minimum(best[:n], lane_score, out=best[:n])
    result = np.empty(count, dtype=np.int64)
    result[order] = best
    return result


def semiglobal_min_windows(
    patterns: Sequence[str],
    rows: NDArray[np.int64],
    reference: NDArray[np.uint8],
    starts: NDArray[np.int64],
    lengths: NDArray[np.int64],
) -> NDArray[np.int64]:
    """Minimum edit distance of each pattern vs. any substring of its window.

    Element-wise identical to
    :func:`repro.align.myers.myers_semiglobal_min`.  Lane ``i`` scores
    ``patterns[rows[i]]`` against the window
    ``reference[starts[i] : starts[i] + lengths[i]]``; *reference* holds
    2-bit ``ACGT`` codes (a validated genome, one byte per base) and
    every window lies inside it.  Each pattern is encoded once, into one
    set of equality planes that every lane of its row reads, and the
    windows are one gather from *reference*, so no window string is
    built.

    A pattern base outside upper-case ``ACGT`` (an ``N``, lower case)
    encodes as a symbol that equals none of the four planes: it
    mismatches every reference base, exactly as the scalar
    :func:`~repro.align.myers.myers_semiglobal_min` comparing raw
    characters against an ``ACGT`` text does, so such rows share the
    kernel call and get the scalar recurrence's distance.
    """
    count = len(rows)
    if not count:
        return np.zeros(0, dtype=np.int64)
    sizes = np.fromiter(map(len, patterns), dtype=np.int64, count=len(patterns))
    max_len = int(sizes.max())
    bases = encode_bases("".join(patterns))
    columns = np.arange(max_len, dtype=np.int64)
    spots = np.minimum((np.cumsum(sizes) - sizes)[:, None] + columns, len(bases) - 1)
    codes = np.where(columns < sizes[:, None], bases[spots], np.uint8(DIRTY_BASE))
    peq = _peq_from_codes(codes)
    width = int(lengths.max())
    text = np.zeros((count, width), dtype=np.uint8)
    if width:
        spans = np.minimum(starts[:, None] + np.arange(width), len(reference) - 1)
        text = reference[spans]
    pattern_lengths = sizes[rows]
    scores = _run_kernel(peq, rows, pattern_lengths, text, lengths)
    # An empty pattern matches the empty substring for free.
    return np.where(pattern_lengths == 0, 0, scores)
