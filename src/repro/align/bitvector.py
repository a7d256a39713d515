"""Batched bit-parallel Myers kernel (NumPy), the software SillaX array.

GenAx's thesis is that alignment automata should process many DP cells
per step (§IV); GenASM and Scrooge are the software proof that Myers'
bit-vector recurrence is the right CPU analogue.  This module is that
analogue for the staged pipeline: whole *batches* of (pattern, text)
pairs — one lane per pair — advance one text column per step, each lane's
slice of the DP column packed into ``uint64`` words, so a single NumPy
expression updates every lane at once.  Throughput comes from lane
count: per-column cost is a fixed handful of vectorized bitwise ops, so
the pipeline driver batches candidates *across reads* before dispatching
(see :class:`repro.pipeline.stages.PipelineDriver`).

The band
--------

The kernel answers a bounded question: :func:`semiglobal_min_windows`
returns ``min(distance, max_edits + 1)``, exact whenever the distance is
at most ``max_edits`` (e).  That is all the cascade's ``myers`` stage
asks (is the read within e edits of its window?), and it lets a lane
hold only the rows an alignment of cost ≤ e can touch, not the whole
column — Silla's ``O(K^2)`` state, independent of read length (§III).
With s the call's largest slack (window length minus pattern length), an
alignment starts on a diagonal ≥ 0 (its first text base) and ends on
one ≤ s (the window's end), and each diagonal it strays outside that
range costs an indel, so an alignment of cost ≤ e stays on diagonals
``[-e, s + e]``: ``s + 2e + 1`` rows, 37 at the mapper's e = s = 12.  A
lane's vector is ``ceil(min(longest pattern, s + 2e + 1) / 64)`` words:
one word up to e = 21 at s = e.

The vector starts at pattern row 1.  When it is shorter than the longest
pattern, it slides down one row per text column from the column on which
its bottom row reaches diagonal ``-e``, and stays there; its top row
then runs on diagonal ``64·words - 1 - e ≥ s + e``.  A slide needs no
extra pass over the state: the step that ends a column writes the new
vertical deltas straight into the next column's row frame (``xv`` moves
up one bit instead of ``hp``/``hn`` moving down one), the top row's
delta falls off, and one boundary rule fills the cell the band leaves
out:

* the row entering at the bottom gets a vertical delta of +1 (VP = 1),
  as if its cell in the previous column were one more than the cell
  above it.

That can only overestimate a cell (no DP cell exceeds its upper
neighbour by more than 1), and every alignment of cost ≤ e lies inside
the band, so the band's distances are upper bounds that are exact at or
below e.  The equality masks come from per-(pattern, shift, symbol)
planes pre-shifted to each column's top row, so each column stays one
gather.  When the vector covers the longest pattern — every lane at the
CLI default e = 40 on 101 bp reads, and any call whose ``max_edits``
reaches its longest pattern — it never slides and the loop is Myers'
full-column recurrence, distances exact up to the clip.

Every lane reads its score at the same bit, the vector's bottom row B,
and tracks ``D[B] + (m - B)`` (m its pattern length):

* while B is above row m, that is an upper bound on ``D[m]`` (delete
  the remaining rows);
* once B is past row m, rows m+1..B are padding that matches nothing,
  so ``D[B] - (B - m)`` is never below the best ``D[m]`` and equals it
  in the column where the best alignment ends (its ``B - m`` extra
  deletions run straight down, inside the band).

So the running minimum of the tracked value is the lane's distance,
without a per-lane mask.  Without a slide it moves by the horizontal
delta at B; on a slide B moves down one row and the entering row's +1
cancels the -1 of ``m - B``, so it moves by that same bit: the top bit
of the last word, in every lane and every column.

Layout
------

Sequences arrive as one array of 2-bit codes plus window spans, not as
packed strings.  The texts are windows of one reference code array
(one byte per base, :func:`repro.genome.sequence.encode_bases`), named
by ``(start, length)`` and read with one gather.  Each pattern is
spread once into per-symbol bit-planes (bit ``j`` set iff pattern base
``j`` equals the symbol), then into one pre-shifted copy per band
position, which every lane of that pattern reads.  State is word-major,
``(words, lanes)``, so the one-word case is flat lane arrays.

Liveness is a sorted prefix, not a mask: the kernel orders lanes by text
length, longest first, so the lanes still reading text at column ``c``
are the first ``live[c]`` lanes of every state array.  Each column then
costs a fixed count of whole-array NumPy operations on ``[:live]`` slices
(``hp`` and ``hn`` stacked, so their shift and their score bits are one
operation each), with no ``np.where`` over dead lanes.  On the bitvector backend the ``myers``
stage (:class:`repro.filters.myers.MyersCandidateFilter`) is the only
verifier: the extension engine runs the banded traceback on what it
admits and no Myers test of its own.

Rows past a lane's pattern end never reach rows above them: the
recurrence moves information only down the pattern (adds carry toward
high bits, the word carries and the ``hp``/``hn`` shifts go low word →
high word, and a slide keeps every bit on its row), so the padding
rows read at the bottom bit only ever follow ``D[m]``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from repro.genome.sequence import DIRTY_BASE, encode_bases

__all__ = ["semiglobal_min_windows"]

#: DP-column bits per machine word (the blocked-Myers block size).
BITS_PER_WORD = 64

_ONE = np.uint64(1)
_SHIFT_TOP = np.uint64(BITS_PER_WORD - 1)
_TOP_BIT = np.uint64(1 << (BITS_PER_WORD - 1))
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def _peq_from_codes(codes: NDArray[np.uint8], words: int) -> NDArray[np.uint64]:
    """Per-symbol equality bit-planes: ``peq[pattern, symbol, word]``.

    *codes* holds one pattern per row, 2-bit base codes with 4 for
    padding or any base outside ``ACGT``; code 4 matches none of the four
    planes, so padding never matches any text symbol.  Bit ``j`` of a
    word is pattern base ``64*word+j``: the match masks are packed
    little-endian, eight bases to a byte, eight bytes to a word, padded
    to *words* words.
    """
    count, columns = codes.shape
    padded = np.full((count, words * BITS_PER_WORD), 4, dtype=np.uint8)
    padded[:, :columns] = codes
    match = padded[:, None, :] == np.arange(4, dtype=np.uint8)[:, None]
    planes = np.packbits(match, axis=2, bitorder="little")
    return planes.view(np.dtype("<u8"))


def _shifted_planes(
    codes: NDArray[np.uint8], shifts: int, words: int
) -> NDArray[np.uint64]:
    """Equality planes pre-shifted to every band position, word-major.

    Returns ``planes[word, (pattern * shifts + shift) * 4 + symbol]``:
    the *words*-word window of the pattern's symbol plane that starts at
    pattern base ``shift``, i.e. the equality mask of the vector whose
    top row is ``shift + 1``.
    """
    last_word = max(
        (shifts - 1) // BITS_PER_WORD + words, -(-codes.shape[1] // BITS_PER_WORD)
    )
    full = _peq_from_codes(codes, last_word + 1)
    shift = np.arange(shifts)
    word = shift[:, None] // BITS_PER_WORD + np.arange(words)
    bit = (shift % BITS_PER_WORD).astype(np.uint64)[:, None]
    # Funnel shift: the low word's bits from *bit* up, then the next
    # word's low bits (shifted in two steps so no shift reaches 64).
    window = full[:, :, word] >> bit
    window |= (full[:, :, word + 1] << _ONE) << (_SHIFT_TOP - bit)
    # (pattern, symbol, shift, word) -> (word, pattern, shift, symbol).
    return np.ascontiguousarray(window.transpose(3, 0, 2, 1)).reshape(words, -1)


def _ripple_add(
    eq: NDArray[np.uint64], vp: NDArray[np.uint64]
) -> NDArray[np.uint64]:
    """Blocked addition ``X = ((eq & vp) + vp) ^ vp | eq``, word-major.

    The Myers recurrence's carry chain over ``(words, lanes)`` arrays:
    the addition must wrap modulo 2**64 so ``total < addend`` recovers
    each word's carry-out bit, which ripples into the next word (Hyyro's
    blocked formulation).  Every word's sum is one whole-array add; only
    the carry chain walks the words, as carry-lookahead on bool masks: a
    word passes a carry on if its own add overflowed (*generate*) or if
    it is all ones and a carry came in (*propagate*).  This is the one
    place in the kernel where uint64 overflow is the *algorithm*, not a
    bug; the carry-ripple property test cross-checks it against
    arbitrary-precision Python ints.
    """
    addend = eq & vp
    total = addend + vp
    words = vp.shape[0]
    if words > 1:
        # carry[w]: the carry into word w + 1.
        carry = total[:-1] < addend[:-1]
        for word in range(1, words - 1):
            carry[word] |= (total[word] == _ALL_ONES) & carry[word - 1]
        total[1:] += carry
    total ^= vp
    total |= eq
    return total


def _run_kernel(
    codes: NDArray[np.uint8],
    pattern_rows: NDArray[np.int64],
    pattern_lengths: NDArray[np.int64],
    reference: NDArray[np.uint8],
    starts: NDArray[np.int64],
    text_lengths: NDArray[np.int64],
    max_edits: int,
) -> NDArray[np.int64]:
    """Advance every lane over its text; one iteration per text column.

    Lane ``i`` scores pattern ``codes[pattern_rows[i]]`` (length
    ``pattern_lengths[i]``) against its text, ``reference[starts[i] :
    starts[i] + text_lengths[i]]``.  Lanes run sorted by text
    length, longest first, so the lanes still reading text at any column
    are a prefix of the state arrays: each column updates ``[:live]``
    slices and never masks.  Returns each lane's band distance (see the
    module docstring: an upper bound, exact at or below *max_edits*), in
    the caller's lane order.
    """
    count = len(text_lengths)
    order = np.argsort(-text_lengths, kind="stable")
    sorted_lengths = text_lengths[order]
    sorted_patterns = pattern_lengths[order]
    columns = int(sorted_lengths[0])
    longest = int(codes.shape[1])
    # s, the largest slack of a lane with a pattern (an empty pattern
    # scores 0 at column 0, whatever its window).
    slack = int((sorted_lengths - sorted_patterns)[sorted_patterns > 0].max(initial=0))
    # An alignment of cost <= e starts on a diagonal >= 0 and ends on one
    # <= s, so it stays on diagonals [-e, s + e] (module docstring).
    band = slack + 2 * max_edits + 1
    words = max(1, -(-min(longest, band) // BITS_PER_WORD))
    rows = words * BITS_PER_WORD
    # Columns from slide_from on see the vector one row further down,
    # its bottom row on diagonal -e; a vector that covers every pattern
    # never moves.
    slide_from = rows - max_edits if rows < longest else columns
    shift = np.maximum(np.arange(columns, dtype=np.int64) - slide_from + 1, 0)
    shifts = int(shift[-1]) + 1 if columns else 1
    planes = _shifted_planes(codes, shifts, words)
    # Row of the flat equality table each sorted lane reads at each
    # column, column-major so a column's lanes are contiguous: its
    # pattern's planes at the column's shift, at the text base's symbol.
    # The text is one gather from the reference through the same buffer
    # (past a lane's text, where the lane is no longer live, the clipped
    # index reads a base never used).
    plane_rows = np.add.outer(np.arange(columns), starts[order])
    text = np.take(reference, plane_rows, mode="clip")
    np.add.outer(4 * shift, pattern_rows[order] * (4 * shifts), out=plane_rows)
    plane_rows += text
    # live[c]: how many sorted lanes still have a text base at column c.
    live = np.searchsorted(
        -sorted_lengths, -np.arange(columns, dtype=np.int64), side="left"
    )
    score = sorted_patterns.copy()
    best = score.copy()
    # Vertical deltas, stacked: state[0] is vp (all +1 at column 0,
    # D[i][0] = i), state[1] is vn.
    state = np.zeros((2, words, count), dtype=np.uint64)
    state[0] = _ALL_ONES
    for column in range(columns):
        n = int(live[column])
        vp, vn = state[:, :, :n]
        eq = planes.take(plane_rows[column, :n], axis=1)
        xv = eq | vn
        xh = _ripple_add(eq, vp)
        # hp and hn stacked, so each step below is one array operation.
        h = np.empty((2, words, n), dtype=np.uint64)
        hp, hn = h
        np.bitwise_or(xh, vp, out=hp)
        np.invert(hp, out=hp)
        hp |= vn
        np.bitwise_and(vp, xh, out=hn)
        # The horizontal delta at the vector's bottom row moves the score
        # (module docstring): the same bit for every lane.
        bottom = h[:, -1] >> _SHIFT_TOP
        lane_score = score[:n]
        lane_score += bottom[0].view(np.int64)
        lane_score -= bottom[1].view(np.int64)
        np.minimum(best[:n], lane_score, out=best[:n])
        next_slides = column + 1 >= slide_from
        if not next_slides:
            # Row i's new vertical delta reads hp/hn at row i - 1: shift
            # them one row down across word boundaries; the bit entering
            # hp's bit 0 is row 0's horizontal delta, 0 (semi-global).
            if words > 1:
                carry = h[:, :-1] >> _SHIFT_TOP
                h <<= _ONE
                h[:, 1:] |= carry
            else:
                h <<= _ONE
        else:
            # The next column's vector is one row down, so its bit i is
            # this column's row i + 1: move xv up a bit instead, drop the
            # top row's delta and give the row entering at the bottom
            # VP = 1.
            if words > 1:
                carry = xv[1:] << _SHIFT_TOP
                xv >>= _ONE
                xv[:-1] |= carry
            else:
                xv >>= _ONE
        np.bitwise_and(hp, xv, out=vn)
        xv |= hp
        np.invert(xv, out=xv)
        np.bitwise_or(hn, xv, out=vp)
        if next_slides:
            vp[-1] |= _TOP_BIT
    result = np.empty(count, dtype=np.int64)
    result[order] = best
    return result


def semiglobal_min_windows(
    patterns: Sequence[str],
    rows: NDArray[np.int64],
    reference: NDArray[np.uint8],
    starts: NDArray[np.int64],
    lengths: NDArray[np.int64],
    max_edits: int,
) -> NDArray[np.int64]:
    """Bounded minimum edit distance of each pattern vs. any substring of
    its window: ``min(distance, max_edits + 1)``.

    Element-wise ``min(myers_semiglobal_min(pattern, window), max_edits +
    1)`` (:func:`repro.align.myers.myers_semiglobal_min`), so exact
    whenever the distance is at most *max_edits*; with *max_edits* at
    least the longest pattern every distance is exact.  Lane ``i``
    scores ``patterns[rows[i]]`` against the window
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
    if max_edits < 0:
        raise ValueError(f"max_edits must be non-negative, got {max_edits}")
    count = len(rows)
    if not count:
        return np.zeros(0, dtype=np.int64)
    sizes = np.fromiter(map(len, patterns), dtype=np.int64, count=len(patterns))
    max_len = int(sizes.max())
    bases = encode_bases("".join(patterns))
    columns = np.arange(max_len, dtype=np.int64)
    spots = np.minimum((np.cumsum(sizes) - sizes)[:, None] + columns, len(bases) - 1)
    codes = np.where(columns < sizes[:, None], bases[spots], np.uint8(DIRTY_BASE))
    scores = _run_kernel(
        codes, rows, sizes[rows], reference, starts, lengths, max_edits
    )
    return np.minimum(scores, max_edits + 1)
