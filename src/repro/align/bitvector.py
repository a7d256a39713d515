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

Sequences arrive as strings and are packed by
:func:`repro.genome.sequence.encode_batch` (2-bit codes, 32 bases per
``uint64`` word).  Patterns are re-spread into per-symbol bit-planes
(``peq[lane, symbol, word]``: bit ``j`` set iff pattern base ``64*word+j``
equals ``symbol``), the classic blocked-Myers equality masks.  Lanes may
have different pattern/text lengths: each lane reads its score at its own
high bit (pattern length − 1), through a flat index computed once per
call, and stops updating once its text is exhausted, so one kernel call
handles a ragged batch.

Liveness is a sorted prefix, not a mask: the kernel orders lanes by text
length, longest first, so the lanes still reading text at column ``c``
are the first ``live[c]`` rows of every state array.  Each column then
costs a fixed count of whole-array NumPy operations on ``[:live]`` slices
(``hp`` and ``hn`` stacked, so their high-bit reads and their cross-word
shift are one operation each), with no ``np.where`` over dead lanes.
That fixed count is what the lane count amortises: on 101 bp patterns the
batched kernel beats the scalar bigint scan from a few dozen lanes per
call, which is why the cascade's ``myers`` stage
(:class:`repro.filters.myers.MyersCandidateFilter`) and the bitvector
backend's gate answer a whole dispatch in one
:func:`semiglobal_min_lanes` call.

Bits above a lane's pattern length are garbage by construction and
provably harmless: the recurrence only moves information upward (adds
carry up within a word, the word-carry chain and the ``hp``/``hn`` shifts
go low word → high word), so bit ``m-1`` never sees them.

Two modes share the recurrence and differ only in the horizontal carry
shifted into bit 0 (Myers' original distinction):

* **global** (`carry = 1`): edit distance pattern vs. whole text, the
  batched :func:`repro.align.myers.myers_distance`;
* **semi-global** (`carry = 0`): text-side gaps are free, the running
  minimum is the batched :func:`repro.align.myers.myers_semiglobal_min` —
  the quantity the extension gate thresholds against its edit bound.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.align.myers import myers_semiglobal_min
from repro.genome.sequence import BASES_PER_WORD, encode_batch, is_dna

__all__ = [
    "batch_myers_bounded",
    "batch_myers_distance",
    "batch_semiglobal_min",
    "semiglobal_min_lanes",
]

#: DP-column bits per machine word (the blocked-Myers block size).
BITS_PER_WORD = 64

_ONE = np.uint64(1)
_SHIFT_ONE = np.uint64(1)
_SHIFT_TOP = np.uint64(BITS_PER_WORD - 1)
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def _unpack_codes(
    packed: NDArray[np.uint64], columns: int
) -> NDArray[np.uint8]:
    """2-bit codes back out of packed words, as an (n, columns) matrix.

    Padding positions come back as code 0; callers mask them with the
    lengths array (the kernel via its live-lane prefix, the PEQ builder
    via its validity mask).
    """
    count, words = packed.shape
    shifts = np.arange(BASES_PER_WORD, dtype=np.uint64) * np.uint64(2)
    codes = ((packed[:, :, None] >> shifts) & np.uint64(3)).astype(np.uint8)
    return codes.reshape(count, words * BASES_PER_WORD)[:, :columns]


def _build_peq(
    packed: NDArray[np.uint64], lengths: NDArray[np.int64]
) -> NDArray[np.uint64]:
    """Per-symbol equality bit-planes: ``peq[lane, symbol, word]``.

    Bits at or above each lane's pattern length are zero in every plane,
    so padding never matches any text symbol.  Bit ``j`` of a word is
    pattern base ``64*word+j``: the match masks are packed little-endian,
    eight bases to a byte, eight bytes to a word.
    """
    count = packed.shape[0]
    max_len = int(lengths.max()) if count else 0
    words = max(1, -(-max_len // BITS_PER_WORD))
    # Code 4 is no base: padding matches none of the four planes.
    codes = np.full((count, words * BITS_PER_WORD), 4, dtype=np.uint8)
    if max_len:
        valid = np.arange(max_len, dtype=np.int64) < lengths[:, None]
        codes[:, :max_len] = np.where(
            valid, _unpack_codes(packed, max_len), 4
        )
    match = codes[:, None, :] == np.arange(4, dtype=np.uint8)[:, None]
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
    pattern_lengths: NDArray[np.int64],
    text_codes: NDArray[np.intp],
    text_lengths: NDArray[np.int64],
    semiglobal: bool,
) -> NDArray[np.int64]:
    """Advance every lane over its text; one iteration per text column.

    Lanes run sorted by text length, longest first, so the lanes still
    reading text at any column are a prefix of the state arrays: each
    column updates ``[:live]`` slices and never masks.  Returns the
    per-lane global distance, or the per-lane minimum column score when
    *semiglobal*, in the caller's lane order (lanes with empty patterns
    are the caller's job — their high-bit index would be meaningless
    here).
    """
    count, _, words = peq.shape
    order = np.argsort(-text_lengths, kind="stable")
    sorted_lengths = text_lengths[order]
    columns = int(sorted_lengths[0]) if count else 0
    # live[c]: how many sorted lanes still have a text base at column c.
    live = np.searchsorted(
        -sorted_lengths, -np.arange(columns, dtype=np.int64), side="left"
    )
    # Row of the flattened (lane, symbol) equality planes each sorted lane
    # reads at each column, column-major so a column's rows are contiguous.
    planes = peq.reshape(count * 4, words)
    plane_rows = np.ascontiguousarray(
        (order * 4)[None, :] + text_codes[order, :columns].T
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
        # hp's bit 0 is the mode's horizontal carry (1 in global mode).
        shifted = h << _SHIFT_ONE
        shifted[:, :, 1:] |= h[:, :, :-1] >> _SHIFT_TOP
        hp, hn = shifted
        if not semiglobal:
            hp[:, 0] |= _ONE
        np.bitwise_and(hp, xv, out=lane_vn)
        xv |= hp
        np.invert(xv, out=xv)
        np.bitwise_or(hn, xv, out=lane_vp)
        if semiglobal:
            np.minimum(best[:n], lane_score, out=best[:n])
    result = np.empty(count, dtype=np.int64)
    result[order] = best if semiglobal else score
    return result


def _batch_scores(
    patterns: Sequence[str], texts: Sequence[str], semiglobal: bool
) -> NDArray[np.int64]:
    if len(patterns) != len(texts):
        raise ValueError(
            f"pattern/text batch size mismatch: {len(patterns)} vs {len(texts)}"
        )
    if not patterns:
        return np.zeros(0, dtype=np.int64)
    pattern_packed, pattern_lengths = encode_batch(patterns)
    text_packed, text_lengths = encode_batch(texts)
    max_text = int(text_lengths.max())
    text_codes = _unpack_codes(text_packed, max_text).astype(np.intp)
    peq = _build_peq(pattern_packed, pattern_lengths)
    scores = _run_kernel(
        peq, pattern_lengths, text_codes, text_lengths, semiglobal
    )
    empty = pattern_lengths == 0
    if empty.any():
        # An empty pattern matches the empty substring for free
        # (semi-global) or costs one insertion per text base (global).
        fallback = (
            np.zeros_like(text_lengths) if semiglobal else text_lengths
        )
        scores = np.where(empty, fallback, scores)
    return scores.astype(np.int64)


def batch_myers_distance(
    patterns: Sequence[str], texts: Sequence[str]
) -> NDArray[np.int64]:
    """Global unit-cost edit distance for each (pattern, text) pair.

    Element-wise identical to :func:`repro.align.myers.myers_distance`
    (the difftest pair ``bitvector-vs-myers`` and the hypothesis property
    test pin this).
    """
    return _batch_scores(patterns, texts, semiglobal=False)


def batch_myers_bounded(
    patterns: Sequence[str], texts: Sequence[str], k: int
) -> List[Optional[int]]:
    """Element-wise :func:`repro.align.myers.myers_bounded`: distance if
    ``<= k`` else ``None`` (the Silla contract), over a whole batch."""
    distances = batch_myers_distance(patterns, texts)
    return [
        int(distance) if distance <= k else None for distance in distances
    ]


def batch_semiglobal_min(
    patterns: Sequence[str], texts: Sequence[str]
) -> NDArray[np.int64]:
    """Minimum edit distance of each pattern vs. any substring of its text.

    Element-wise identical to
    :func:`repro.align.myers.myers_semiglobal_min`; this is the batched
    extension gate (distance ≤ edit bound ⇒ the candidate window survives
    to banded traceback).
    """
    return _batch_scores(patterns, texts, semiglobal=True)


def semiglobal_min_lanes(
    patterns: Sequence[str], texts: Sequence[str]
) -> List[int]:
    """:func:`batch_semiglobal_min` for lanes of any alphabet.

    The packed kernel takes upper-case ACGT only.  A lane whose pattern
    or text holds anything else (an ``N``, an IUPAC code) runs the scalar
    :func:`repro.align.myers.myers_semiglobal_min`, which compares raw
    characters, so such a base costs one edit instead of aborting the
    whole batch; every clean lane shares one kernel call.  This is the
    one dirty-lane rule behind both the ``myers`` filter stage and the
    bitvector backend's extension gate.
    """
    if len(patterns) != len(texts):
        raise ValueError(
            f"pattern/text batch size mismatch: {len(patterns)} vs {len(texts)}"
        )
    clean = [
        is_dna(pattern) and is_dna(text)
        for pattern, text in zip(patterns, texts)
    ]
    kernel = iter(
        batch_semiglobal_min(
            [pattern for pattern, ok in zip(patterns, clean) if ok],
            [text for text, ok in zip(texts, clean) if ok],
        ).tolist()
    )
    return [
        next(kernel) if ok else myers_semiglobal_min(pattern, text)
        for pattern, text, ok in zip(patterns, texts, clean)
    ]
