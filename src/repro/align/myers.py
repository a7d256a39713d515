"""Myers' bit-vector algorithm for approximate matching [15], scalar.

The DP column is packed into one Python integer and updated with O(1)
bitwise operations per text character.  Python integers are arbitrary
precision, so a single "word" covers any pattern length; the
per-character cost is O(N/w) with an effectively large w.

Two semi-global forms (text-side gaps before and after the match are
free): :func:`myers_semiglobal_min`, the scalar oracle of the batched
kernel in :mod:`repro.align.bitvector` and the long-read gate, and
:func:`myers_search`, the end positions within k edits that mate rescue
enumerates.
"""

from __future__ import annotations

from typing import Dict, Tuple


def _pattern_masks(pattern: str) -> Dict[str, int]:
    masks: Dict[str, int] = {}
    for index, char in enumerate(pattern):
        masks[char] = masks.get(char, 0) | (1 << index)
    return masks


def myers_semiglobal_min(pattern: str, text: str) -> int:
    """Minimum edit distance between *pattern* and any substring of *text*.

    The scalar reference for the batched semi-global kernel in
    :mod:`repro.align.bitvector`: the same recurrence as
    :func:`myers_search` (text-side gaps before/after the match are free),
    but returning the best score seen instead of hit positions — the
    quantity the ``myers`` cascade stage and the long-read gate threshold
    against their edit bounds.
    """
    if not pattern:
        return 0
    m = len(pattern)
    masks = _pattern_masks(pattern)
    all_ones = (1 << m) - 1
    vp = all_ones
    vn = 0
    score = m
    best = m
    high_bit = 1 << (m - 1)
    for char in text:
        eq = masks.get(char, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | ~(xh | vp)
        hn = vp & xh
        if hp & high_bit:
            score += 1
        elif hn & high_bit:
            score -= 1
        hp = hp << 1
        hn = hn << 1
        vp = hn | ~(xv | hp)
        vn = hp & xv
        vp &= all_ones | (all_ones << 1)
        if score < best:
            best = score
    return best


def myers_search(pattern: str, text: str, k: int) -> Tuple[int, ...]:
    """Approximate *search*: end positions in *text* where the pattern
    matches a suffix-ending substring within k edits.

    This is Myers' original semi-global formulation (score starts at m and
    text-side gaps before the match are free), used by the spell-correction
    example and the LA comparison tests.
    """
    if not pattern:
        return tuple(range(len(text) + 1)) if k >= 0 else ()
    m = len(pattern)
    masks = _pattern_masks(pattern)
    all_ones = (1 << m) - 1
    vp = all_ones
    vn = 0
    score = m
    high_bit = 1 << (m - 1)
    hits = []
    if score <= k:
        hits.append(0)
    for position, char in enumerate(text, start=1):
        eq = masks.get(char, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | ~(xh | vp)
        hn = vp & xh
        if hp & high_bit:
            score += 1
        elif hn & high_bit:
            score -= 1
        # Search mode: the horizontal carry-in is 0 (the DP first row is all
        # zeros, so a match may start at any text position); the global
        # variant shifts in a 1 instead.
        hp = hp << 1
        hn = hn << 1
        vp = hn | ~(xv | hp)
        vn = hp & xv
        vp &= all_ones | (all_ones << 1)
        if score <= k:
            hits.append(position)
    return tuple(hits)
