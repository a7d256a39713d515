"""The lossless edit budget for a pre-alignment filter.

Related accelerators (SneakySnake, Scrooge, GateKeeper) put a cheap
pre-alignment filter in front of the expensive verification engine: most
candidate placements produced by seeding are spurious repeat hits, and a
linear-time scan can prove "this window cannot contain an acceptable
alignment" far cheaper than the full DP / cycle-accurate lane.  The
filters themselves live in :mod:`repro.filters`; this module answers how
tight their edit budget may be.

The SillaX machine's edit budget is the natural threshold — any
*whole-read* alignment the machine can produce stays within Levenshtein
distance ``edit_bound`` (its (i, d) grid charges one unit per gap base and
two per substitution, which upper-bounds unit-cost edits) — so candidates
rejected at that budget could only ever have yielded clipped partial
alignments.  For a provably lossless filter use :func:`lossless_threshold`,
which converts the pipeline's ``min_score`` into the largest edit distance
any above-threshold alignment (clipped or not) can exhibit.
"""

from __future__ import annotations

from repro.align.scoring import ScoringScheme


def lossless_threshold(
    read_length: int, scheme: ScoringScheme, min_score: int
) -> int:
    """Largest semi-global edit distance compatible with ``score >= min_score``.

    Any alignment of a length-``L`` read scoring ``S`` with ``e`` edits in
    the aligned region and ``c`` clipped read bases satisfies
    ``S <= match*L - unit*(e + c)`` where ``unit`` is the smallest score
    reduction a single edit/clipped base can cause (a deletion costs at
    least ``|gap_extend|``; a clipped base forfeits one match).  The full
    read's semi-global distance to the window is at most ``e + c`` (clipped
    bases count as deletions from the read), so rejecting candidates whose
    best placement exceeds this threshold can never change the mapping.
    """
    unit = min(scheme.match, -scheme.gap_extend)
    return (scheme.match * read_length - min_score) // unit

