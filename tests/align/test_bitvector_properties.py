"""Arbitrary-precision cross-check of the Myers carry-ripple step.

``repro.align.bitvector._ripple_add`` is the one place the kernel
*depends on* uint64 wrapping: ``X = ((EQ & VP) + VP) ^ VP | EQ`` computed
word-by-word with the carry recovered from overflow comparisons (Hyyro's
blocked Myers formulation).  This property test recomputes the same step
in Python big ints, where ``+`` cannot wrap, and asserts the low 64 bits
of every word agree exactly.  If NumPy dtype promotion, the
overflow comparisons, or the cross-word carry chain ever drift, the
mismatch shows up here before it corrupts an alignment score.

The kernel stores its state word-major, ``(words, lanes)``; these tests
build one lane per row and hand ``_ripple_add`` the transposes.

Runs under the suite-wide derandomized hypothesis profile
(tests/conftest.py), so every machine draws the same examples.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.align.bitvector import BITS_PER_WORD, _ripple_add

WORD_MASK = (1 << BITS_PER_WORD) - 1

uint64_words = st.integers(min_value=0, max_value=WORD_MASK)


def to_big(row):
    """Little-endian uint64 words -> one Python big int."""
    value = 0
    for index, word in enumerate(row):
        value |= int(word) << (BITS_PER_WORD * index)
    return value


def from_big(value, words):
    """Python big int -> little-endian uint64 word list (low `words`)."""
    return [
        (value >> (BITS_PER_WORD * index)) & WORD_MASK
        for index in range(words)
    ]


def reference_ripple(eq_big, vp_big, words):
    """The Myers X-term in unbounded integers, truncated to the column.

    ``(EQ & VP) + VP`` is a plain big-int addition — carries propagate
    across word boundaries for free — then the xor/or and the final mask
    to the column width (the kernel's words hold exactly that many bits).
    """
    column_mask = (1 << (BITS_PER_WORD * words)) - 1
    x = (((eq_big & vp_big) + vp_big) & column_mask) ^ vp_big | eq_big
    return x & column_mask


def ripple_lanes(eq, vp):
    """``_ripple_add`` over ``(lanes, words)`` arrays, one lane per row."""
    return _ripple_add(eq.T, vp.T).T


def lanes_strategy(max_words=4, max_lanes=6):
    return st.integers(min_value=1, max_value=max_words).flatmap(
        lambda words: st.lists(
            st.tuples(
                st.lists(uint64_words, min_size=words, max_size=words),
                st.lists(uint64_words, min_size=words, max_size=words),
            ),
            min_size=1,
            max_size=max_lanes,
        )
    )


class TestRippleAddCrossCheck:
    @given(lanes_strategy())
    @settings(max_examples=200, deadline=None)
    def test_matches_arbitrary_precision_reference(self, lanes):
        eq = np.array([pair[0] for pair in lanes], dtype=np.uint64)
        vp = np.array([pair[1] for pair in lanes], dtype=np.uint64)
        xh = ripple_lanes(eq, vp)
        words = eq.shape[1]
        for lane in range(len(lanes)):
            expected = reference_ripple(
                to_big(eq[lane]), to_big(vp[lane]), words
            )
            assert [int(w) for w in xh[lane]] == from_big(expected, words), (
                f"lane {lane}: eq={list(map(int, eq[lane]))} "
                f"vp={list(map(int, vp[lane]))}"
            )

    def test_carry_crosses_word_boundary(self):
        # eq = vp = all-ones in the low word: (eq & vp) + vp overflows and
        # the carry must ripple into the high word.
        eq = np.array([[WORD_MASK, 0]], dtype=np.uint64)
        vp = np.array([[WORD_MASK, 1]], dtype=np.uint64)
        xh = ripple_lanes(eq, vp)
        expected = reference_ripple(to_big(eq[0]), to_big(vp[0]), 2)
        assert [int(w) for w in xh[0]] == from_big(expected, 2)

    def test_carry_chain_through_saturated_middle_word(self):
        # A saturated middle word propagates the incoming carry onward:
        # the worst case for the two-comparison overflow recovery.
        eq = np.array([[WORD_MASK, WORD_MASK, 0]], dtype=np.uint64)
        vp = np.array([[WORD_MASK, WORD_MASK, 5]], dtype=np.uint64)
        xh = ripple_lanes(eq, vp)
        expected = reference_ripple(to_big(eq[0]), to_big(vp[0]), 3)
        assert [int(w) for w in xh[0]] == from_big(expected, 3)

    def test_zero_inputs(self):
        eq = np.zeros((2, 2), dtype=np.uint64)
        vp = np.zeros((2, 2), dtype=np.uint64)
        assert ripple_lanes(eq, vp).tolist() == [[0, 0], [0, 0]]
