"""Tests for repro.align.bitvector (the batched NumPy bit-parallel kernel).

The contract under test: ``semiglobal_min_windows(..., e)`` equals the
scalar ``myers_semiglobal_min`` clipped at the bound,
``min(distance, e + 1)``, element-wise over ragged batches: empty lanes,
windows at the reference's ends, pattern lengths that straddle the
64-bit word boundary, and banded lanes whose vector slides down a
pattern longer than it (patterns up to 200 bp at e up to 15 in one
word, and at bounds that need two band words).  With a bound at least
the longest pattern every distance is exact.  The hypothesis properties
run under the suite-wide derandomized profile (tests/conftest.py), so
every machine draws the same examples.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.align.bitvector import BITS_PER_WORD, semiglobal_min_windows
from repro.align.myers import myers_semiglobal_min
from repro.genome.sequence import encode_bases, random_dna
from repro.pipeline.common import window_spans

dna = st.text(alphabet="ACGT", max_size=90)
lanes = st.lists(st.tuples(dna, dna), max_size=12)

#: Bounds the ragged-batch tests score at: 0 and 3, the mapper's 12, the
#: CLI default 40, and past any pattern drawn (every distance exact).
BOUNDS = (0, 3, 12, 40, 250)


def ragged_batch(seed, count=48, max_len=200):
    """Random ragged lanes spanning 0..max_len, crossing word boundaries."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        pairs.append(
            (random_dna(rng.randrange(0, max_len), rng),
             random_dna(rng.randrange(0, max_len), rng))
        )
    # Pin the interesting boundary lengths explicitly.
    for n in (63, 64, 65, 127, 128, 129):
        pairs.append((random_dna(n, rng), random_dna(n + 3, rng)))
    pairs.extend([("", "ACGT"), ("ACGT", ""), ("", "")])
    return pairs


def windowed_min(pairs, max_edits):
    """Score ``(pattern, text)`` lanes with the texts laid end to end.

    The texts become one 2-bit code array, and lane ``i``'s window is
    the span of that array its own text occupies.
    """
    lengths = np.array([len(text) for _, text in pairs], dtype=np.int64)
    scores = semiglobal_min_windows(
        [pattern for pattern, _ in pairs],
        np.arange(len(pairs), dtype=np.int64),
        encode_bases("".join(text for _, text in pairs)),
        np.cumsum(lengths) - lengths,
        lengths,
        max_edits,
    )
    return scores.tolist()


def clipped(pairs, max_edits):
    """The scalar recurrence per lane, clipped at ``max_edits + 1``."""
    return [min(myers_semiglobal_min(p, t), max_edits + 1) for p, t in pairs]


class TestBatchSemiglobal:
    @pytest.mark.parametrize("seed", [5, 6])
    def test_matches_scalar_semiglobal(self, seed):
        pairs = ragged_batch(seed)
        for bound in BOUNDS:
            assert windowed_min(pairs, bound) == clipped(pairs, bound), bound

    @given(lanes, st.integers(min_value=0, max_value=100))
    @settings(max_examples=60, deadline=None)
    def test_property_matches_scalar_semiglobal(self, pairs, bound):
        assert windowed_min(pairs, bound) == clipped(pairs, bound)

    def test_bound_at_longest_pattern_gives_exact_distances(self):
        pairs = ragged_batch(9)
        longest = max(len(pattern) for pattern, _ in pairs)
        exact = [myers_semiglobal_min(p, t) for p, t in pairs]
        assert max(exact) > 40
        assert windowed_min(pairs, longest) == exact

    def test_substring_scores_zero(self):
        reference = random_dna(300, random.Random(7))
        window = reference[100:180]
        assert windowed_min([(window, reference)], 0) == [0]

    def test_empty_batch(self):
        scores = semiglobal_min_windows(
            [],
            np.zeros(0, dtype=np.int64),
            encode_bases(""),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            0,
        )
        assert scores.tolist() == []

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError, match="max_edits"):
            windowed_min([("ACGT", "ACGT")], -1)

    @pytest.mark.parametrize(
        "pairs",
        [
            [("ACGT", ""), ("", ""), ("G" * 65, "")],
            [("ACGT", "TTACG"), ("ACGTTT", "GGGGGGACGTTT")],
        ],
        ids=["every-window-empty-over-an-empty-reference",
             "last-window-ends-at-the-last-reference-base"],
    )
    def test_edge_batches_match_scalar(self, pairs):
        for bound in BOUNDS:
            assert windowed_min(pairs, bound) == clipped(pairs, bound)

    def test_dirty_lanes_take_the_scalar_recurrence(self):
        # N, IUPAC and lower-case pattern bases cannot be packed as ACGT;
        # in the windowed kernel they match no equality plane, so each
        # scores one edit against the ACGT reference, exactly like the
        # scalar recurrence comparing raw characters.
        rng = random.Random(8)
        reference = random_dna(400, rng)
        patterns = [
            reference[40:100],
            reference[120:150][:10] + "N" + reference[131:150],
            reference[200:230][:5] + "R" + reference[206:230],
            reference[250:290].lower(),
            "NNNN",
            "",
        ]
        rows, starts, lengths = [], [], []
        for row in range(len(patterns)):
            for start, length in ((0, 400), (30, 80), (115, 45), (395, 5)):
                rows.append(row)
                starts.append(start)
                lengths.append(length)
        for bound in BOUNDS:
            scores = semiglobal_min_windows(
                patterns,
                np.array(rows, dtype=np.int64),
                encode_bases(reference),
                np.array(starts, dtype=np.int64),
                np.array(lengths, dtype=np.int64),
                bound,
            )
            assert scores.tolist() == [
                min(
                    myers_semiglobal_min(
                        patterns[row], reference[start : start + length]
                    ),
                    bound + 1,
                )
                for row, start, length in zip(rows, starts, lengths)
            ]


def _mutate(rng, read, edits):
    """*read* with *edits* random substitutions, insertions or deletions."""
    bases = list(read)
    for _ in range(edits):
        spot = rng.randrange(len(bases) + 1)
        kind = rng.randrange(3)
        if kind == 0 and spot < len(bases):
            bases[spot] = rng.choice("ACGT")
        elif kind == 1 and spot < len(bases):
            del bases[spot]
        else:
            bases.insert(spot, rng.choice("ACGT"))
    return "".join(bases)


def mapper_lanes(seed, read_lengths, bound, slack, dirty):
    """Reads over windows of ``read length + slack``, as the stage cuts them.

    Each read is a mutated genome substring (up to ``bound + 2`` edits,
    so distances straddle the bound), optionally with an ``N`` and a
    lower-case run.  Its candidates are its origin and shifts of it, a
    start before the genome (window clamped at 0), one past the genome's
    end (clamped there) and a random decoy; spans come from the stage's
    own ``window_spans``.
    """
    rng = random.Random(seed)
    genome = random_dna(600, rng)
    reads, rows, candidate_starts = [], [], []
    for row, length in enumerate(read_lengths):
        origin = rng.randrange(len(genome) - length + 1)
        read = _mutate(rng, genome[origin : origin + length], rng.randrange(bound + 3))
        if dirty and read:
            spot = rng.randrange(len(read))
            read = read[:spot] + "N" + read[spot + 1 :].lower()[:5] + read[spot + 6 :]
        reads.append(read)
        for start in (
            origin,
            origin - rng.randrange(slack + 1),
            origin + rng.randrange(-2, 3),
            -rng.randrange(1, slack + 8),
            len(genome) - len(read) + rng.randrange(-2, slack + 4),
            rng.randrange(len(genome)),
        ):
            rows.append(row)
            candidate_starts.append(start)
    rows = np.array(rows, dtype=np.int64)
    sizes = np.array([len(read) for read in reads], dtype=np.int64)
    starts, lengths = window_spans(
        np.array(candidate_starts, dtype=np.int64), sizes[rows], slack, len(genome)
    )
    return genome, reads, rows, starts, lengths


@st.composite
def banded_calls(draw):
    """A bound, a slack and a ragged set of reads up to 200 bp.

    Half the draws keep the band (``slack + 2e + 1`` rows) in one word,
    e up to 15 and the slack up to the one-word limit ``63 - 2e``; the
    rest need two band words.
    """
    if draw(st.booleans()):
        bound = draw(st.integers(min_value=0, max_value=15))
        slack = draw(st.integers(min_value=0, max_value=BITS_PER_WORD - 1 - 2 * bound))
    else:
        bound = draw(st.integers(min_value=16, max_value=40))
        slack = draw(
            st.integers(
                min_value=max(0, BITS_PER_WORD - 2 * bound),
                max_value=2 * BITS_PER_WORD - 1 - 2 * bound,
            )
        )
    # One read past two words, so the band slides in every draw.
    read_lengths = draw(
        st.lists(st.integers(min_value=0, max_value=200), max_size=5)
    ) + [draw(st.integers(min_value=2 * BITS_PER_WORD + 1, max_value=200))]
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return seed, read_lengths, bound, slack, draw(st.booleans())


class TestBandedLanes:
    """Lanes whose band is narrower than the pattern, so the vector slides."""

    @staticmethod
    def check(seed, read_lengths, bound, slack, dirty):
        genome, reads, rows, starts, lengths = mapper_lanes(
            seed, read_lengths, bound, slack, dirty
        )
        scores = semiglobal_min_windows(
            reads, rows, encode_bases(genome), starts, lengths, bound
        )
        assert scores.tolist() == [
            min(
                myers_semiglobal_min(reads[row], genome[start : start + length]),
                bound + 1,
            )
            for row, start, length in zip(rows, starts, lengths)
        ]

    @given(banded_calls())
    @settings(max_examples=80, deadline=None)
    def test_property_matches_clipped_scalar(self, call):
        self.check(*call)

    @pytest.mark.parametrize(
        "bound, slack",
        [(0, 0), (12, 12), (15, 15), (15, 18), (20, 20), (40, 40)],
    )
    def test_every_read_length_in_one_call(self, bound, slack):
        # Rows reach the vector's bottom at different columns, and some
        # patterns fit the vector while others are longer than it.
        self.check(bound + 1, list(range(60, 201, 7)), bound, slack, dirty=True)

    @pytest.mark.parametrize(
        "bound, slack",
        [(10, 43), (10, 44), (15, 33), (15, 34), (20, 87), (20, 88)],
    )
    def test_alignments_on_the_band_edges(self, bound, slack):
        # The band is diagonals [-e, s + e]; at these slacks it is exactly
        # one or two words, or one row past.  One lane's only cheap
        # alignment runs on the top diagonal (the read's last e bases
        # deleted at the window's end), the other's on the bottom one (its
        # first e bases deleted at the window's start): both cost e.
        rng = random.Random(bound * 100 + slack)
        read = random_dna(200, rng)
        top = random_dna(slack + bound, rng) + read[: len(read) - bound]
        bottom = read[bound:] + random_dna(slack + bound, rng)
        pairs = [(read, top), (read, bottom)]
        assert [myers_semiglobal_min(p, t) for p, t in pairs] == [bound, bound]
        assert windowed_min(pairs, bound) == [bound, bound]
