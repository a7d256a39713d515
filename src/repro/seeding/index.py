"""K-mer index and position tables (§V).

GenAx's seeding tables have two levels, mirrored here exactly:

* the **position table** is one flat array holding, for every k-mer in
  lexicographic order, the sorted list of reference positions where that
  k-mer occurs;
* the **index table** has one entry per possible k-mer — ``(offset, count)``
  into the position table.  With k = 12 the index is direct-mapped (4^12
  entries) so "does not require additional tag meta-data to handle
  collisions" (§VII); position lists are sorted offline, enabling the
  binary-search intersection fallback.

Here the index table is stored sparsely, in CSR form: the sorted
distinct codes present plus prefix-sum offsets (:class:`KmerIndex`), so
a table is sized by the segment, not by 4^k.  Sizes in bytes are
modelled for the paper's direct-mapped layout, so the memory/area models
(Table II: 48 MB index + 18 MB position for a 6 Mbp segment scheme) can
be regenerated for any genome scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence

import numpy
from numpy.typing import NDArray

from repro.genome.sequence import BASES_PER_WORD, DIRTY_BASE, encode, encode_bases

if TYPE_CHECKING:
    from repro.genome.reference import SegmentView

#: Largest k whose 2-bit k-mer codes fit a signed 64-bit integer.
MAX_K = 31

# Per phase s (a position's offset inside its word) of base_words_at:
# the low word shifts right by 2s bases' bits; the next word keeps only
# its low 2s bits, which then shift left by 64 - 2s and so never overflow.
_LOW_SHIFTS = numpy.array([2 * s for s in range(32)], dtype=numpy.uint64)
_HIGH_MASKS = numpy.array(
    [(1 << 2 * s) - 1 for s in range(32)], dtype=numpy.uint64
)
_HIGH_SHIFTS = numpy.array(
    [(64 - 2 * s) % 64 for s in range(32)], dtype=numpy.uint64
)


def pack_bases(bases: NDArray[numpy.uint8]) -> NDArray[numpy.uint64]:
    """Pack 2-bit base codes 32 to a ``uint64`` word.

    *bases* is one :func:`~repro.genome.sequence.encode_bases` code array
    (the reference), and this packing is the only one in the library: the
    Myers kernel reads the same codes unpacked, one byte per base, by
    window span.  Base ``j`` sits in bits ``2*(j % 32)`` and ``2*(j % 32) + 1`` of word
    ``j // 32``.  The array ends with at least one zero word, so every
    position before the end has the successor word :func:`base_words_at`
    reads.  Bytes are packed four bases at a time, so no temporary is
    wider than one byte per base.
    """
    words = len(bases) // BASES_PER_WORD + 2
    padded = numpy.zeros(words * BASES_PER_WORD, dtype=numpy.uint8)
    padded[: len(bases)] = bases
    quads = padded.reshape(-1, 4)
    packed = (
        quads[:, 0] | (quads[:, 1] << 2) | (quads[:, 2] << 4) | (quads[:, 3] << 6)
    )
    return packed.view(numpy.dtype("<u8")).astype(numpy.uint64, copy=False)


def base_words_at(
    words: NDArray[numpy.uint64], positions: NDArray[numpy.int64]
) -> NDArray[numpy.uint64]:
    """The 32 bases starting at each of *positions*, one word each.

    *words* is a :func:`pack_bases` array; base ``j`` of a result word is
    the base at ``position + j``.  Only shifts and masks: no bit is
    shifted out, so nothing wraps.
    """
    index = positions >> 5
    phase = positions & 31
    low = words[index] >> _LOW_SHIFTS[phase]
    high = (words[index + 1] & _HIGH_MASKS[phase]) << _HIGH_SHIFTS[phase]
    return low | high


def gather_runs(
    values: NDArray[numpy.int64], starts: NDArray[numpy.int64], sizes: NDArray[numpy.int64]
) -> NDArray[numpy.int64]:
    """``values[starts[i] : starts[i] + sizes[i]]`` for every i, concatenated.

    One ``repeat`` + fancy index, however many runs there are.
    """
    firsts = numpy.cumsum(sizes) - sizes  # each run's slot in the result
    total = int(sizes.sum())
    return values[numpy.repeat(starts - firsts, sizes) + numpy.arange(total)]


def kmer_code(kmer: str) -> int:
    """Pack a k-mer into its 2-bit-per-base integer code (the index key)."""
    code = 0
    for base_code in encode(kmer):
        code = (code << 2) | base_code
    return code


def kmer_codes(read: str, k: int) -> List[int]:
    """The index key of every k-mer of *read*, in read order.

    Entry ``i`` is ``kmer_code(read[i : i + k])`` — the same rolling
    2-bit code :meth:`KmerIndex.build` keys the tables by — or ``-1`` when
    that k-mer holds a base outside upper-case ``ACGT`` (``N``, IUPAC
    codes, lower case).  No table has a ``-1`` key, so such k-mers get no
    hits.  Reads shorter than *k* have no k-mers: ``[]``.
    """
    starts = numpy.arange(max(0, len(read) - k + 1))
    return kmer_codes_at(encode_bases(read), starts, k).tolist()


def kmer_codes_at(
    bases: NDArray[numpy.uint8], starts: NDArray[numpy.int64], k: int
) -> NDArray[numpy.int64]:
    """The code of the k-mer at each of *starts* in :func:`encode_bases`
    output, ``-1`` where it holds a dirty base (:func:`kmer_codes`).

    One rolling pass over all of *bases*, so a batch of reads encodes as
    one concatenation.  Codes are int64: *k* is at most ``MAX_K``.
    """
    if k > MAX_K:
        raise ValueError(f"k must be at most {MAX_K} (int64 k-mer codes), got {k}")
    windows = max(0, len(bases) - k + 1)
    rolling = numpy.zeros(windows, dtype=numpy.int64)
    for offset in range(k):
        rolling <<= 2
        rolling |= bases[offset : offset + windows] & 3
    dirty = numpy.zeros(len(bases) + 1, dtype=numpy.int64)
    numpy.cumsum(bases == DIRTY_BASE, out=dirty[1:])
    codes = rolling[starts]
    codes[dirty[starts + k] > dirty[starts]] = -1
    return codes


#: Slots per key of a :class:`KeyTable`, before rounding up to a power of
#: two: the load factor stays at or below a half, so linear-probe chains
#: stay short.
SLOTS_PER_KEY = 2

#: Slots a :meth:`KeyTable.lookup` round probes past a code's home slot.
PROBE_WINDOW = 8
_PROBE_STEPS = numpy.arange(PROBE_WINDOW)

# Fibonacci hashing's 32-bit multiplier, round(2**32 / golden ratio).
_HASH_MULTIPLIER = 0x9E3779B1


def hash_slots(codes: NDArray[numpy.int64], bits: int) -> NDArray[numpy.int64]:
    """Home slot of each code in a table of ``2**bits`` slots (``bits <= 32``).

    Multiplicative hashing in int64 without wrapping: the code is folded
    to 31 bits, so its product with the 32-bit multiplier stays below
    2**63; the slot is the top *bits* bits of the product's low 32 bits.
    """
    folded = (codes ^ (codes >> 31)) & 0x7FFFFFFF
    return ((folded * _HASH_MULTIPLIER) & 0xFFFFFFFF) >> (32 - bits)


@dataclass(frozen=True)
class KeyTable:
    """Open-addressing hash table from k-mer code to hit-list length.

    Each slot holds an int64 key (``-1`` when empty) and an int32 count;
    collisions probe linearly.  Build and lookup run as NumPy rounds over
    every key still unplaced or code still unanswered, so a lookup costs a
    few gathers per code whatever order the codes come in.
    """

    keys: NDArray[numpy.int64]
    counts: NDArray[numpy.int32]
    bits: int

    @classmethod
    def build(
        cls, keys: NDArray[numpy.int64], counts: NDArray[numpy.signedinteger]
    ) -> "KeyTable":
        """Table of distinct non-negative *keys* with their *counts*.

        ``2**bits >= SLOTS_PER_KEY * len(keys)`` slots.  Each round, every
        unplaced key tries its current slot; of the keys trying one free
        slot the first takes it, and the rest step to the next slot.
        """
        bits = max(1, (SLOTS_PER_KEY * len(keys) - 1).bit_length())
        mask = (1 << bits) - 1
        table_keys = numpy.full(mask + 1, -1, dtype=numpy.int64)
        table_counts = numpy.zeros(mask + 1, dtype=numpy.int32)
        slots = hash_slots(keys, bits)
        pending = numpy.arange(len(keys))
        while pending.size:
            tried = slots[pending]
            free = numpy.flatnonzero(table_keys[tried] == -1)
            taken, first = numpy.unique(tried[free], return_index=True)
            winners = pending[free[first]]
            table_keys[taken] = keys[winners]
            table_counts[taken] = counts[winners]
            placed = numpy.zeros(len(pending), dtype=bool)
            placed[free[first]] = True
            pending = pending[~placed]
            slots[pending] = (slots[pending] + 1) & mask
        return cls(table_keys, table_counts, bits)

    def lookup(self, codes: NDArray[numpy.int64]) -> NDArray[numpy.int64]:
        """Count of every code in *codes*, 0 where it has no entry.

        A code's probe stops at its key or at an empty slot, whose count
        is 0; ``-1`` codes stop at the first empty slot.  Most codes stop
        at their home slot; the rest probe ``PROBE_WINDOW`` slots a round.
        """
        mask = len(self.keys) - 1
        slots = hash_slots(codes, self.bits)
        held = self.keys[slots]
        stop = (held == codes) | (held == -1)
        counts = numpy.where(stop, self.counts[slots], 0).astype(numpy.int64)
        todo = numpy.flatnonzero(~stop)
        step = 1
        while todo.size:
            window = (slots[todo, None] + (step + _PROBE_STEPS)) & mask
            held = self.keys[window]
            stops = (held == codes[todo, None]) | (held == -1)
            found = numpy.flatnonzero(stops.any(axis=1))
            first = stops[found].argmax(axis=1)
            counts[todo[found]] = self.counts[window[found, first]]
            todo = numpy.delete(todo, found)
            step += PROBE_WINDOW
        return counts


@dataclass(eq=False)
class KmerIndex:
    """Index + position tables for one reference segment, in CSR form.

    The paper's table layout (§V) as three int64 arrays: the sorted
    distinct k-mer codes (:attr:`keys`), prefix-sum :attr:`offsets` into
    the flat position table (``len(keys) + 1`` long) and the
    :attr:`positions` themselves, each k-mer's list ascending.  Key ``i``
    occurs at ``positions[offsets[i]:offsets[i + 1]]``.  :meth:`build`
    makes the arrays in NumPy passes; the on-disk cache
    (:mod:`repro.seeding.cache`) stores and reloads exactly these arrays.

    The seeding hot path works on integer codes: :meth:`hits_code` for
    one, and for the RMEM search's batches :meth:`hit_counts`,
    :meth:`gather_hits` and :attr:`base_words`.  A scalar lookup finds a
    key's row with one ``searchsorted`` where the hardware does a
    direct-mapped index fetch; the seeding stats count lookups, not
    instructions, so the two account identically.  The string-keyed
    adapters over :meth:`hits_code` serve tests, tools and analyses that
    hold k-mer strings.
    """

    k: int
    sequence_length: int
    keys: NDArray[numpy.int64] = field(repr=False)
    offsets: NDArray[numpy.int64] = field(repr=False)
    positions: NDArray[numpy.int64] = field(repr=False)

    @classmethod
    def build(cls, sequence: str, k: int) -> "KmerIndex":
        """Offline table construction (done once per segment).

        Every position's rolling 2-bit code, a stable ``argsort`` of the
        codes (so each k-mer's positions stay ascending) and a ``unique``
        over the sorted codes give the three tables.  The sequence must
        be upper-case ``ACGT``, as a reference segment is.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        starts = numpy.arange(max(0, len(sequence) - k + 1))
        codes = kmer_codes_at(encode_bases(sequence), starts, k)
        if (codes < 0).any():
            raise ValueError("the indexed sequence holds a base outside ACGT")
        order = numpy.argsort(codes, kind="stable")
        keys, counts = numpy.unique(codes[order], return_counts=True)
        offsets = numpy.zeros(len(keys) + 1, dtype=numpy.int64)
        numpy.cumsum(counts, out=offsets[1:])
        return cls(
            k=k,
            sequence_length=len(sequence),
            keys=keys.astype(numpy.int64, copy=False),
            offsets=offsets,
            positions=order.astype(numpy.int64, copy=False),
        )

    def _row(self, code: int) -> int:
        """Row of *code* in :attr:`keys`, or -1 if absent."""
        row = int(numpy.searchsorted(self.keys, code))
        if row >= len(self.keys) or int(self.keys[row]) != code:
            return -1
        return row

    def hits_code(self, code: int) -> Sequence[int]:
        """Sorted reference positions of the k-mer with index key *code*.

        Plain ``int``s, so downstream coordinates never carry NumPy
        scalars; ``()`` for an absent key or ``-1``.
        """
        row = self._row(code)
        if row < 0:
            return ()
        return self.positions[self.offsets[row] : self.offsets[row + 1]].tolist()

    def hit_counts(self, codes: NDArray[numpy.int64]) -> NDArray[numpy.int64]:
        """Hit-list length of every code in *codes*, 0 where it has no entry.

        One :class:`KeyTable` lookup answers a whole read batch at once;
        ``-1`` (ambiguous) codes never match.
        """
        return self.key_table.lookup(codes)

    def gather_hits(
        self, codes: NDArray[numpy.int64], counts: NDArray[numpy.int64]
    ) -> NDArray[numpy.int64]:
        """The hit lists of *codes* (all present; *counts* long), concatenated.

        One ``searchsorted`` for the rows, then one :func:`gather_runs`
        over the position table.
        """
        starts = self.offsets[numpy.searchsorted(self.keys, codes)]
        return gather_runs(self.positions, starts, counts)

    @cached_property
    def key_table(self) -> KeyTable:
        """The hashed key -> count table :meth:`hit_counts` probes.

        Built on first use, so a run that never seeds against this index
        never pays for it.
        """
        return KeyTable.build(self.keys, numpy.diff(self.offsets))

    @cached_property
    def base_words(self) -> NDArray[numpy.uint64]:
        """The segment's bases packed 2 bits each (:func:`pack_bases`).

        Built on first use, so a run that never searches RMEMs against
        this index never pays for it; a quarter byte per base.
        """
        return pack_bases(self._base_codes())

    def _base_codes(self) -> NDArray[numpy.uint8]:
        """Bases read back from the position table.

        Every position holds the first base of the k-mer it is listed
        under; the last k - 1 bases are the tail of the final k-mer's code.
        A segment's sequence is all ``ACGT``, so every position is listed.
        """
        k, length = self.k, self.sequence_length
        bases = numpy.zeros(length, dtype=numpy.uint8)
        if length < k:
            return bases
        firsts = ((self.keys >> (2 * (k - 1))) & 3).astype(numpy.uint8)
        bases[self.positions] = numpy.repeat(firsts, numpy.diff(self.offsets))
        slot = int(numpy.flatnonzero(self.positions == length - k)[0])
        row = numpy.searchsorted(self.offsets, slot, side="right") - 1
        last = int(self.keys[row])
        for j in range(1, k):
            bases[length - k + j] = (last >> (2 * (k - 1 - j))) & 3
        return bases

    def _code(self, kmer: str) -> int:
        if len(kmer) != self.k:
            raise ValueError(f"expected a {self.k}-mer, got length {len(kmer)}")
        return kmer_codes(kmer, self.k)[0]

    def hits(self, kmer: str) -> Sequence[int]:
        """Sorted reference positions of *kmer* (empty if absent).

        K-mers containing non-ACGT characters (sequencer ambiguity codes
        such as ``N``) have no index entry by construction and return no
        hits rather than raising — reads carrying them still seed through
        their clean k-mers.
        """
        return self.hits_code(self._code(kmer))

    def hit_count(self, kmer: str) -> int:
        row = self._row(self._code(kmer))
        if row < 0:
            return 0
        return int(self.offsets[row + 1] - self.offsets[row])

    def contains(self, kmer: str) -> bool:
        return self.hit_count(kmer) > 0

    @property
    def distinct_kmers(self) -> int:
        return len(self.keys)

    @property
    def total_positions(self) -> int:
        """Total entries in the position table (= |segment| - k + 1)."""
        return len(self.positions)

    def hit_histogram(self) -> Dict[int, int]:
        """Map hit-list length -> number of k-mers with that length."""
        histogram = numpy.bincount(numpy.diff(self.offsets))
        lengths = numpy.flatnonzero(histogram)
        return dict(zip(lengths.tolist(), histogram[lengths].tolist()))

    def position_table_bytes(self, bytes_per_entry: int = 4) -> int:
        """Position-table footprint: one word per k-mer occurrence."""
        return self.total_positions * bytes_per_entry

    def index_table_bytes(self, bytes_per_entry: int = 6) -> int:
        """Index-table footprint: (offset, count) per possible k-mer.

        Direct-mapped over all 4^k keys, as in the paper's k = 12 design.
        """
        return (4**self.k) * bytes_per_entry


@dataclass
class IndexTables:
    """The per-segment tables GenAx streams into on-chip SRAM (§VI)."""

    segment_index: int
    segment_start: int
    index: KmerIndex

    @cached_property
    def sram_bytes(self) -> int:
        return self.index.position_table_bytes() + self.index.index_table_bytes()


def build_segment_tables(segments: Iterable["SegmentView"], k: int) -> List[IndexTables]:
    """Build tables for every :class:`repro.genome.reference.SegmentView`."""
    return [
        IndexTables(
            segment_index=view.index,
            segment_start=view.start,
            index=KmerIndex.build(view.sequence, k),
        )
        for view in segments
    ]
