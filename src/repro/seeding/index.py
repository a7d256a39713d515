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

Sizes in bytes are modelled so the memory/area models (Table II: 48 MB
index + 18 MB position for a 6 Mbp segment scheme) can be regenerated for
any genome scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence

import numpy
from numpy.typing import NDArray

from repro.genome.sequence import ALPHABET, encode

if TYPE_CHECKING:
    from repro.genome.reference import SegmentView

_BASE_CODES = {base: code for code, base in enumerate(ALPHABET)}


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
    mask = (1 << (2 * k)) - 1
    codes: List[int] = []
    code = 0
    clean = 0  # length of the ACGT run ending at the current base
    for base in read:
        base_code = _BASE_CODES.get(base)
        if base_code is None:
            clean = 0
        else:
            code = ((code << 2) | base_code) & mask
            clean += 1
        codes.append(code if clean >= k else -1)
    return codes[k - 1 :]


class _KmerLookup:
    """String-keyed lookups shared by both index types, over ``hits_code``.

    The seeding hot path works on integer codes (:func:`kmer_codes`);
    these adapters serve tests, tools and analyses that hold k-mer strings.
    """

    k: int

    def hits_code(self, code: int) -> Sequence[int]:
        raise NotImplementedError

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
        return len(self.hits(kmer))

    def contains(self, kmer: str) -> bool:
        return len(self.hits(kmer)) > 0

    @property
    def total_positions(self) -> int:
        raise NotImplementedError

    def position_table_bytes(self, bytes_per_entry: int = 4) -> int:
        """Position-table footprint: one word per k-mer occurrence."""
        return self.total_positions * bytes_per_entry

    def index_table_bytes(self, bytes_per_entry: int = 6) -> int:
        """Index-table footprint: (offset, count) per possible k-mer.

        Direct-mapped over all 4^k keys, as in the paper's k = 12 design.
        """
        return (4**self.k) * bytes_per_entry


@dataclass
class KmerIndex(_KmerLookup):
    """Index + position tables for one reference segment."""

    k: int
    sequence_length: int
    _positions: Dict[int, List[int]] = field(default_factory=dict, repr=False)
    # Position-table entry count; ``build`` knows it, other callers may
    # leave it to be summed on first use.
    _total_positions: Optional[int] = field(default=None, repr=False)

    @classmethod
    def build(cls, sequence: str, k: int) -> "KmerIndex":
        """Offline table construction (done once per segment)."""
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        positions: Dict[int, List[int]] = {}
        if len(sequence) >= k:
            # Rolling 2-bit encoding keeps construction O(N).
            mask = (1 << (2 * k)) - 1
            code = kmer_code(sequence[:k])
            positions.setdefault(code, []).append(0)
            encoded = encode(sequence)
            for start in range(1, len(sequence) - k + 1):
                code = ((code << 2) | encoded[start + k - 1]) & mask
                positions.setdefault(code, []).append(start)
        return cls(
            k=k,
            sequence_length=len(sequence),
            _positions=positions,
            _total_positions=max(0, len(sequence) - k + 1),
        )

    def hits_code(self, code: int) -> Sequence[int]:
        """Sorted reference positions of the k-mer with index key *code*."""
        return self._positions.get(code, ())

    def sorted_codes(self) -> NDArray[numpy.int64]:
        """Every key present in the index, ascending."""
        keys = numpy.fromiter(
            self._positions, dtype=numpy.int64, count=len(self._positions)
        )
        keys.sort()
        return keys

    @property
    def distinct_kmers(self) -> int:
        return len(self._positions)

    @property
    def total_positions(self) -> int:
        """Total entries in the position table (= |segment| - k + 1)."""
        if self._total_positions is None:
            self._total_positions = sum(len(v) for v in self._positions.values())
        return self._total_positions

    def hit_histogram(self) -> Dict[int, int]:
        """Map hit-list length -> number of k-mers with that length."""
        histogram: Dict[int, int] = {}
        for hits in self._positions.values():
            histogram[len(hits)] = histogram.get(len(hits), 0) + 1
        return histogram


@dataclass
class PackedKmerIndex(_KmerLookup):
    """CSR-packed, read-only k-mer index with ``KmerIndex``'s lookup API.

    The paper's actual table layout (§V): one flat **position table** and a
    per-k-mer ``(offset, count)`` **index table**, here as three numpy
    arrays — sorted k-mer codes, prefix-sum offsets, flat positions.  The
    point of this representation is the cache (:mod:`repro.seeding.cache`):
    the arrays deserialize with a zero-copy ``frombuffer`` instead of
    materializing hundreds of thousands of Python lists, which is what
    makes a warm index load orders of magnitude faster than a rebuild.

    ``hits_code`` finds a key's row with one ``searchsorted`` over the
    sorted code array, where the hardware does a direct-mapped index
    fetch; the seeding stats count lookups, not Python instructions, so
    both representations account identically.  It materializes only the
    requested slice, as plain ``int``s, so downstream coordinates are
    type-identical to the dict-backed path.
    """

    k: int
    sequence_length: int
    _keys: "object" = field(repr=False, default=None)  # int64 codes, sorted
    _offsets: "object" = field(repr=False, default=None)  # int64, len(keys)+1
    _flat: "object" = field(repr=False, default=None)  # int64 position table

    @classmethod
    def pack(cls, index: KmerIndex) -> "PackedKmerIndex":
        """Pack a dict-backed index into CSR arrays (offline/cold path)."""
        import itertools

        items = sorted(index._positions.items())
        keys = numpy.array([code for code, __ in items], dtype=numpy.int64)
        counts = numpy.array([len(v) for __, v in items], dtype=numpy.int64)
        offsets = numpy.zeros(len(items) + 1, dtype=numpy.int64)
        numpy.cumsum(counts, out=offsets[1:])
        flat = numpy.array(
            list(itertools.chain.from_iterable(v for __, v in items)),
            dtype=numpy.int64,
        )
        return cls(
            k=index.k,
            sequence_length=index.sequence_length,
            _keys=keys,
            _offsets=offsets,
            _flat=flat,
        )

    def _row(self, code: int) -> int:
        """Row of *code* in the key array, or -1 if absent."""
        row = int(numpy.searchsorted(self._keys, code))
        if row >= len(self._keys) or int(self._keys[row]) != code:
            return -1
        return row

    def hits_code(self, code: int) -> Sequence[int]:
        """Sorted reference positions of the k-mer with index key *code*."""
        row = self._row(code)
        if row < 0:
            return ()
        return self._flat[self._offsets[row] : self._offsets[row + 1]].tolist()

    def hit_count(self, kmer: str) -> int:
        row = self._row(self._code(kmer))
        if row < 0:
            return 0
        return int(self._offsets[row + 1] - self._offsets[row])

    def sorted_codes(self) -> NDArray[numpy.int64]:
        """Every key present in the index, ascending (the key array itself)."""
        return self._keys

    @property
    def distinct_kmers(self) -> int:
        return len(self._keys)

    @property
    def total_positions(self) -> int:
        return len(self._flat)

    def hit_histogram(self) -> Dict[int, int]:
        histogram: Dict[int, int] = {}
        for row in range(len(self._keys)):
            length = int(self._offsets[row + 1] - self._offsets[row])
            histogram[length] = histogram.get(length, 0) + 1
        return histogram


@dataclass
class IndexTables:
    """The per-segment tables GenAx streams into on-chip SRAM (§VI)."""

    segment_index: int
    segment_start: int
    index: KmerIndex

    @cached_property
    def sram_bytes(self) -> int:
        return self.index.position_table_bytes() + self.index.index_table_bytes()

    @cached_property
    def _sorted_codes(self) -> NDArray[numpy.int64]:
        # Built on first use, not at set-up: a run that never seeds
        # against these tables never pays for the sort.
        return self.index.sorted_codes()

    def live(self, codes: NDArray[numpy.int64]) -> NDArray[numpy.bool_]:
        """Which of *codes* have an entry in this segment's index.

        One batched ``searchsorted`` over the sorted key array answers
        every lookup of a batch at once; ``-1`` (ambiguous) codes are never
        live.
        """
        keys = self._sorted_codes
        if not len(keys):
            return numpy.zeros(len(codes), dtype=bool)
        rows = numpy.searchsorted(keys, codes)
        rows[rows == len(keys)] = 0
        return keys[rows] == codes


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
