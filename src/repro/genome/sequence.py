"""Basic DNA string utilities.

A genome is a string over the four-letter alphabet ``A, C, G, T`` (§I of the
paper).  All sequence data in this library is carried as plain Python ``str``
for clarity; 2-bit integer encodings (the form the hardware streams through
its shift registers) are available through :func:`encode` / :func:`decode`,
and whole batches can be packed into NumPy ``uint64`` words (32 bases per
word) with :func:`encode_batch` / :func:`decode_batch` — the layout the
vectorized bit-parallel kernels in :mod:`repro.align.bitvector` consume.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

ALPHABET = "ACGT"
"""The DNA base alphabet, in the canonical 2-bit encoding order."""

BASES_PER_WORD = 32
"""2-bit-packed bases per ``uint64`` word in :func:`encode_batch` output."""

_BASE_TO_CODE = {base: code for code, base in enumerate(ALPHABET)}
_CODE_TO_BASE = dict(enumerate(ALPHABET))
_COMPLEMENT = str.maketrans("ACGTacgt", "TGCAtgca")
_DELETE_BASES = str.maketrans("", "", ALPHABET)

# ASCII byte -> 2-bit code lookup for the vectorized batch encoder; 255
# marks every byte that is not an upper-case A/C/G/T.
_INVALID_CODE = 255
_CODE_LUT = np.full(256, _INVALID_CODE, dtype=np.uint8)
for _base, _code in _BASE_TO_CODE.items():
    _CODE_LUT[ord(_base)] = _code


def is_dna(sequence: str) -> bool:
    """Return True if *sequence* contains only upper-case ``A/C/G/T``."""
    return not sequence.translate(_DELETE_BASES)


def validate_dna(sequence: str, name: str = "sequence") -> str:
    """Return *sequence* unchanged, raising ``ValueError`` on non-ACGT bases."""
    for position, base in enumerate(sequence):
        if base not in _BASE_TO_CODE:
            raise ValueError(
                f"{name} contains non-ACGT base {base!r} at position {position}"
            )
    return sequence


def encode(sequence: str) -> List[int]:
    """Encode a DNA string into the 2-bit-per-base integer form.

    This mirrors the representation streamed through SillaX's reference and
    query shift registers (two bits per symbol).  For whole batches headed
    at the vectorized kernels, use :func:`encode_batch`, which packs the
    same codes 32-per-``uint64``-word in one NumPy pass.
    """
    try:
        return [_BASE_TO_CODE[base] for base in sequence]
    except KeyError as exc:
        raise ValueError(f"non-ACGT base {exc.args[0]!r}") from None


def decode(codes: Sequence[int]) -> str:
    """Decode a 2-bit code sequence back into a DNA string.

    The packed-batch inverse is :func:`decode_batch`.
    """
    try:
        return "".join(_CODE_TO_BASE[code] for code in codes)
    except KeyError as exc:
        raise ValueError(f"code {exc.args[0]!r} is outside 0..3") from None


def encode_batch(
    sequences: Sequence[str],
) -> Tuple[NDArray[np.uint64], NDArray[np.int64]]:
    """Pack a batch of DNA strings into 2-bit/``uint64`` words.

    Returns ``(packed, lengths)``: ``packed`` has shape
    ``(len(sequences), ceil(max_len / 32))`` with base ``j`` of sequence
    ``i`` stored in bits ``2*(j % 32)`` and ``2*(j % 32) + 1`` of
    ``packed[i, j // 32]`` (codes follow :data:`ALPHABET` order, identical
    to :func:`encode`); ``lengths`` carries each sequence's true length so
    padding words/bits (always zero) can be ignored.  Raises ``ValueError``
    on any non-ACGT base, like the scalar encoder.
    """
    count = len(sequences)
    lengths = np.fromiter(
        (len(sequence) for sequence in sequences), dtype=np.int64, count=count
    )
    max_len = int(lengths.max()) if count else 0
    words = max(1, -(-max_len // BASES_PER_WORD))
    packed = np.zeros((count, words), dtype=np.uint64)
    if count == 0 or max_len == 0:
        return packed, lengths
    ends = np.cumsum(lengths)
    # One encode over the concatenation: a per-sequence frombuffer loop
    # costs more than the packing itself at kernel batch sizes.
    try:
        raw = np.frombuffer("".join(sequences).encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError as error:
        row = int(np.searchsorted(ends, error.start, side="right"))
        raise ValueError(
            f"sequence {row} contains a non-ASCII character"
        ) from None
    flat_codes = _CODE_LUT[raw]
    bad = flat_codes == _INVALID_CODE
    if bad.any():
        position = int(np.argmax(bad))
        row = int(np.searchsorted(ends, position, side="right"))
        column = position - int(ends[row] - lengths[row])
        raise ValueError(
            f"non-ACGT base {sequences[row][column]!r} in sequence {row} "
            f"at position {column}"
        )
    valid = np.arange(max_len, dtype=np.int64) < lengths[:, None]
    padded = np.zeros((count, words * BASES_PER_WORD), dtype=np.uint64)
    padded[:, :max_len][valid] = flat_codes
    shifts = np.arange(BASES_PER_WORD, dtype=np.uint64) * np.uint64(2)
    packed = np.bitwise_or.reduce(
        padded.reshape(count, words, BASES_PER_WORD) << shifts, axis=2
    )
    return packed, lengths


def unpack_batch(
    packed: NDArray[np.uint64], lengths: NDArray[np.int64]
) -> NDArray[np.uint8]:
    """Unpack :func:`encode_batch` words into a ``(n, capacity)`` code matrix.

    The array-facing inverse of :func:`encode_batch` for kernels that want
    to compare bases lane-wise without materialising strings: entry
    ``[i, j]`` is the 2-bit code of base ``j`` of sequence ``i``.
    Positions at or beyond a row's true length hold the packer's zero
    padding — mask with *lengths* before trusting them.  :func:`decode_batch` goes all the way back to
    DNA strings.
    """
    packed = np.asarray(packed, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if packed.ndim != 2 or lengths.shape != (packed.shape[0],):
        raise ValueError(
            f"expected (n, words) words and (n,) lengths, got "
            f"{packed.shape} and {lengths.shape}"
        )
    count, words = packed.shape
    capacity = words * BASES_PER_WORD
    shifts = np.arange(BASES_PER_WORD, dtype=np.uint64) * np.uint64(2)
    codes = ((packed[:, :, None] >> shifts) & np.uint64(3)).reshape(
        count, capacity
    )
    return codes.astype(np.uint8)


def decode_batch(
    packed: NDArray[np.uint64], lengths: NDArray[np.int64]
) -> List[str]:
    """Unpack :func:`encode_batch` output back into DNA strings."""
    codes = unpack_batch(packed, lengths)
    lengths = np.asarray(lengths, dtype=np.int64)
    capacity = codes.shape[1]
    count = codes.shape[0]
    out: List[str] = []
    for row in range(count):
        length = int(lengths[row])
        if not 0 <= length <= capacity:
            raise ValueError(
                f"length {length} of sequence {row} exceeds the packed "
                f"capacity {capacity}"
            )
        out.append("".join(ALPHABET[code] for code in codes[row, :length]))
    return out


def complement(sequence: str) -> str:
    """Return the base-wise complement (A<->T, C<->G)."""
    return sequence.translate(_COMPLEMENT)


def reverse_complement(sequence: str) -> str:
    """Return the reverse complement, i.e. the opposite strand read 5'->3'."""
    return complement(sequence)[::-1]


def gc_content(sequence: str) -> float:
    """Return the fraction of G/C bases (0.0 for the empty string)."""
    if not sequence:
        return 0.0
    gc = sum(1 for base in sequence if base in "GCgc")
    return gc / len(sequence)


def kmers(sequence: str, k: int) -> Iterator[str]:
    """Yield every (overlapping) k-mer of *sequence* in order.

    Seeding (§V) indexes the reference by its k-mers; ``k = 12`` is the
    paper's operating point.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    for start in range(len(sequence) - k + 1):
        yield sequence[start : start + k]


def random_dna(length: int, rng: random.Random, gc: float = 0.5) -> str:
    """Generate a random DNA string with expected GC fraction *gc*.

    A seeded ``random.Random`` must be supplied so that every experiment in
    the harness is reproducible.
    """
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    if not 0.0 <= gc <= 1.0:
        raise ValueError(f"gc must be within [0, 1], got {gc}")
    weights = [(1 - gc) / 2, gc / 2, gc / 2, (1 - gc) / 2]  # A, C, G, T
    return "".join(rng.choices(ALPHABET, weights=weights, k=length))


def hamming_distance(left: str, right: str) -> int:
    """Return the Hamming distance between equal-length strings."""
    if len(left) != len(right):
        raise ValueError(
            f"hamming_distance requires equal lengths, got {len(left)} and {len(right)}"
        )
    return sum(1 for a, b in zip(left, right) if a != b)
