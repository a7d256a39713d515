"""Basic DNA string utilities.

A genome is a string over the four-letter alphabet ``A, C, G, T`` (§I of the
paper).  All sequence data in this library is carried as plain Python ``str``
for clarity; 2-bit integer encodings (the form the hardware streams through
its shift registers) are available through :func:`encode` / :func:`decode`
per string, and through :func:`encode_bases` for whole texts: one NumPy
byte per base, the one code array the vectorized kernels read.  The
bit-parallel Myers kernel (:mod:`repro.align.bitvector`) takes such an
array plus window spans, not packed strings.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Sequence

import numpy as np
from numpy.typing import NDArray

ALPHABET = "ACGT"
"""The DNA base alphabet, in the canonical 2-bit encoding order."""

BASES_PER_WORD = 32
"""2-bit-packed bases per ``uint64`` word in the seeding index's packed
reference (:func:`repro.seeding.index.pack_bases`)."""

_BASE_TO_CODE = {base: code for code, base in enumerate(ALPHABET)}
_CODE_TO_BASE = dict(enumerate(ALPHABET))
_COMPLEMENT = str.maketrans("ACGTacgt", "TGCAtgca")
_DELETE_BASES = str.maketrans("", "", ALPHABET)

#: The code :func:`encode_bases` gives every byte outside upper-case ``ACGT``.
DIRTY_BASE = 4

# ASCII byte -> 2-bit code lookup for the vectorized encoder.
_ASCII_TO_BASE = np.full(256, DIRTY_BASE, dtype=np.uint8)
for _base, _code in _BASE_TO_CODE.items():
    _ASCII_TO_BASE[ord(_base)] = _code


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
    query shift registers (two bits per symbol).  For whole texts headed
    at the vectorized kernels, use :func:`encode_bases`, which gives the
    same codes as one NumPy byte array in one pass.
    """
    try:
        return [_BASE_TO_CODE[base] for base in sequence]
    except KeyError as exc:
        raise ValueError(f"non-ACGT base {exc.args[0]!r}") from None


def decode(codes: Sequence[int]) -> str:
    """Decode a 2-bit code sequence back into a DNA string."""
    try:
        return "".join(_CODE_TO_BASE[code] for code in codes)
    except KeyError as exc:
        raise ValueError(f"code {exc.args[0]!r} is outside 0..3") from None


def encode_bases(text: str) -> NDArray[np.uint8]:
    """The 2-bit code of every character of *text*, one byte each, and
    :data:`DIRTY_BASE` where it is not an upper-case ``ACGT``.

    The non-raising, array sibling of :func:`encode`, and the one
    encoder of the vectorized paths: seeding, the k-mer index and the
    candidate filter encode reads that may hold an ``N`` with it, and the
    filter its cached reference, whose windows the Myers kernel reads by
    span.
    """
    raw = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)
    return _ASCII_TO_BASE[raw]


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
