"""Minimal FASTA/FASTQ parsing and writing.

The sequencing world exchanges references as FASTA and reads as FASTQ
(the paper's input is ``ERR194147_1.fastq``).  These are deliberately small,
dependency-free implementations sufficient for the examples and tests.
"""

from __future__ import annotations

from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, List, Tuple, Union

from repro.genome.reads import Read

PathLike = Union[str, Path]


def parse_fasta(text: str) -> List[Tuple[str, str]]:
    """Parse FASTA text into ``(name, sequence)`` pairs."""
    records: List[Tuple[str, str]] = []
    name = None
    chunks: List[str] = []
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith(">"):
            if name is not None:
                records.append((name, "".join(chunks)))
            name = line[1:].split()[0] if len(line) > 1 else ""
            chunks = []
        else:
            if name is None:
                raise ValueError("FASTA sequence data before any '>' header")
            chunks.append(line.upper())
    if name is not None:
        records.append((name, "".join(chunks)))
    return records


def read_fasta(path: PathLike) -> List[Tuple[str, str]]:
    """Read a FASTA file into ``(name, sequence)`` pairs."""
    with open(path) as handle:
        return parse_fasta(handle.read())


def write_fasta(path: PathLike, records: Iterable[Tuple[str, str]], width: int = 70) -> None:
    """Write ``(name, sequence)`` pairs as FASTA with wrapped lines."""
    with open(path, "w") as handle:
        for name, sequence in records:
            handle.write(f">{name}\n")
            for start in range(0, len(sequence), width):
                handle.write(sequence[start : start + width] + "\n")


def _fastq_read(number: int, record: List[str]) -> Read:
    """FASTQ record *number* (1-based) from its lines.

    A malformed record raises a one-line ``ValueError`` that names it by
    number and, when its header holds one, by read name.
    """
    header = record[0].strip()
    fields = header[1:].split() if header.startswith("@") else []
    name = fields[0] if fields else ""
    where = f"FASTQ record {number}" + (f" ({name!r})" if name else "")
    if len(record) < 4:
        raise ValueError(f"{where} is truncated: {len(record)} of 4 lines")
    if not name:
        raise ValueError(f"{where} header is not '@<name>': {header!r}")
    sequence, plus, quality = (line.strip() for line in record[1:4])
    if not plus.startswith("+"):
        raise ValueError(f"{where} separator does not start with '+': {plus!r}")
    if len(quality) != len(sequence):
        raise ValueError(
            f"{where} has {len(quality)} quality characters for "
            f"{len(sequence)} bases"
        )
    return Read(name=name, sequence=sequence.upper(), quality=quality)


def _fastq_records(lines: Iterator[str]) -> Iterator[Read]:
    """Group FASTQ *lines* four to a record, blank lines included.

    A zero-length read has a blank sequence and a blank quality line, so
    blank lines are never dropped inside the input; only blank lines
    after the last record are ignored.
    """
    for number, header in enumerate(lines, start=1):
        if not header.strip() and not any(line.strip() for line in lines):
            return  # nothing but blank lines after the last record
        yield _fastq_read(number, [header, *islice(lines, 3)])


def parse_fastq(text: str) -> List[Read]:
    """Parse FASTQ text into :class:`Read` records, as :func:`iter_fastq` does."""
    return list(_fastq_records(iter(text.splitlines())))


def read_fastq(path: PathLike) -> List[Read]:
    """Read a FASTQ file into :class:`Read` records."""
    with open(path) as handle:
        return parse_fastq(handle.read())


def write_fastq(path: PathLike, reads: Iterable[Read]) -> None:
    """Write reads as FASTQ (synthesizing flat qualities if absent)."""
    with open(path, "w") as handle:
        for read in reads:
            quality = read.quality or ("I" * len(read.sequence))
            handle.write(f"@{read.name}\n{read.sequence}\n+\n{quality}\n")


def iter_fastq(path: PathLike) -> Iterator[Read]:
    """Stream reads from a FASTQ file without loading it wholesale."""
    with open(path) as handle:
        yield from _fastq_records(handle)
