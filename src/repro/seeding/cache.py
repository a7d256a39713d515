"""On-disk cache for built seeding tables.

On a real deployment the tables are built once offline (§V: "position
lists are sorted offline") and only streamed at align time.  This cache
gives the simulator the same property: built
:class:`repro.seeding.index.IndexTables` lists are persisted to disk keyed
by a fingerprint of everything that determines their content — the
reference sequence itself, the k-mer size from :class:`SmemConfig`, the
segment count and the segment overlap — so a change to any of them
invalidates the entry and forces a rebuild.

The on-disk format is the paper's table layout, the same three arrays a
:class:`repro.seeding.index.KmerIndex` holds, rather than pickled Python
objects: a JSON header plus raw little-endian int64 buffers (sorted k-mer
codes, prefix-sum offsets, flat position table) per segment.  A warm load
is a single file read plus zero-copy ``numpy.frombuffer`` views wrapped
in that same class.  The build is NumPy passes too (a rolling code, a
stable sort, a unique), so the cache saves less than it once did: on a
2-vCPU machine a warm load of the ``short-genax`` tables (200 kbp, k =
12, 4 segments) takes under 1 ms against 30-35 ms to build them, and of
the ``long-nanopore`` index (120 kbp, k = 13) 0.5 ms against 17-21 ms.

Writes are atomic (temp file + rename) so concurrent workers racing on a
cold cache cannot observe a torn entry; a corrupt, truncated or
foreign-endian entry is treated as a miss and rebuilt.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy

from repro.genome.reference import ReferenceGenome
from repro.seeding.index import IndexTables, KmerIndex
from repro.telemetry.clock import monotonic_s

# Bump when the on-disk layout (or table construction) changes shape.
CACHE_FORMAT_VERSION = 2
_MAGIC = b"GENAXIDX\n"
_WORD = 8  # int64


def index_fingerprint(
    reference: ReferenceGenome, k: int, segment_count: int, overlap: int
) -> str:
    """Digest of everything that determines the built tables' content."""
    hasher = hashlib.sha256()
    hasher.update(
        f"v{CACHE_FORMAT_VERSION}|k={k}|segments={segment_count}|"
        f"overlap={overlap}|".encode()
    )
    hasher.update(reference.sequence.encode())
    return hasher.hexdigest()


@dataclass
class IndexCacheStats:
    """Hit/miss accounting plus wall-clock for the cache-speedup bench."""

    hits: int = 0
    misses: int = 0
    build_seconds: float = 0.0
    load_seconds: float = 0.0


@dataclass
class IndexCache:
    """Fingerprinted raw-table store for per-segment seeding tables."""

    directory: Path
    stats: IndexCacheStats = field(default_factory=IndexCacheStats)

    def __post_init__(self) -> None:
        self.directory = Path(self.directory)

    def entry_path(self, fingerprint: str) -> Path:
        return self.directory / f"genax-index-{fingerprint}.tables"

    def load_or_build(
        self,
        reference: ReferenceGenome,
        k: int,
        segment_count: int,
        overlap: int,
    ) -> List[IndexTables]:
        """Return cached tables if fresh, else build and persist them."""
        fingerprint = index_fingerprint(reference, k, segment_count, overlap)
        path = self.entry_path(fingerprint)
        cached = self._try_load(path)
        if cached is not None:
            return cached
        self.stats.misses += 1
        started = monotonic_s()
        tables = self._build(reference, k, segment_count, overlap)
        self.stats.build_seconds += monotonic_s() - started
        self._store(path, tables)
        return tables

    # ------------------------------------------------------------ internals

    @staticmethod
    def _build(
        reference: ReferenceGenome, k: int, segment_count: int, overlap: int
    ) -> List[IndexTables]:
        return [
            IndexTables(
                segment_index=view.index,
                segment_start=view.start,
                index=KmerIndex.build(view.sequence, k),
            )
            for view in reference.segments(segment_count, overlap=overlap)
        ]

    def _try_load(self, path: Path) -> Optional[List[IndexTables]]:
        if not path.exists():
            return None
        started = monotonic_s()
        try:
            tables = _deserialize(path.read_bytes())
        except (OSError, ValueError, KeyError, json.JSONDecodeError,
                struct.error):
            return None  # torn/corrupt/stale entry: treat as a miss
        self.stats.load_seconds += monotonic_s() - started
        self.stats.hits += 1
        return tables

    def _store(self, path: Path, tables: List[IndexTables]) -> None:
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, temp_name = tempfile.mkstemp(
                dir=str(self.directory), suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(_serialize(tables))
                os.replace(temp_name, path)
            except BaseException:
                try:
                    os.unlink(temp_name)
                except OSError:
                    pass
                raise
        except OSError:
            pass  # cache is best-effort: a read-only dir must not fail alignment


def _serialize(tables: List[IndexTables]) -> bytes:
    segments = []
    buffers: List[bytes] = []
    for entry in tables:
        index = entry.index
        keys = numpy.ascontiguousarray(index.keys, dtype=numpy.int64)
        offsets = numpy.ascontiguousarray(index.offsets, dtype=numpy.int64)
        flat = numpy.ascontiguousarray(index.positions, dtype=numpy.int64)
        segments.append({
            "segment_index": entry.segment_index,
            "segment_start": entry.segment_start,
            "k": index.k,
            "sequence_length": index.sequence_length,
            "keys": len(keys),
            "offsets": len(offsets),
            "flat": len(flat),
        })
        buffers.extend((keys.tobytes(), offsets.tobytes(), flat.tobytes()))
    header = json.dumps({
        "version": CACHE_FORMAT_VERSION,
        "byteorder": sys.byteorder,
        "segments": segments,
    }).encode()
    return b"".join(
        [_MAGIC, struct.pack("<I", len(header)), header] + buffers
    )


def _deserialize(blob: bytes) -> List[IndexTables]:
    if not blob.startswith(_MAGIC):
        raise ValueError("bad magic")
    cursor = len(_MAGIC)
    (header_length,) = struct.unpack_from("<I", blob, cursor)
    cursor += 4
    header = json.loads(blob[cursor : cursor + header_length].decode())
    cursor += header_length
    if header.get("version") != CACHE_FORMAT_VERSION:
        raise ValueError(f"format version {header.get('version')!r}")
    if header.get("byteorder") != sys.byteorder:
        raise ValueError("foreign byte order")

    tables: List[IndexTables] = []
    for segment in header["segments"]:
        arrays = []
        for name in ("keys", "offsets", "flat"):
            count = segment[name]
            end = cursor + count * _WORD
            if end > len(blob):
                raise ValueError("truncated entry")
            arrays.append(
                numpy.frombuffer(blob, dtype=numpy.int64, count=count,
                                 offset=cursor)
            )
            cursor += count * _WORD
        keys, offsets, flat = arrays
        if len(offsets) != len(keys) + 1:
            raise ValueError("inconsistent offsets")
        tables.append(
            IndexTables(
                segment_index=segment["segment_index"],
                segment_start=segment["segment_start"],
                index=KmerIndex(
                    k=segment["k"],
                    sequence_length=segment["sequence_length"],
                    keys=keys,
                    offsets=offsets,
                    positions=flat,
                ),
            )
        )
    if cursor != len(blob):
        raise ValueError("trailing bytes")
    return tables
