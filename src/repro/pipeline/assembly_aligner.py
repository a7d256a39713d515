"""Alignment against multi-contig assemblies.

Wraps any registered backend around an
:class:`repro.genome.assembly.Assembly`:
the assembly is linearized for indexing/seeding, mappings are translated
back to contig coordinates, and any candidate alignment whose window would
span a contig boundary is rejected (a read cannot truly align across
chromosomes — the concatenation boundary is an artifact).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.align.records import (
    AlignmentStats,
    MappedRead,
    ReadInput,
    as_named_read,
)
from repro.genome.assembly import Assembly, ContigPosition
from repro.pipeline.genax import GenAxConfig
from repro.pipeline.registry import BackendConfig, backend_for_config
from repro.pipeline.stages import BatchMapper


@dataclass(frozen=True)
class ContigMapping:
    """A read mapping in contig coordinates."""

    read_name: str
    contig: str
    offset: int
    reverse: bool
    score: int
    mapping_quality: int
    cigar: Optional[object]

    @property
    def is_unmapped(self) -> bool:
        return self.offset < 0


class AssemblyAligner(BatchMapper[ContigMapping]):
    """Any registered backend over a multi-contig assembly.

    The backend is resolved from the config's type via the pipeline
    registry, so a newly registered backend maps assemblies with no
    change here.
    """

    def __init__(
        self,
        assembly: Assembly,
        config: Optional[BackendConfig] = None,
    ) -> None:
        self.assembly = assembly
        self.reference = assembly.linearize()
        resolved = config if config is not None else GenAxConfig()
        spec = backend_for_config(resolved)
        self._aligner = spec.build(self.reference, resolved, None)

    @property
    def stats(self) -> AlignmentStats:
        return self._aligner.stats

    def align_batch(self, reads: Iterable[ReadInput]) -> List[ContigMapping]:
        """Map the whole input in one backend batch, then translate each
        mapping to contig coordinates."""
        named = [as_named_read(read) for read in reads]
        mapped = self._aligner.align_batch(named)
        return [
            self._translate(mapping, len(sequence))
            for mapping, (__, sequence) in zip(mapped, named)
        ]

    def _translate(self, mapped: MappedRead, read_length: int) -> ContigMapping:
        if mapped.is_unmapped:
            return ContigMapping(
                read_name=mapped.read_name,
                contig="*",
                offset=-1,
                reverse=False,
                score=0,
                mapping_quality=0,
                cigar=None,
            )
        span = mapped.cigar.reference_length if mapped.cigar else read_length
        end = mapped.position + max(1, span)
        if self.assembly.crosses_boundary(mapped.position, end):
            # A concatenation artifact, not a real alignment.
            return ContigMapping(
                read_name=mapped.read_name,
                contig="*",
                offset=-1,
                reverse=False,
                score=0,
                mapping_quality=0,
                cigar=None,
            )
        where: ContigPosition = self.assembly.locate(mapped.position)
        return ContigMapping(
            read_name=mapped.read_name,
            contig=where.contig,
            offset=where.offset,
            reverse=mapped.reverse,
            score=mapped.score,
            mapping_quality=mapped.mapping_quality,
            cigar=mapped.cigar,
        )
