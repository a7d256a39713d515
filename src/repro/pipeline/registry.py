"""Backend registry: name -> stage-composition factory.

Every mapping backend — a :class:`~repro.pipeline.stages.StageSet`
composition behind the shared driver — registers here under a stable
name.  Drivers that should work for *any* backend (the CLI's
``--pipeline`` choices, the shard-parallel
:class:`~repro.parallel.engine.ParallelAligner` worker factory, the
assembly aligner) resolve backends by name instead of importing concrete
aligner classes, so adding a backend is one :class:`BackendSpec`
registration — no new copy of the mapping loop, no new parallel driver.

A spec carries four picklable-by-name hooks:

* ``default_config()`` — a fresh config object at the backend's defaults;
* ``prepare(reference, config)`` — parent-side shared state (prebuilt
  index tables), shared with fork-started shard workers copy-on-write;
* ``build(reference, config, shared)`` — construct the aligner facade,
  reusing ``shared`` when given;
* ``collect(aligner)`` — snapshot the aligner's counters as one
  mergeable :class:`BackendRunStats` bundle (what shard workers ship
  back to be folded deterministically).

Run ``python -m repro.pipeline.registry`` to print the README backend
table; ``tests/pipeline/test_registry.py`` asserts the README copy
matches the registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple

from repro.align.records import AlignmentStats, MappedRead
from repro.genome.reference import ReferenceGenome
from repro.pipeline.bitvector import BitvectorAligner, BitvectorConfig
from repro.pipeline.bwamem import BwaMemAligner, BwaMemConfig
from repro.pipeline.genax import GenAxAligner, GenAxConfig
from repro.pipeline.longread import LongReadAligner, LongReadConfig
from repro.seeding.accelerator import SeedingAccelerator, SeedingStats
from repro.seeding.cache import IndexCache
from repro.seeding.index import build_segment_tables
from repro.sillax.lane import LaneStats


class PipelineBackend(Protocol):
    """What every registered backend's ``build`` must return."""

    stats: AlignmentStats

    def align_read(self, name: str, sequence: str) -> MappedRead: ...

    def align_reads(self, reads: Any) -> List[MappedRead]: ...

    def align_batch(self, reads: Any) -> List[MappedRead]: ...


@dataclass
class BackendRunStats:
    """Uniform mergeable counter bundle for one backend run.

    ``alignment`` is universal; ``lanes``/``seeding`` are populated only
    by backends that model that hardware (``None`` otherwise, and a merge
    from a populated bundle materialises them).  Folding is deterministic
    and additive, so shard-merged bundles equal a serial run's — the
    golden-fixture tests assert it per backend.
    """

    backend: str
    alignment: AlignmentStats = field(default_factory=AlignmentStats)
    lanes: Optional[LaneStats] = None
    seeding: Optional[SeedingStats] = None

    def merge(self, other: "BackendRunStats") -> None:
        if self.backend != other.backend:
            raise ValueError(
                f"cannot merge {other.backend!r} counters into "
                f"{self.backend!r}"
            )
        self.alignment.merge(other.alignment)
        if other.lanes is not None:
            if self.lanes is None:
                self.lanes = LaneStats()
            self.lanes.merge(other.lanes)
        if other.seeding is not None:
            if self.seeding is None:
                self.seeding = SeedingStats()
            self.seeding.merge(other.seeding)


# A backend config is an arbitrary (picklable) dataclass; the registry
# treats it opaquely and matches it back to its spec by type.
BackendConfig = Any
SharedTables = Any


@dataclass(frozen=True)
class BackendSpec:
    """One registered backend: name, config type and factory hooks."""

    name: str
    summary: str  # one line; rendered into the README backend table
    config_type: type
    default_config: Callable[[], BackendConfig]
    prepare: Callable[[ReferenceGenome, BackendConfig], SharedTables]
    build: Callable[
        [ReferenceGenome, BackendConfig, Optional[SharedTables]],
        PipelineBackend,
    ]
    collect: Callable[[PipelineBackend], BackendRunStats]


_REGISTRY: Dict[str, BackendSpec] = {}


def register_backend(spec: BackendSpec) -> BackendSpec:
    """Register *spec*; duplicate names are a programming error."""
    if spec.name in _REGISTRY:
        raise ValueError(f"backend {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def backend_names() -> Tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(_REGISTRY)


def get_backend(name: str) -> BackendSpec:
    """Look a backend up by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise ValueError(f"unknown backend {name!r} (known: {known})") from None


def backend_for_config(config: BackendConfig) -> BackendSpec:
    """Resolve the spec whose ``config_type`` matches *config*."""
    for spec in _REGISTRY.values():
        if isinstance(config, spec.config_type):
            return spec
    raise ValueError(
        f"no registered backend accepts config of type "
        f"{type(config).__name__}"
    )


def build_aligner(
    name: str,
    reference: ReferenceGenome,
    config: Optional[BackendConfig] = None,
    shared: Optional[SharedTables] = None,
) -> PipelineBackend:
    """Convenience: resolve *name* and build its aligner facade."""
    spec = get_backend(name)
    if config is None:
        config = spec.default_config()
    return spec.build(reference, config, shared)


def render_backend_table() -> str:
    """The markdown backend table the README embeds (kept in sync by test)."""
    lines = ["| backend | what it is |", "|---|---|"]
    for spec in _REGISTRY.values():
        lines.append(f"| `{spec.name}` | {spec.summary} |")
    return "\n".join(lines)


# --------------------------------------------------------------- backends


def _prepare_genax(
    reference: ReferenceGenome, config: GenAxConfig
) -> SharedTables:
    """Build (or cache-load) the segmented index once, in the parent."""
    overlap = SeedingAccelerator.SEGMENT_OVERLAP
    if config.cache_dir is not None:
        return IndexCache(config.cache_dir).load_or_build(
            reference, config.k, config.segment_count, overlap
        )
    return build_segment_tables(
        reference.segments(config.segment_count, overlap=overlap), config.k
    )


def _build_genax(
    reference: ReferenceGenome,
    config: GenAxConfig,
    shared: Optional[SharedTables],
) -> GenAxAligner:
    return GenAxAligner(reference, config, tables=shared)


def _collect_genax(aligner: PipelineBackend) -> BackendRunStats:
    assert isinstance(aligner, GenAxAligner)
    return BackendRunStats(
        backend="genax",
        alignment=aligner.stats,
        lanes=aligner.lane_stats,
        seeding=aligner.seeding_stats,
    )


def _prepare_bwamem(
    reference: ReferenceGenome, config: BwaMemConfig
) -> SharedTables:
    return BwaMemAligner.build_tables(reference, config.k)


def _build_bwamem(
    reference: ReferenceGenome,
    config: BwaMemConfig,
    shared: Optional[SharedTables],
) -> BwaMemAligner:
    return BwaMemAligner(reference, config, tables=shared)


def _collect_bwamem(aligner: PipelineBackend) -> BackendRunStats:
    assert isinstance(aligner, BwaMemAligner)
    return BackendRunStats(backend="bwamem", alignment=aligner.stats)


def _prepare_bitvector(
    reference: ReferenceGenome, config: BitvectorConfig
) -> SharedTables:
    return BitvectorAligner.build_tables(reference, config.k)


def _build_bitvector(
    reference: ReferenceGenome,
    config: BitvectorConfig,
    shared: Optional[SharedTables],
) -> BitvectorAligner:
    return BitvectorAligner(reference, config, tables=shared)


def _collect_bitvector(aligner: PipelineBackend) -> BackendRunStats:
    assert isinstance(aligner, BitvectorAligner)
    return BackendRunStats(backend="bitvector", alignment=aligner.stats)


def _prepare_longread(
    reference: ReferenceGenome, config: LongReadConfig
) -> SharedTables:
    return LongReadAligner.build_tables(reference, config.k)


def _build_longread(
    reference: ReferenceGenome,
    config: LongReadConfig,
    shared: Optional[SharedTables],
) -> LongReadAligner:
    return LongReadAligner(reference, config, tables=shared)


def _collect_longread(aligner: PipelineBackend) -> BackendRunStats:
    assert isinstance(aligner, LongReadAligner)
    return BackendRunStats(backend="longread", alignment=aligner.stats)


GENAX_BACKEND = register_backend(
    BackendSpec(
        name="genax",
        summary=(
            "the accelerator (§VI): segmented SMEM seeding + SillaX "
            "traceback lanes run as one batched dense (NumPy) traceback "
            "per dispatch, exact against the cycle-level machine, full "
            "cycle/work accounting"
        ),
        config_type=GenAxConfig,
        default_config=GenAxConfig,
        prepare=_prepare_genax,
        build=_build_genax,
        collect=_collect_genax,
    )
)

BWAMEM_BACKEND = register_backend(
    BackendSpec(
        name="bwamem",
        summary=(
            "the software gold standard: whole-genome SMEM seeding + "
            "banded affine-gap Smith-Waterman with clipping"
        ),
        config_type=BwaMemConfig,
        default_config=BwaMemConfig,
        prepare=_prepare_bwamem,
        build=_build_bwamem,
        collect=_collect_bwamem,
    )
)

BITVECTOR_BACKEND = register_backend(
    BackendSpec(
        name="bitvector",
        summary=(
            "the vectorized software pipeline: batched bit-parallel Myers "
            "verification (NumPy, cross-read lanes) gating banded "
            "traceback for the few survivors"
        ),
        config_type=BitvectorConfig,
        default_config=BitvectorConfig,
        prepare=_prepare_bitvector,
        build=_build_bitvector,
        collect=_collect_bitvector,
    )
)

LONGREAD_BACKEND = register_backend(
    BackendSpec(
        name="longread",
        summary=(
            "the long-read pipeline: diagonal anchor chaining over the "
            "k-mer index + per-read adaptive banded extension (band and "
            "threshold derived from read length)"
        ),
        config_type=LongReadConfig,
        default_config=LongReadConfig,
        prepare=_prepare_longread,
        build=_build_longread,
        collect=_collect_longread,
    )
)


if __name__ == "__main__":
    print(render_backend_table())
