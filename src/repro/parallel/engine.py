"""Shard-parallel batch alignment driver, backend-agnostic.

The paper's GenAx gets its throughput from 128 seeding lanes and 4 SillaX
lanes running concurrently (§VI, Fig. 11); the pure-Python simulator runs
every lane serially.  :class:`ParallelAligner` recovers data-parallelism at
the *batch* level instead: the read batch is sharded into contiguous
chunks (:mod:`repro.parallel.sharding`), each chunk is mapped by a worker
process running the unmodified segment-major inner loop of **any backend
registered in** :mod:`repro.pipeline.registry` — the worker factory is
keyed by registry name, so ``genax`` and ``bwamem`` (and every future
backend) shard through the same driver — and the per-worker counters are
merged back into one :class:`~repro.pipeline.registry.BackendRunStats`
snapshot in deterministic chunk order.

Because reads are independent in the staged pipeline — seeding, candidate
generation and extension never look across reads, and lane round-robin
only spreads accounting — the sharded output is **bit-identical** to the
serial ``align_batch`` on the same batch, for any backend and any worker
count.  The concordance tests assert exactly that.  Every merged counter
is also identical to the serial run's — except ``table_bytes_streamed``
on segmented backends, which grows with the chunk count because each
shard streams the segment tables through its own (modelled) SRAM; that is
the honest DDR-traffic price of sharding a segment-major pipeline and is
asserted, not hidden, in tests (and declared in the genaxlint counter
allowlist).

Worker bootstrap cost is kept off the hot path two ways: the parent
builds (or cache-loads, see :mod:`repro.seeding.cache`) the backend's
index tables once via the registry's ``prepare`` hook and shares them
with fork-started workers copy-on-write; on spawn-based platforms each
worker falls back to rebuilding (cache-assisted where the backend's
config carries a ``cache_dir``), so at most one cold build happens per
machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.align.records import (
    AlignmentStats,
    MappedRead,
    NamedRead,
    ReadInput,
    as_named_read,
)
from repro.genome.reference import ReferenceGenome
from repro.parallel.sharding import shard_batch
from repro.pipeline.registry import (
    BackendConfig,
    BackendRunStats,
    BackendSpec,
    PipelineBackend,
    SharedTables,
    backend_for_config,
    get_backend,
)
from repro.pipeline.stages import BatchMapper
from repro.seeding.accelerator import SeedingStats
from repro.sillax.lane import LaneStats
from repro.telemetry.runtime import (
    TelemetrySnapshot,
    active_telemetry,
    telemetry_session,
)


@dataclass
class ShardResult:
    """One chunk's mappings plus the counters its worker accumulated."""

    chunk_id: int
    mapped: List[MappedRead]
    counters: BackendRunStats
    # Worker telemetry snapshot (None when telemetry was off in the parent).
    telemetry: Optional[TelemetrySnapshot] = None


# Worker-process state.  ``_FORK_SHARED`` is set in the parent immediately
# before the pool is created so fork-started workers inherit the prebuilt
# tables copy-on-write; ``_WORKER_FACTORY`` is installed by the pool
# initializer in each worker.
_FORK_SHARED: Optional[SharedTables] = None
_WORKER_FACTORY: Optional[Callable[[], Tuple[BackendSpec, PipelineBackend]]] = None
_WORKER_TELEMETRY = False


def _init_worker(
    backend_name: str,
    reference: ReferenceGenome,
    config: BackendConfig,
    telemetry_enabled: bool = False,
) -> None:
    global _WORKER_FACTORY, _WORKER_TELEMETRY
    spec = get_backend(backend_name)
    shared = _FORK_SHARED  # None on spawn platforms -> rebuild/cache-load
    _WORKER_TELEMETRY = telemetry_enabled

    def factory() -> Tuple[BackendSpec, PipelineBackend]:
        return spec, spec.build(reference, config, shared)

    _WORKER_FACTORY = factory


def _align_chunk(chunk_id: int, reads: Sequence[NamedRead]) -> ShardResult:
    assert _WORKER_FACTORY is not None, "worker used before initialization"
    if not _WORKER_TELEMETRY:
        spec, aligner = _WORKER_FACTORY()
        mapped = aligner.align_batch(reads)
        return ShardResult(
            chunk_id=chunk_id,
            mapped=mapped,
            counters=spec.collect(aligner),
        )
    # One fresh bundle per chunk (workers are reused across chunks, so an
    # accumulating worker-lifetime bundle would double-count on merge).
    # The aligner facade's driver picks the active bundle up implicitly.
    with telemetry_session() as telemetry:
        spec, aligner = _WORKER_FACTORY()
        mapped = aligner.align_batch(reads)
        counters = spec.collect(aligner)
    return ShardResult(
        chunk_id=chunk_id,
        mapped=mapped,
        counters=counters,
        telemetry=telemetry.snapshot(),
    )


class ParallelAligner(BatchMapper[MappedRead]):
    """Aligner-compatible driver that shards batches across processes.

    Wraps any backend registered in :mod:`repro.pipeline.registry`
    (chosen by ``backend`` name, or inferred from the config's type) and
    exposes the same one-entry :class:`~repro.pipeline.stages.BatchMapper`
    contract (``align_read`` is a batch of one) and the same ``stats`` /
    ``lane_stats`` / ``seeding_stats`` counter surface, so
    :func:`repro.pipeline.counters.collect_counters` and the concordance
    tests treat it as a drop-in aligner.
    """

    def __init__(
        self,
        reference: ReferenceGenome,
        config: Optional[BackendConfig] = None,
        jobs: Optional[int] = None,
        chunks_per_job: int = 4,
        backend: Optional[str] = None,
    ) -> None:
        self.reference = reference
        if backend is not None:
            self._spec = get_backend(backend)
        elif config is not None:
            self._spec = backend_for_config(config)
        else:
            self._spec = get_backend("genax")
        self.config = (
            config if config is not None else self._spec.default_config()
        )
        if not isinstance(self.config, self._spec.config_type):
            raise ValueError(
                f"backend {self._spec.name!r} expects a "
                f"{self._spec.config_type.__name__}, got "
                f"{type(self.config).__name__}"
            )
        config_jobs = int(getattr(self.config, "jobs", 1))
        self.jobs = jobs if jobs is not None else max(1, config_jobs)
        if self.jobs <= 0:
            raise ValueError(f"jobs must be positive, got {self.jobs}")
        self.chunks_per_job = chunks_per_job
        self._counters = BackendRunStats(backend=self._spec.name)
        self.stats: AlignmentStats = self._counters.alignment
        self._shared: Optional[SharedTables] = None

    # ----------------------------------------------------------------- API

    @property
    def backend(self) -> str:
        """The registry name of the wrapped backend."""
        return self._spec.name

    @property
    def lane_stats(self) -> LaneStats:
        """Merged extension-lane statistics (empty for software backends)."""
        if self._counters.lanes is None:
            return LaneStats()
        return self._counters.lanes

    @property
    def seeding_stats(self) -> SeedingStats:
        """Merged seeding statistics (empty for unsegmented backends)."""
        if self._counters.seeding is None:
            return SeedingStats()
        return self._counters.seeding

    @property
    def counters(self) -> BackendRunStats:
        """The merged backend counter bundle."""
        return self._counters

    def align_batch(self, reads: Iterable[ReadInput]) -> List[MappedRead]:
        """Map a batch, sharded over ``jobs`` workers; order is preserved."""
        named: List[NamedRead] = [as_named_read(read) for read in reads]
        if not named:
            return []
        shared = self._ensure_shared()
        if self.jobs == 1 or len(named) == 1:
            # In-process fast path: no pool, no pickling, same code path
            # the workers run.
            aligner = self._spec.build(self.reference, self.config, shared)
            mapped = aligner.align_batch(named)
            self._counters.merge(self._spec.collect(aligner))
            return mapped

        chunks = shard_batch(named, self.jobs, self.chunks_per_job)
        results = self._dispatch(chunks)
        results.sort(key=lambda result: result.chunk_id)
        telemetry = active_telemetry()
        ordered: List[MappedRead] = []
        for result in results:
            ordered.extend(result.mapped)
            self._counters.merge(result.counters)
            if telemetry is not None and result.telemetry is not None:
                # Deterministic chunk-order fold, exactly like the counter
                # bundles; each worker's spans land on their own trace lane.
                telemetry.merge_snapshot(
                    result.telemetry, pid=result.chunk_id + 1
                )
        return ordered

    # ------------------------------------------------------------ internals

    def _ensure_shared(self) -> SharedTables:
        """Build (or cache-load) the backend's tables once, in the parent."""
        if self._shared is None:
            self._shared = self._spec.prepare(self.reference, self.config)
        return self._shared

    def _dispatch(
        self, chunks: List[Tuple[int, Sequence[NamedRead]]]
    ) -> List[ShardResult]:
        global _FORK_SHARED
        workers = min(self.jobs, len(chunks))
        _FORK_SHARED = self._shared
        try:
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker,
                initargs=(
                    self._spec.name,
                    self.reference,
                    self.config,
                    active_telemetry() is not None,
                ),
            ) as pool:
                futures = [
                    pool.submit(_align_chunk, chunk_id, chunk)
                    for chunk_id, chunk in chunks
                ]
                return [future.result() for future in futures]
        finally:
            _FORK_SHARED = None
