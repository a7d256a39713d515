"""Shard-parallel batch alignment: multiprocess driver and index cache.

The subsystem has two load-bearing pieces, each usable on its own:

* :class:`ParallelAligner` (:mod:`repro.parallel.engine`) — shards a read
  batch across worker processes and merges mappings + hardware counters
  back deterministically; wraps *any* backend registered in
  :mod:`repro.pipeline.registry` (``genax``, ``bwamem``, ...) as a
  drop-in for the serial aligner.
* :class:`IndexCache` (:mod:`repro.seeding.cache`, re-exported here) —
  fingerprinted on-disk store for built seeding tables so repeated runs
  skip the O(genome) rebuild.
"""

from repro.align.prefilter import lossless_threshold
from repro.parallel.engine import ParallelAligner, ShardResult
from repro.parallel.sharding import chunk_bounds, shard_batch
from repro.seeding.cache import IndexCache, IndexCacheStats, index_fingerprint

__all__ = [
    "ParallelAligner",
    "ShardResult",
    "lossless_threshold",
    "IndexCache",
    "IndexCacheStats",
    "index_fingerprint",
    "chunk_bounds",
    "shard_batch",
]
