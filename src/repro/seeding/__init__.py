"""Seeding accelerator (§V): SMEM seeding over segmented k-mer tables.

* :mod:`repro.seeding.index` — index table + position table (per segment).
* :mod:`repro.seeding.cam` — the 512-entry CAM intersection engine with
  binary-search fallback, as a cost model over list lengths.
* :mod:`repro.seeding.smem` — the RMEM/SMEM algorithm with the paper's
  optimizations (stride halving, probing, exact-match fast path), run as
  one batched search per read batch over every segment.
* :mod:`repro.seeding.smem_oracle` — brute-force ground truth, the
  per-pivot CAM walk and the segment-at-a-time accelerator the batched
  search is checked against.
* :mod:`repro.seeding.accelerator` — seeding lanes and the segmented
  accelerator front-end.
"""

from repro.seeding.index import KmerIndex, IndexTables
from repro.seeding.cam import IntersectionEngine, IntersectionStats
from repro.seeding.smem import Seed, SmemConfig, SmemFinder, SeedingMode
from repro.seeding.smem_oracle import brute_force_smems, brute_force_rmem
from repro.seeding.accelerator import SeedingAccelerator, SeedingLane, SeedingStats
from repro.seeding.fmindex import FmIndex, FmIndexSeeder, MemoryTrace
from repro.seeding.analysis import (
    HitDistribution,
    analyze_index,
    pathological_kmers,
    recommend_cam_size,
)

__all__ = [
    "KmerIndex",
    "IndexTables",
    "IntersectionEngine",
    "IntersectionStats",
    "Seed",
    "SmemConfig",
    "SmemFinder",
    "SeedingMode",
    "brute_force_smems",
    "brute_force_rmem",
    "SeedingAccelerator",
    "SeedingLane",
    "SeedingStats",
    "FmIndex",
    "FmIndexSeeder",
    "MemoryTrace",
    "HitDistribution",
    "analyze_index",
    "pathological_kmers",
    "recommend_cam_size",
]
