"""Cross-engine invariants: every implementation must agree on shared inputs.

The repository contains many engines computing related quantities (the
point of the paper is that they differ in *cost*, never in *answers*).
This suite runs them all over the same randomized workloads:

* edit distance: DP, Silla (2-D/3-D/collapsed), the SillaX edit machine,
  the classic LA, the ULA, and the STE-compiled LA;
* bounded affine extension: the (i,j,e) oracle, the scoring machine, the
  dense machine, and the traceback machine;
* unbounded extension: full Gotoh, wide-banded Gotoh, wide X-drop, and the
  systolic wavefront array;
* local alignment: scalar Gotoh and Farrar's striped formulation;
* SMEM seeding: position tables, the FM-index, and the brute-force scan.
"""

import random

import pytest

from repro.align.banded import banded_extension_score
from repro.align.edit_distance import levenshtein
from repro.align.extension_oracle import extension_oracle
from repro.align.levenshtein_automaton import LevenshteinAutomaton
from repro.align.smith_waterman import extension_align, local_align
from repro.align.striped_sw import striped_local_score
from repro.align.systolic_sw import SystolicBandedSW
from repro.align.ula import UniversalLevenshteinAutomaton
from repro.align.xdrop import xdrop_extension_score
from repro.automata.levenshtein_nfa import compile_levenshtein_nfa
from repro.core.silla import Silla
from repro.core.three_d_silla import ThreeDSilla
from repro.seeding.fmindex import FmIndexSeeder
from repro.seeding.index import KmerIndex
from repro.seeding.smem import SmemConfig, SmemFinder
from repro.seeding.smem_oracle import brute_force_smems
from repro.sillax.dense import DenseScoringMachine
from repro.sillax.edit_machine import EditMachine
from repro.sillax.scoring_machine import ScoringMachine
from repro.sillax.traceback_machine import TracebackMachine


def _pairs(seed, count, max_len=12):
    rng = random.Random(seed)
    for trial in range(count):
        alpha = "AC" if trial % 3 == 0 else "ACGT"
        n, m = rng.randrange(0, max_len), rng.randrange(0, max_len)
        a = "".join(rng.choice(alpha) for _ in range(n))
        b = "".join(rng.choice(alpha) for _ in range(m))
        k = rng.randrange(0, 5)
        yield a, b, k


class TestEditDistanceConsensus:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_all_engines_agree(self, seed):
        for a, b, k in _pairs(seed, 40):
            truth = levenshtein(a, b)
            expected = truth if truth <= k else None
            assert Silla(k).distance(a, b) == expected
            assert ThreeDSilla(k).distance(a, b) == expected
            assert EditMachine(k).distance(a, b) == expected
            assert LevenshteinAutomaton(a, k).distance(b) == expected
            assert UniversalLevenshteinAutomaton(k).run(a, b) == expected
            assert compile_levenshtein_nfa(a, k).accepts(b) == (expected is not None)


class TestBoundedExtensionConsensus:
    @pytest.mark.parametrize("seed", [5, 6])
    def test_machines_match_oracle(self, seed):
        for a, b, k in _pairs(seed, 25):
            oracle = extension_oracle(a, b, k)
            scoring = ScoringMachine(k).run(a, b)
            dense = DenseScoringMachine(k).run(a, b)
            traceback = TracebackMachine(k).align(a, b)
            assert scoring.best_score == oracle.best_clipped_score
            assert scoring.final_score == oracle.final_score
            assert dense.best_score == oracle.best_clipped_score
            assert dense.final_score == oracle.final_score
            assert traceback.score == oracle.best_clipped_score


class TestUnboundedExtensionConsensus:
    @pytest.mark.parametrize("seed", [7, 8])
    def test_wide_configurations_match_full_dp(self, seed):
        for a, b, __ in _pairs(seed, 25, max_len=14):
            exact = extension_align(a, b).alignment.score
            wide = len(a) + len(b) + 1
            banded, __cells = banded_extension_score(a, b, wide)
            assert banded == exact
            assert xdrop_extension_score(a, b, 10**6).score == exact
            assert SystolicBandedSW(wide).best_score(a, b) == exact


class TestLocalConsensus:
    @pytest.mark.parametrize("seed", [9, 10])
    def test_striped_matches_scalar(self, seed):
        rng = random.Random(seed)
        for __ in range(20):
            a = "".join(rng.choice("ACGT") for _ in range(rng.randrange(1, 25)))
            b = "".join(rng.choice("ACGT") for _ in range(rng.randrange(1, 25)))
            assert (
                striped_local_score(a, b, lanes=rng.choice([1, 4, 16])).score
                == local_align(a, b).alignment.score
            )


class TestSeedingConsensus:
    @pytest.mark.parametrize("seed", [11, 12])
    def test_three_seeders_agree(self, seed):
        rng = random.Random(seed)
        segment = "".join(rng.choice("ACGT") for _ in range(250))
        k = 4
        table = SmemFinder(KmerIndex.build(segment, k), SmemConfig(k=k))
        fm = FmIndexSeeder(segment, k)
        for __ in range(8):
            start = rng.randrange(0, 200)
            read = list(segment[start : start + 40])
            for __ in range(rng.randrange(0, 3)):
                read[rng.randrange(len(read))] = rng.choice("ACGT")
            read = "".join(read)
            want = [
                (s.read_offset, s.length, s.hits)
                for s in brute_force_smems(segment, read, k)
            ]
            got_table = [
                (s.read_offset, s.length, s.hits) for s in table.find_seeds(read)
            ]
            got_fm = [(s.read_offset, s.length, s.hits) for s in fm.find_seeds(read)]
            assert got_table == want
            assert got_fm == want


class TestDeterminism:
    def test_pipeline_runs_are_reproducible(self, small_reference, simulated_reads):
        from repro.pipeline.genax import GenAxAligner, GenAxConfig

        reads = [(s.name, s.sequence) for s in simulated_reads[:6]]
        results = []
        for __ in range(2):
            aligner = GenAxAligner(
                small_reference, GenAxConfig(edit_bound=10, segment_count=3)
            )
            results.append(
                [
                    (m.position, m.reverse, m.score, str(m.cigar))
                    for m in aligner.align_batch(reads)
                ]
            )
        assert results[0] == results[1]
