"""Tests for repro.align.myers (scalar bit-vector search)."""

from repro.align.edit_distance import levenshtein
from repro.align.myers import myers_search


class TestMyersSearch:
    def test_exact_occurrence_found(self):
        hits = myers_search("ACGT", "TTACGTTT", k=0)
        assert 6 in hits  # match ends after text position 6

    def test_approximate_occurrence(self):
        hits = myers_search("ACGT", "TTACCTTT", k=1)
        assert hits  # one substitution away

    def test_no_match_when_k_too_small(self):
        assert myers_search("AAAA", "TTTTTTT", k=1) == ()

    def test_empty_pattern_matches_everywhere(self):
        assert myers_search("", "ACG", k=0) == (0, 1, 2, 3)

    def test_end_positions_verified_by_dp(self):
        pattern, text, k = "ACGTA", "GGACGTAGG", 1
        for end in myers_search(pattern, text, k):
            # Some suffix of text[:end] is within k of the pattern.
            best = min(
                levenshtein(pattern, text[start:end]) for start in range(end + 1)
            )
            assert best <= k
