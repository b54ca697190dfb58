"""Tests (including property-based tests) for the string distances."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.semantics import (
    damerau_levenshtein,
    exact_match_distance,
    hamming,
    jaro,
    jaro_winkler,
    jaro_winkler_distance,
    levenshtein,
    normalised_levenshtein,
)

short_text = st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122), max_size=12)


def reference_levenshtein(a: str, b: str) -> int:
    """The textbook O(m·n) dynamic programme: the oracle for :func:`levenshtein`."""
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        for j, char_b in enumerate(b, start=1):
            current.append(min(current[j - 1] + 1, previous[j] + 1,
                               previous[j - 1] + (char_a != char_b)))
        previous = current
    return previous[-1]


#: Alphabets of size 2, 3 and 28 (small ones force long runs of matches),
#: and one mixing non-ASCII characters, including one outside the BMP.
ORACLE_ALPHABETS = ["ab", "abc", "abcdefghijklmnopqrstuvwxyz:-", "aé€-𝄞"]


class TestLevenshtein:
    @pytest.mark.parametrize("a, b, expected", [
        ("", "", 0),
        ("abc", "abc", 0),
        ("abc", "", 3),
        ("", "abc", 3),
        ("kitten", "sitting", 3),
        ("flaw", "lawn", 2),
        ("start-up", "startup", 1),
    ])
    def test_known_values(self, a, b, expected):
        assert levenshtein(a, b) == expected

    @given(short_text, short_text)
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(short_text)
    def test_identity(self, a):
        assert levenshtein(a, a) == 0

    @given(short_text, short_text, short_text)
    @settings(max_examples=50)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(short_text, short_text)
    def test_bounded_by_longest_string(self, a, b):
        assert levenshtein(a, b) <= max(len(a), len(b))


class TestLevenshteinOracle:
    """The bit-parallel kernel against the DP, across the 64-bit word boundary."""

    @pytest.mark.parametrize("alphabet", ORACLE_ALPHABETS)
    def test_random_pairs_match_dynamic_programme(self, alphabet):
        rng = random.Random(f"levenshtein-{alphabet}")
        for _ in range(300):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 130)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 130)))
            expected = reference_levenshtein(a, b)
            assert levenshtein(a, b) == expected, (a, b)
            assert levenshtein(b, a) == expected, (b, a)

    @pytest.mark.parametrize("length", [1, 2, 63, 64, 65, 127, 128, 129, 130])
    def test_pattern_widths_around_word_boundaries(self, length):
        rng = random.Random(length)
        for alphabet in ORACLE_ALPHABETS:
            a = "".join(rng.choice(alphabet) for _ in range(length))
            for other_length in (0, 1, length - 1, length, length + 1, 2 * length):
                b = "".join(rng.choice(alphabet) for _ in range(other_length))
                assert levenshtein(a, b) == reference_levenshtein(a, b), (a, b)
                assert levenshtein(b, a) == reference_levenshtein(b, a), (b, a)

    @pytest.mark.parametrize("a", ["", "x", "é", "𝄞" * 70, "ab" * 65])
    def test_identical_and_one_sided_pairs(self, a):
        assert levenshtein(a, a) == 0
        assert levenshtein(a, "") == len(a)
        assert levenshtein("", a) == len(a)

    def test_single_edits_at_either_end_of_a_long_string(self):
        base = "InType:pre-launch-phase" * 4
        for edited in ("X" + base, base + "X", base[1:], base[:-1],
                       "X" + base[1:], base[:-1] + "X"):
            assert levenshtein(base, edited) == 1
            assert levenshtein(edited, base) == 1


class TestNormalisedLevenshtein:
    @given(short_text, short_text)
    def test_in_unit_interval(self, a, b):
        assert 0.0 <= normalised_levenshtein(a, b) <= 1.0

    def test_identical_strings_zero(self):
        assert normalised_levenshtein("abc", "abc") == 0.0

    def test_completely_different_strings_one(self):
        assert normalised_levenshtein("aaa", "bbb") == 1.0

    def test_both_empty(self):
        assert normalised_levenshtein("", "") == 0.0


class TestDamerauLevenshtein:
    def test_transposition_costs_one(self):
        assert damerau_levenshtein("ab", "ba") == 1
        assert levenshtein("ab", "ba") == 2

    @pytest.mark.parametrize("a, b, expected", [
        ("", "", 0),
        ("abc", "abc", 0),
        ("ca", "abc", 2),
        ("abcdef", "abcfed", 2),
    ])
    def test_known_values(self, a, b, expected):
        assert damerau_levenshtein(a, b) == expected

    @given(short_text, short_text)
    def test_never_exceeds_levenshtein(self, a, b):
        assert damerau_levenshtein(a, b) <= levenshtein(a, b)


class TestJaro:
    def test_identical(self):
        assert jaro("martha", "martha") == 1.0

    def test_known_value(self):
        assert jaro("martha", "marhta") == pytest.approx(0.9444, abs=1e-3)

    def test_no_common_characters(self):
        assert jaro("abc", "xyz") == 0.0

    def test_empty_string(self):
        assert jaro("", "abc") == 0.0

    @given(short_text, short_text)
    def test_in_unit_interval(self, a, b):
        assert 0.0 <= jaro(a, b) <= 1.0


class TestJaroWinkler:
    def test_prefix_boost(self):
        assert jaro_winkler("prefixed", "prefixes") >= jaro("prefixed", "prefixes")

    def test_distance_is_one_minus_similarity(self):
        assert jaro_winkler_distance("abc", "abd") == pytest.approx(
            1.0 - jaro_winkler("abc", "abd")
        )

    @given(short_text, short_text)
    def test_similarity_in_unit_interval(self, a, b):
        assert 0.0 <= jaro_winkler(a, b) <= 1.0 + 1e-9


class TestHammingAndExactMatch:
    def test_hamming_counts_mismatches(self):
        assert hamming("karolin", "kathrin") == 3

    def test_hamming_requires_equal_length(self):
        with pytest.raises(ValueError):
            hamming("abc", "ab")

    def test_exact_match_distance(self):
        assert exact_match_distance("a", "a") == 0.0
        assert exact_match_distance("a", "b") == 1.0
