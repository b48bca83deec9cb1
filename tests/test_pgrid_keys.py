"""Key-space semantics: comparisons, responsibility, partitions, KeyRange.

The library compares keys as strings (canonical forms); these tests check it
against an independent oracle that evaluates keys as exact binary fractions.
"""

import pytest
from fractions import Fraction
from hypothesis import given
from hypothesis import strategies as st

from repro.pgrid.keys import (
    KeyRange,
    canonical,
    common_prefix_length,
    compare_keys,
    flip,
    increment_path,
    is_complete_partition,
    is_prefix_free,
    responsible,
    validate_key,
)

BITS = st.text(alphabet="01", max_size=12)
# Keys drawn to hit equal points: canonical bit strings plus trailing zeros.
PADDED = st.builds(lambda key, zeros: key + "0" * zeros, BITS, st.integers(0, 3))


def key_fraction(key: str) -> Fraction:
    """Oracle: the point a key denotes, as an exact binary fraction."""
    return sum((Fraction(1, 2**i) for i, bit in enumerate(key, 1) if bit == "1"), Fraction(0))


def path_interval(path: str) -> tuple[Fraction, Fraction]:
    """Oracle: the half-open interval a path's subtree covers."""
    lo = key_fraction(path)
    return lo, lo + Fraction(1, 2 ** len(path))


def range_interval(key_range: KeyRange) -> tuple[Fraction, Fraction]:
    """Oracle: the half-open interval of a KeyRange (``hi is None`` is 1)."""
    hi = Fraction(1) if key_range.hi is None else key_fraction(key_range.hi)
    return key_fraction(key_range.lo), hi


class TestBasics:
    def test_validate_accepts_bits(self):
        assert validate_key("0101") == "0101"
        assert validate_key("") == ""

    def test_validate_rejects_other(self):
        with pytest.raises(ValueError):
            validate_key("012")

    def test_flip(self):
        assert flip("0") == "1" and flip("1") == "0"
        with pytest.raises(ValueError):
            flip("x")

    def test_common_prefix_length(self):
        assert common_prefix_length("0101", "0111") == 2
        assert common_prefix_length("", "0") == 0
        assert common_prefix_length("01", "01") == 2


class TestComparison:
    def test_zero_padding_equality(self):
        assert compare_keys("01", "010") == 0
        assert compare_keys("01", "0100") == 0

    def test_strict_order(self):
        assert compare_keys("001", "01") == -1
        assert compare_keys("1", "01") == 1

    def test_key_le(self):
        assert compare_keys("01", "010") <= 0
        assert compare_keys("001", "01") <= 0
        assert not compare_keys("1", "01") <= 0

    @given(PADDED, PADDED)
    def test_compare_agrees_with_fractions(self, a, b):
        by_fraction = (key_fraction(a) > key_fraction(b)) - (key_fraction(a) < key_fraction(b))
        assert compare_keys(a, b) == by_fraction

    @given(PADDED, PADDED)
    def test_canonical_order_is_point_order(self, a, b):
        # The invariant the string key space rests on (see repro.pgrid.keys).
        assert (canonical(a) < canonical(b)) == (key_fraction(a) < key_fraction(b))
        assert (canonical(a) == canonical(b)) == (key_fraction(a) == key_fraction(b))
        assert canonical(a) <= a
        assert (a >= canonical(b)) == (key_fraction(a) >= key_fraction(b))


class TestResponsibility:
    def test_long_key(self):
        assert responsible("01", "0110")
        assert not responsible("01", "0010")

    def test_key_shorter_than_path(self):
        assert responsible("010", "01")  # 0.01 falls at left edge of 010
        assert not responsible("011", "01")

    def test_empty_path_covers_everything(self):
        assert responsible("", "10110")

    @given(BITS, BITS)
    def test_responsible_iff_point_in_interval(self, path, key):
        lo, hi = path_interval(path)
        point = key_fraction(key)
        assert responsible(path, key) == (lo <= point < hi)


class TestIntervals:
    def test_path_interval(self):
        assert KeyRange.subtree("1") == KeyRange("1", None)
        assert KeyRange.subtree("") == KeyRange.everything()
        assert KeyRange.subtree("0110") == KeyRange("011", "0111")

    def test_intersects_path_at_edges(self):
        assert KeyRange("0100", "0111").intersects_path("01")
        assert KeyRange("00", "0100001").intersects_path("01")  # hi just past left edge
        assert not KeyRange("00", "0100").intersects_path("01")  # hi at left edge
        assert KeyRange("0111", "1").intersects_path("01")  # lo just before right edge
        assert not KeyRange("1000", None).intersects_path("01")  # lo at right edge
        assert not KeyRange("10", "11").intersects_path("01")

    def test_increment_path(self):
        assert increment_path("010") == "011"
        assert increment_path("011") == "1"
        assert increment_path("0") == "1"
        assert increment_path("111") is None
        assert increment_path("") is None

    @given(BITS.filter(lambda p: p.rstrip("1") != ""))
    def test_increment_is_exact_supremum(self, path):
        nxt = increment_path(path)
        _lo, hi = path_interval(path)
        assert key_fraction(nxt) == hi


class TestPartitions:
    def test_prefix_free(self):
        assert is_prefix_free(["00", "01", "1"])
        assert not is_prefix_free(["0", "01"])

    def test_complete_partition(self):
        assert is_complete_partition(["00", "01", "1"])
        assert is_complete_partition([""])
        assert not is_complete_partition(["00", "01"])  # misses half
        assert not is_complete_partition([])

    def test_duplicates_collapse(self):
        # Replicas share paths; the *distinct* set must tile the space.
        assert is_complete_partition(["0", "0", "1"])

    @given(st.lists(BITS, max_size=8))
    def test_complete_partition_matches_kraft_sum(self, paths):
        kraft = sum((Fraction(1, 2 ** len(p)) for p in set(paths)), Fraction(0))
        expected = bool(paths) and is_prefix_free(paths) and kraft == 1
        assert is_complete_partition(paths) == expected


class TestKeyRange:
    def test_subtree_contains_only_prefix(self):
        kr = KeyRange.subtree("01")
        assert kr.contains("0100")
        assert kr.contains("01")
        assert not kr.contains("1")
        assert not kr.contains("001")

    def test_at_least(self):
        kr = KeyRange.at_least("1")
        assert kr.contains("11")
        assert not kr.contains("01")

    def test_everything(self):
        kr = KeyRange.everything()
        assert kr.contains("") and kr.contains("111111")

    def test_half_open_upper_bound(self):
        kr = KeyRange("00", "01")
        assert kr.contains("001")
        assert not kr.contains("01")
        assert not kr.contains("0100")  # equal point to hi

    def test_intersects_path(self):
        kr = KeyRange("0100", "0111")
        assert kr.intersects_path("01")
        assert kr.intersects_path("010")
        assert not kr.intersects_path("00")

    def test_top_of_space_subtree(self):
        kr = KeyRange.subtree("111")
        assert kr.hi is None
        assert kr.contains("1111")

    def test_equality_semantics(self):
        assert KeyRange("01", "10") == KeyRange("010", "100")
        assert hash(KeyRange("01", "10")) == hash(KeyRange("010", "100"))

    @given(BITS, BITS)
    def test_contains_matches_fraction_interval(self, lo, key):
        kr = KeyRange.at_least(lo)
        assert kr.contains(key) == (key_fraction(key) >= key_fraction(lo))


RANGES = st.builds(KeyRange, PADDED, st.none() | PADDED)


class TestKeyRangeAgainstFractions:
    """Every KeyRange predicate agrees with the exact-fraction oracle."""

    @given(RANGES, PADDED)
    def test_contains(self, kr, key):
        lo, hi = range_interval(kr)
        assert kr.contains(key) == (lo <= key_fraction(key) < hi)

    @given(RANGES, PADDED)
    def test_intersects_path(self, kr, path):
        lo, hi = range_interval(kr)
        p_lo, p_hi = path_interval(path)
        assert kr.intersects_path(path) == (p_lo < hi and lo < p_hi)

    @given(RANGES)
    def test_is_empty(self, kr):
        lo, hi = range_interval(kr)
        assert kr.is_empty() == (lo >= hi)

    @given(RANGES, RANGES)
    def test_equality_and_hash(self, a, b):
        same = range_interval(a) == range_interval(b)
        assert (a == b) == same
        if same:
            assert hash(a) == hash(b)

    @given(PADDED, st.none() | PADDED, st.integers(0, 3), st.integers(0, 3))
    def test_zero_padded_bounds_are_the_same_range(self, lo, hi, pad_lo, pad_hi):
        padded = KeyRange(lo + "0" * pad_lo, None if hi is None else hi + "0" * pad_hi)
        assert padded == KeyRange(lo, hi)
        assert hash(padded) == hash(KeyRange(lo, hi))
