"""Tests for repro.utils.stats."""

import pytest

from repro.utils.stats import (
    SnapshotCounter,
    coefficient_of_variation,
    count_matched_occurrences,
    max_over_mean,
    mean,
    percentile,
    population_stddev,
)


class TestMean:
    def test_simple(self):
        assert mean([1, 2, 3, 4]) == 2.5

    def test_empty_is_zero(self):
        assert mean([]) == 0.0

    def test_single_value(self):
        assert mean([7.5]) == 7.5


class TestPopulationStddev:
    def test_constant_sequence_is_zero(self):
        assert population_stddev([5, 5, 5, 5]) == 0.0

    def test_known_value(self):
        # Population stddev of [2, 4, 4, 4, 5, 5, 7, 9] is exactly 2.
        assert population_stddev([2, 4, 4, 4, 5, 5, 7, 9]) == pytest.approx(2.0)

    def test_empty_and_singleton_are_zero(self):
        assert population_stddev([]) == 0.0
        assert population_stddev([3]) == 0.0


class TestCoefficientOfVariation:
    def test_balanced_is_zero(self):
        assert coefficient_of_variation([10, 10, 10]) == 0.0

    def test_zero_mean_is_zero(self):
        assert coefficient_of_variation([0, 0, 0]) == 0.0

    def test_known_value(self):
        values = [2, 4, 4, 4, 5, 5, 7, 9]
        assert coefficient_of_variation(values) == pytest.approx(2.0 / 5.0)


class TestMaxOverMean:
    def test_balanced(self):
        assert max_over_mean([3, 3, 3]) == pytest.approx(1.0)

    def test_skewed(self):
        assert max_over_mean([0, 0, 10]) == pytest.approx(3.0)

    def test_empty(self):
        assert max_over_mean([]) == 0.0


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 0.5) == 3

    def test_max(self):
        assert percentile([1, 5, 2], 1.0) == 5

    def test_min_fraction(self):
        assert percentile([4, 1, 3], 0.0) == 1

    def test_empty(self):
        assert percentile([], 0.5) == 0.0

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1], 1.5)


class TestSnapshotCounter:
    def test_adds_and_reads_the_total(self):
        counter = SnapshotCounter(5)
        counter.add(3)
        counter.add(-2)
        assert counter.value == 6
        assert int(counter) == 6

    def test_starts_at_zero_and_renders_its_total(self):
        counter = SnapshotCounter()
        assert counter.value == 0
        counter.add(7)
        assert repr(counter) == "SnapshotCounter(7)"


class TestCountMatchedOccurrences:
    def test_distinct_items_count_the_matched_set(self):
        items = ["a", "b", "c"]
        assert count_matched_occurrences(items, set(items), {"a", "c"}) == 2

    def test_repeated_items_count_every_occurrence(self):
        items = ["a", "b", "a", "a", "c"]
        assert count_matched_occurrences(items, set(items), {"a", "c"}) == 4

    def test_nothing_matched(self):
        items = ["a", "a"]
        assert count_matched_occurrences(items, set(items), set()) == 0
