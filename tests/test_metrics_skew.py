"""Tests for repro.metrics.skew."""

import pytest

from repro.metrics.skew import storage_skew


class TestStorageSkew:
    def test_balanced(self):
        skew = storage_skew([100, 100, 100])
        assert skew.coefficient_of_variation == 0.0
        assert skew.max_over_mean == pytest.approx(1.0)
        assert skew.min_over_mean == pytest.approx(1.0)

    def test_fully_skewed(self):
        skew = storage_skew([300, 0, 0])
        assert skew.max_over_mean == pytest.approx(3.0)
        assert skew.min_over_mean == 0.0

    def test_known_values(self):
        skew = storage_skew([2, 4, 4, 4, 5, 5, 7, 9])
        assert skew.mean_bytes == pytest.approx(5.0)
        assert skew.stddev_bytes == pytest.approx(2.0)
        assert skew.coefficient_of_variation == pytest.approx(0.4)

    def test_empty(self):
        skew = storage_skew([])
        assert skew.mean_bytes == 0.0

    def test_all_zero(self):
        skew = storage_skew([0, 0, 0, 0])
        assert skew.coefficient_of_variation == 0.0
