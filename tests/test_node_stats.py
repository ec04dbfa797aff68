"""Tests for repro.node.stats."""

from repro.node.stats import NodeStats


class TestDerivedMetrics:
    def test_deduplication_ratio(self):
        stats = NodeStats(logical_bytes=1000, physical_bytes=250)
        assert stats.deduplication_ratio == 4.0

    def test_deduplication_ratio_empty(self):
        assert NodeStats().deduplication_ratio == 1.0

    def test_deduplication_ratio_all_duplicate(self):
        stats = NodeStats(logical_bytes=100, physical_bytes=0)
        assert stats.deduplication_ratio == float("inf")

    def test_total_chunks(self):
        stats = NodeStats(duplicate_chunks=3, unique_chunks=7)
        assert stats.total_chunks == 10


class TestAsDict:
    def test_contains_key_counters(self):
        stats = NodeStats(logical_bytes=10, physical_bytes=5, cache_hits=2)
        row = stats.as_dict()
        assert row["logical_bytes"] == 10
        assert row["physical_bytes"] == 5
        assert row["cache_hits"] == 2
        assert row["deduplication_ratio"] == 2.0
