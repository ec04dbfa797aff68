"""Tests for repro.utils.lru."""

import pytest

from repro.utils.lru import LRUCache


class TestBasicOperations:
    def test_put_and_get(self):
        cache = LRUCache(capacity=4)
        cache.put("a", 1)
        assert cache.get("a") == 1

    def test_get_missing_returns_none(self):
        cache = LRUCache(capacity=4)
        assert cache.get("missing") is None

    def test_contains(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        assert "a" in cache
        assert "b" not in cache

    def test_len(self):
        cache = LRUCache(capacity=4)
        cache.put("a", 1)
        cache.put("b", 2)
        assert len(cache) == 2

    def test_update_existing_key(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("a", 99)
        assert cache.get("a") == 99
        assert len(cache) == 1

    def test_invalid_capacity_raises(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=0)

    def test_clear(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0


class TestEviction:
    def test_lru_entry_is_evicted(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert "a" not in cache
        assert "b" in cache and "c" in cache

    def test_get_refreshes_recency(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a", making "b" the LRU entry
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache

    def test_peek_does_not_refresh_recency(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.peek("a")  # does not refresh
        cache.put("c", 3)
        assert "a" not in cache

    def test_eviction_callback_invoked(self):
        evicted = []
        cache = LRUCache(capacity=1, on_evict=lambda k, v: evicted.append((k, v)))
        cache.put("a", 1)
        cache.put("b", 2)
        assert evicted == [("a", 1)]

    def test_eviction_counter(self):
        cache = LRUCache(capacity=1)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.evictions == 2


class TestStatistics:
    def test_hit_and_miss_counters(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        assert cache.hits == 1
        assert cache.misses == 1

    def test_hit_ratio(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        cache.get("zzz")
        assert cache.hit_ratio == pytest.approx(2 / 3)

    def test_hit_ratio_no_lookups(self):
        assert LRUCache(capacity=1).hit_ratio == 0.0

    def test_items_order_lru_to_mru(self):
        cache = LRUCache(capacity=3)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        cache.get("a")
        keys = [key for key, _ in cache.items()]
        assert keys == ["b", "c", "a"]
