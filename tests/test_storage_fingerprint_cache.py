"""Tests for repro.storage.fingerprint_cache."""

from repro.storage.fingerprint_cache import ChunkFingerprintCache
from tests.helpers import synthetic_fingerprint


def fps(prefix, count):
    return [synthetic_fingerprint(f"{prefix}-{i}") for i in range(count)]


class TestPrefetch:
    def test_prefetch_and_lookup(self):
        cache = ChunkFingerprintCache(capacity_containers=4)
        fingerprints = fps("c0", 10)
        cache.prefetch_container(0, fingerprints)
        assert cache.lookup(fingerprints[3]) == 0

    def test_lookup_missing_returns_none(self):
        cache = ChunkFingerprintCache(capacity_containers=4)
        assert cache.lookup(synthetic_fingerprint("nope")) is None

    def test_prefetch_counter(self):
        cache = ChunkFingerprintCache(capacity_containers=4)
        cache.prefetch_container(0, fps("a", 2))
        cache.prefetch_container(1, fps("b", 2))
        assert cache.prefetches == 2

    def test_is_container_cached(self):
        cache = ChunkFingerprintCache(capacity_containers=4)
        cache.prefetch_container(5, fps("x", 3))
        assert cache.is_container_cached(5)
        assert not cache.is_container_cached(6)

    def test_cached_fingerprints_count(self):
        cache = ChunkFingerprintCache(capacity_containers=4)
        cache.prefetch_container(0, fps("a", 7))
        assert cache.cached_fingerprints == 7
        assert cache.cached_containers == 1


class TestEviction:
    def test_lru_container_evicted(self):
        cache = ChunkFingerprintCache(capacity_containers=2)
        cache.prefetch_container(0, fps("c0", 3))
        cache.prefetch_container(1, fps("c1", 3))
        cache.prefetch_container(2, fps("c2", 3))
        assert not cache.is_container_cached(0)
        assert cache.is_container_cached(1)
        assert cache.is_container_cached(2)

    def test_evicted_fingerprints_not_found(self):
        cache = ChunkFingerprintCache(capacity_containers=1)
        first = fps("c0", 3)
        cache.prefetch_container(0, first)
        cache.prefetch_container(1, fps("c1", 3))
        assert cache.lookup(first[0]) is None

    def test_lookup_refreshes_container_recency(self):
        cache = ChunkFingerprintCache(capacity_containers=2)
        first = fps("c0", 2)
        cache.prefetch_container(0, first)
        cache.prefetch_container(1, fps("c1", 2))
        cache.lookup(first[0])  # refresh container 0
        cache.prefetch_container(2, fps("c2", 2))
        assert cache.is_container_cached(0)
        assert not cache.is_container_cached(1)

    def test_reprefetching_same_container_does_not_grow(self):
        cache = ChunkFingerprintCache(capacity_containers=2)
        cache.prefetch_container(0, fps("a", 2))
        cache.prefetch_container(0, fps("a", 2))
        assert cache.cached_containers == 1


class TestIncrementalAdd:
    def test_add_fingerprint_to_open_container(self):
        cache = ChunkFingerprintCache(capacity_containers=2)
        fp = synthetic_fingerprint("new-chunk")
        cache.add_fingerprint(3, fp)
        assert cache.lookup(fp) == 3

    def test_add_to_existing_cached_container(self):
        cache = ChunkFingerprintCache(capacity_containers=2)
        cache.prefetch_container(0, fps("base", 2))
        extra = synthetic_fingerprint("extra")
        cache.add_fingerprint(0, extra)
        assert cache.lookup(extra) == 0
        assert cache.cached_containers == 1


class TestStatistics:
    def test_hit_miss_accounting(self):
        cache = ChunkFingerprintCache(capacity_containers=2)
        fingerprints = fps("c0", 2)
        cache.prefetch_container(0, fingerprints)
        cache.lookup(fingerprints[0])
        cache.lookup(synthetic_fingerprint("absent"))
        assert cache.hits >= 1
        assert cache.misses >= 1
        assert 0.0 < cache.hit_ratio < 1.0


class TestPeek:
    def test_peek_finds_cached_fingerprint(self):
        cache = ChunkFingerprintCache(capacity_containers=4)
        fingerprints = fps("c0", 4)
        cache.prefetch_container(0, fingerprints)
        assert cache.peek(fingerprints[1]) == 0

    def test_peek_missing_returns_none(self):
        cache = ChunkFingerprintCache(capacity_containers=4)
        assert cache.peek(synthetic_fingerprint("nope")) is None

    def test_peek_does_not_touch_statistics(self):
        cache = ChunkFingerprintCache(capacity_containers=4)
        fingerprints = fps("c0", 2)
        cache.prefetch_container(0, fingerprints)
        cache.peek(fingerprints[0])
        cache.peek(synthetic_fingerprint("absent"))
        assert cache.hits == 0
        assert cache.misses == 0
        assert cache.hit_ratio == 0.0

    def test_peek_does_not_refresh_recency(self):
        cache = ChunkFingerprintCache(capacity_containers=2)
        first = fps("c0", 2)
        cache.prefetch_container(0, first)
        cache.prefetch_container(1, fps("c1", 2))
        cache.peek(first[0])  # must NOT rescue container 0 from eviction
        cache.prefetch_container(2, fps("c2", 2))
        assert not cache.is_container_cached(0)
        assert cache.is_container_cached(1)

    def test_peek_evicted_fingerprint_returns_none(self):
        cache = ChunkFingerprintCache(capacity_containers=1)
        first = fps("c0", 3)
        cache.prefetch_container(0, first)
        cache.prefetch_container(1, fps("c1", 3))
        assert cache.peek(first[0]) is None


class TestBatchOperations:
    """Batched APIs must be statistics- and recency-equivalent to per-entry calls."""

    def _populated(self):
        cache = ChunkFingerprintCache(capacity_containers=4)
        cache.prefetch_container(0, fps("c0", 3))
        cache.prefetch_container(1, fps("c1", 3))
        return cache

    @staticmethod
    def _batched_lookup(cache, queries):
        """The node plane's bulk commit: snapshot, drop what is stale, replay
        the hits' recency in probe order, account the lookups."""
        found, stale = cache.probe_batch(queries)
        for fingerprint in stale:
            cache.drop_stale(fingerprint)
        cache.touch_many(list(found.values()))
        cache.commit_lookups(len(found), len(queries) - len(found))
        return found

    def test_batched_lookup_matches_sequential_lookups(self):
        batched = self._populated()
        sequential = self._populated()
        queries = fps("c0", 3) + fps("absent", 2) + fps("c1", 1)
        found = self._batched_lookup(batched, queries)
        expected = {}
        for fp in queries:
            container_id = sequential.lookup(fp)
            if container_id is not None:
                expected[fp] = container_id
        assert found == expected
        assert batched.hits == sequential.hits
        assert batched.misses == sequential.misses
        assert list(batched._containers) == list(sequential._containers)

    def test_batched_lookup_drops_stale_entries(self):
        batched = ChunkFingerprintCache(capacity_containers=1)
        sequential = ChunkFingerprintCache(capacity_containers=1)
        first = fps("c0", 2)
        for cache in (batched, sequential):
            cache.prefetch_container(0, first)
            cache.prefetch_container(1, fps("c1", 2))  # evicts container 0
            # Re-point a stale-looking reverse entry at the evicted container.
            cache._fingerprint_to_container[first[0]] = 0
        assert batched.probe_batch([first[0]]) == ({}, [first[0]])
        assert self._batched_lookup(batched, [first[0]]) == {}
        assert sequential.lookup(first[0]) is None
        assert first[0] not in batched._fingerprint_to_container
        assert (batched.hits, batched.misses) == (sequential.hits, sequential.misses)

    def test_prefetch_container_repoints_the_reverse_map(self):
        cache = self._populated()
        moved = fps("c0", 1) + fps("c9", 2)
        cache.prefetch_container(9, moved)
        assert all(cache.peek(fp) == 9 for fp in moved)
        assert cache.peek(fps("c0", 3)[1]) == 0

    def test_probe_batch_is_side_effect_free(self):
        cache = self._populated()
        order_before = list(cache._containers)
        found, stale = cache.probe_batch(fps("c0", 3) + fps("absent", 1))
        assert found == {fp: 0 for fp in fps("c0", 3)}
        assert stale == []
        assert cache.hits == 0 and cache.misses == 0
        assert list(cache._containers) == order_before

    def test_touch_many_collapses_to_last_occurrence_order(self):
        cache = self._populated()
        cache.prefetch_container(2, fps("c2", 1))
        cache.touch_many([0, 1, 0, 2, 1])  # last touches: 0, 2, 1
        assert list(cache._containers) == [0, 2, 1]

    def test_peek_many_counter_free(self):
        cache = self._populated()
        present = cache.peek_many(set(fps("c0", 2)) | {synthetic_fingerprint("nope")})
        assert present == set(fps("c0", 2))
        assert cache.hits == 0 and cache.misses == 0

    def test_add_fingerprints_matches_sequential_adds(self):
        batched = ChunkFingerprintCache(capacity_containers=2)
        sequential = ChunkFingerprintCache(capacity_containers=2)
        fingerprints = fps("open", 4)
        batched.add_fingerprints(7, fingerprints)
        for fp in fingerprints:
            sequential.add_fingerprint(7, fp)
        assert batched.cached_fingerprints == sequential.cached_fingerprints
        assert list(batched._containers) == list(sequential._containers)
        assert all(batched.peek(fp) == 7 for fp in fingerprints)
