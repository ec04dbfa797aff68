"""Tests for repro.storage.chunk_index."""

from repro.storage.chunk_index import DiskChunkIndex
from tests.helpers import synthetic_fingerprint


class TestEnabledIndex:
    def test_insert_and_lookup(self):
        index = DiskChunkIndex()
        fp = synthetic_fingerprint("a")
        index.insert(fp, 7)
        assert index.lookup(fp) == 7

    def test_lookup_missing(self):
        index = DiskChunkIndex()
        assert index.lookup(synthetic_fingerprint("missing")) is None

    def test_contains(self):
        index = DiskChunkIndex()
        fp = synthetic_fingerprint("x")
        assert fp not in index
        index.insert(fp, 1)
        assert fp in index

    def test_update_overwrites_container(self):
        index = DiskChunkIndex()
        fp = synthetic_fingerprint("moved")
        index.insert(fp, 1)
        index.insert(fp, 2)
        assert index.lookup(fp) == 2
        assert len(index) == 1

    def test_lookup_counters(self):
        index = DiskChunkIndex()
        fp = synthetic_fingerprint("counted")
        index.insert(fp, 0)
        index.lookup(fp)
        index.lookup(synthetic_fingerprint("nope"))
        assert index.lookups == 2
        assert index.lookup_hits == 1
        assert index.hit_ratio == 0.5

    def test_size_in_bytes(self):
        index = DiskChunkIndex(entry_size_bytes=40)
        for i in range(10):
            index.insert(synthetic_fingerprint(str(i)), i)
        assert index.size_in_bytes == 400

    def test_hit_ratio_no_lookups(self):
        assert DiskChunkIndex().hit_ratio == 0.0


class TestDisabledIndex:
    def test_disabled_lookup_always_misses(self):
        index = DiskChunkIndex(enabled=False)
        fp = synthetic_fingerprint("a")
        index.insert(fp, 1)
        assert index.lookup(fp) is None
        assert len(index) == 0

    def test_disabled_contains_false(self):
        index = DiskChunkIndex(enabled=False)
        fp = synthetic_fingerprint("a")
        index.insert(fp, 1)
        assert fp not in index

    def test_disabled_counts_lookups_but_no_inserts(self):
        index = DiskChunkIndex(enabled=False)
        index.insert(synthetic_fingerprint("a"), 1)
        index.lookup(synthetic_fingerprint("a"))
        assert index.lookups == 1
        assert index.inserts == 0


class TestBatchOperations:
    """Batched APIs must be counter-equivalent to their per-entry forms."""

    def _populated(self):
        index = DiskChunkIndex()
        for i in range(6):
            index.insert(synthetic_fingerprint(str(i)), i % 3)
        return index

    def test_match_batch_plus_record_lookups_matches_sequential_lookups(self):
        # What the node plane calls: a counter-free snapshot, then the
        # lookups it would have issued accounted in bulk.
        batched = self._populated()
        sequential = self._populated()
        queries = [synthetic_fingerprint(str(i)) for i in range(0, 9)]
        found = batched.match_batch(queries)
        batched.record_lookups(len(queries), len(found))
        expected = {}
        for fp in queries:
            container_id = sequential.lookup(fp)
            if container_id is not None:
                expected[fp] = container_id
        assert found == expected
        assert batched.lookups == sequential.lookups
        assert batched.lookup_hits == sequential.lookup_hits

    def test_match_batch_disabled_matches_nothing(self):
        index = DiskChunkIndex(enabled=False)
        index.insert(synthetic_fingerprint("a"), 1)
        assert index.match_batch([synthetic_fingerprint("a")] * 3) == {}
        assert index.lookups == 0

    def test_match_batch_and_record_lookups(self):
        index = self._populated()
        lookups_before = index.lookups
        matched = index.match_batch([synthetic_fingerprint("1"), synthetic_fingerprint("x")])
        assert matched == {synthetic_fingerprint("1"): 1}
        assert index.lookups == lookups_before  # counter-free
        index.record_lookups(2, 1)
        assert index.lookups == lookups_before + 2
        assert index.lookup_hits == 1

    def test_peek_many_is_counter_free_intersection(self):
        index = self._populated()
        lookups_before = index.lookups
        present = index.peek_many([synthetic_fingerprint("0"), synthetic_fingerprint("z")])
        assert present == {synthetic_fingerprint("0")}
        assert index.lookups == lookups_before
        assert DiskChunkIndex(enabled=False).peek_many([synthetic_fingerprint("0")]) == set()

    def test_insert_batch_matches_sequential_inserts(self):
        batched = DiskChunkIndex()
        sequential = DiskChunkIndex()
        items = [(synthetic_fingerprint(str(i)), i) for i in range(5)]
        batched.insert_batch(items)
        for fp, container_id in items:
            sequential.insert(fp, container_id)
        assert batched.inserts == sequential.inserts
        assert all(batched.lookup(fp) == container_id for fp, container_id in items)

    def test_insert_batch_disabled_is_dropped(self):
        index = DiskChunkIndex(enabled=False)
        index.insert_batch([(synthetic_fingerprint("a"), 1)])
        assert len(index) == 0
        assert index.inserts == 0
