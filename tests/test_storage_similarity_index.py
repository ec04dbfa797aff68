"""Tests for repro.storage.similarity_index."""

import threading

import pytest

from repro.fingerprint.handprint import compute_handprint
from repro.storage.similarity_index import SimilarityIndex
from tests.helpers import synthetic_fingerprint


def handprint_of(tags, k=8):
    return compute_handprint([synthetic_fingerprint(str(t)) for t in tags], handprint_size=k)


class TestSingleEntry:
    def test_insert_and_lookup(self):
        index = SimilarityIndex()
        rfp = synthetic_fingerprint("rfp")
        index.insert(rfp, 12)
        assert index.lookup(rfp) == 12

    def test_lookup_missing(self):
        index = SimilarityIndex()
        assert index.lookup(synthetic_fingerprint("none")) is None

    def test_contains_and_len(self):
        index = SimilarityIndex()
        rfp = synthetic_fingerprint("a")
        index.insert(rfp, 0)
        assert rfp in index
        assert len(index) == 1

    def test_update_container_id(self):
        index = SimilarityIndex()
        rfp = synthetic_fingerprint("move")
        index.insert(rfp, 1)
        index.insert(rfp, 2)
        assert index.lookup(rfp) == 2

    def test_counters(self):
        index = SimilarityIndex()
        rfp = synthetic_fingerprint("x")
        index.insert(rfp, 0)
        index.lookup(rfp)
        index.lookup(synthetic_fingerprint("y"))
        assert index.inserts == 1
        assert index.lookups == 2
        assert index.lookup_hits == 1
        assert index.hit_ratio == 0.5

    def test_size_in_bytes(self):
        index = SimilarityIndex(entry_size_bytes=40)
        for i in range(5):
            index.insert(synthetic_fingerprint(str(i)), i)
        assert index.size_in_bytes == 200


def placed_at(handprint, container_id):
    return dict.fromkeys(handprint.representative_fingerprints, container_id)


class TestHandprintOperations:
    def test_resemblance_count(self):
        index = SimilarityIndex()
        stored = handprint_of(range(8))
        index.index_handprint(stored, placed_at(stored, 3))
        query = handprint_of(range(4, 12))
        count = index.resemblance_count(query)
        expected = len(set(stored.representative_fingerprints) & set(query.representative_fingerprints))
        assert count == expected

    def test_resemblance_count_zero_for_unknown(self):
        index = SimilarityIndex()
        assert index.resemblance_count(handprint_of(range(8))) == 0

    def test_lookup_handprint_returns_container_ids(self):
        index = SimilarityIndex()
        handprint = handprint_of(range(8))
        index.index_handprint(handprint, placed_at(handprint, 9))
        assert index.lookup_handprint(handprint) == [9]

    def test_lookup_handprint_deduplicates_containers(self):
        index = SimilarityIndex()
        handprint = handprint_of(range(8))
        for fp in handprint:
            index.insert(fp, 4)
        assert index.lookup_handprint(handprint) == [4]

    def test_lookup_handprint_orders_containers_by_first_match(self):
        index = SimilarityIndex()
        handprint = handprint_of(range(4), k=4)
        index.index_handprint(handprint, dict(zip(handprint, [7, 2, 7, 5])))
        assert index.lookup_handprint(handprint) == [7, 2, 5]

    def test_index_handprint_places_each_rfp_and_skips_the_unplaced(self):
        index = SimilarityIndex()
        handprint = handprint_of(range(4), k=4)
        first, second, third, fourth = handprint
        index.index_handprint(handprint, {first: 0, second: 1, fourth: 3, b"not-an-rfp": 9})
        assert [index.lookup(fp) for fp in handprint] == [0, 1, None, 3]
        assert index.inserts == 3
        assert len(index) == 3

    def test_handprint_operations_count_like_single_entry_calls(self):
        batched = SimilarityIndex(num_locks=4)
        single = SimilarityIndex(num_locks=4)
        handprint = handprint_of(range(8))
        batched.index_handprint(handprint, placed_at(handprint, 1))
        for fp in handprint:
            single.insert(fp, 1)
        query = handprint_of(range(4, 12))
        batched.lookup_handprint(query)
        batched.resemblance_count(query)
        for _ in range(2):
            for fp in query:
                single.lookup(fp)
        for counter in ("inserts", "lookups", "lookup_hits"):
            assert getattr(batched, counter) == getattr(single, counter)
        assert batched._locks.acquisitions == single._locks.acquisitions

    def test_stripe_keys_address_the_stripe_lock_of_each_rfp(self):
        index = SimilarityIndex(num_locks=16)
        handprint = compute_handprint(
            [synthetic_fingerprint(str(tag)) for tag in range(6)] + [b"\x07", b""],
            handprint_size=8,
        )
        locks = index._locks
        for fingerprint, key in zip(handprint, handprint.stripe_keys):
            assert locks.lock_at(key) is locks.lock_for(fingerprint)

    def test_fingerprints_iteration(self):
        index = SimilarityIndex()
        handprint = handprint_of(range(6), k=6)
        index.index_handprint(handprint, placed_at(handprint, 0))
        assert set(index.fingerprints()) == set(handprint.representative_fingerprints)


class TestConcurrency:
    @pytest.mark.parametrize("num_locks", [1, 16, 1024])
    def test_concurrent_inserts_and_lookups(self, num_locks):
        index = SimilarityIndex(num_locks=num_locks)
        errors = []

        def writer(base):
            for i in range(200):
                index.insert(synthetic_fingerprint(f"{base}-{i}"), i)

        def reader(base):
            try:
                for i in range(200):
                    index.lookup(synthetic_fingerprint(f"{base}-{i}"))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = []
        for base in range(4):
            threads.append(threading.Thread(target=writer, args=(base,)))
            threads.append(threading.Thread(target=reader, args=(base,)))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(index) == 4 * 200

    def test_num_locks_exposed(self):
        assert SimilarityIndex(num_locks=64).num_locks == 64
