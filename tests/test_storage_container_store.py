"""Tests for repro.storage.container_store."""

import threading

import pytest

from repro.errors import ContainerNotFoundError
from repro.fingerprint.fingerprinter import ChunkRecord
from repro.storage.container_store import ContainerStore
from tests.helpers import deterministic_bytes, fingerprint_of


def record(data: bytes) -> ChunkRecord:
    return ChunkRecord(fingerprint=fingerprint_of(data), length=len(data), data=data)


class TestStoreChunk:
    def test_store_and_read_back(self):
        store = ContainerStore(container_capacity=1024)
        chunk = record(b"payload")
        container_id = store.store_chunk(chunk)
        assert store.read_chunks([container_id], [chunk.fingerprint])[0] == b"payload"

    def test_new_container_opened_when_full(self):
        store = ContainerStore(container_capacity=100)
        first = store.store_chunk(record(b"a" * 80))
        second = store.store_chunk(record(b"b" * 80))
        assert first != second
        assert store.container_count == 2

    def test_per_stream_open_containers(self):
        store = ContainerStore(container_capacity=1024)
        id_stream0 = store.store_chunk(record(b"zero"), stream_id=0)
        id_stream1 = store.store_chunk(record(b"one"), stream_id=1)
        assert id_stream0 != id_stream1

    def test_same_stream_reuses_open_container(self):
        store = ContainerStore(container_capacity=1024)
        first = store.store_chunk(record(b"a" * 10), stream_id=0)
        second = store.store_chunk(record(b"b" * 10), stream_id=0)
        assert first == second

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ContainerStore(container_capacity=0)

    def test_stored_bytes_and_chunks(self):
        store = ContainerStore(container_capacity=1024)
        store.store_chunk(record(b"a" * 10))
        store.store_chunk(record(b"b" * 30))
        assert store.stored_bytes == 40
        assert store.stored_chunks == 2


class TestFlushAndIO:
    def test_flush_seals_open_containers(self):
        store = ContainerStore(container_capacity=1024)
        container_id = store.store_chunk(record(b"a"))
        store.flush()
        assert store.get(container_id).sealed

    def test_flush_counts_container_writes(self):
        store = ContainerStore(container_capacity=1024)
        store.store_chunk(record(b"a"), stream_id=0)
        store.store_chunk(record(b"b"), stream_id=1)
        store.flush()
        assert store.container_writes == 2

    def test_sealing_full_container_counts_write(self):
        store = ContainerStore(container_capacity=20)
        store.store_chunk(record(b"a" * 15))
        store.store_chunk(record(b"b" * 15))  # forces seal of the first
        assert store.container_writes == 1

    def test_read_container_counts_reads(self):
        store = ContainerStore(container_capacity=1024)
        container_id = store.store_chunk(record(b"abc"))
        store.read_container(container_id)
        store.prefetch_metadata(container_id)
        assert store.container_reads == 2

    def test_get_unknown_container_raises(self):
        store = ContainerStore()
        with pytest.raises(ContainerNotFoundError):
            store.get(999)

    def test_prefetch_metadata_returns_fingerprints(self):
        store = ContainerStore(container_capacity=1024)
        chunks = [record(deterministic_bytes(16, seed=i)) for i in range(3)]
        container_id = None
        for chunk in chunks:
            container_id = store.store_chunk(chunk)
        fingerprints = store.prefetch_metadata(container_id)
        assert fingerprints == [chunk.fingerprint for chunk in chunks]

    def test_container_ids(self):
        store = ContainerStore(container_capacity=50)
        store.store_chunk(record(b"a" * 40))
        store.store_chunk(record(b"b" * 40))
        assert store.container_ids() == [0, 1]


class TestOversizedChunks:
    """A chunk larger than the container capacity gets a dedicated container
    sealed immediately -- the seed behavior leaked an empty container into the
    store and raised an opaque ContainerFullError."""

    def test_oversized_chunk_is_stored_and_readable(self):
        store = ContainerStore(container_capacity=100)
        big = record(b"x" * 250)
        container_id = store.store_chunk(big)
        assert store.read_chunks([container_id], [big.fingerprint])[0] == b"x" * 250

    def test_oversized_chunk_container_sealed_immediately(self):
        store = ContainerStore(container_capacity=100)
        container_id = store.store_chunk(record(b"x" * 250))
        container = store.get(container_id)
        assert container.sealed
        assert container.chunk_count == 1
        assert store.container_writes == 1

    def test_no_empty_container_leaked(self):
        store = ContainerStore(container_capacity=100)
        store.store_chunk(record(b"x" * 250))
        assert store.container_count == 1
        assert all(
            store.get(container_id).chunk_count > 0
            for container_id in store.container_ids()
        )

    def test_open_container_survives_oversized_chunk(self):
        store = ContainerStore(container_capacity=100)
        first = store.store_chunk(record(b"a" * 40))
        oversize = store.store_chunk(record(b"x" * 250))
        third = store.store_chunk(record(b"b" * 40))
        assert oversize != first
        assert third == first  # the stream's open container was not disturbed
        assert store.stored_bytes == 40 + 250 + 40
        assert store.stored_chunks == 3

    def test_chunk_exactly_at_capacity_uses_normal_path(self):
        store = ContainerStore(container_capacity=100)
        container_id = store.store_chunk(record(b"x" * 100))
        assert not store.get(container_id).sealed
        assert store.container_writes == 0


class TestStoreChunksBatch:
    """store_chunks must be byte-for-byte equivalent to per-chunk store_chunk."""

    @staticmethod
    def _payloads(lengths, start_seed=0):
        return [
            record(deterministic_bytes(length, seed=start_seed + index))
            for index, length in enumerate(lengths)
        ]

    def test_matches_per_chunk_ids_and_accounting(self):
        lengths = [40, 40, 40, 250, 10, 100, 60, 60, 5, 300, 99]
        batched = ContainerStore(container_capacity=100)
        sequential = ContainerStore(container_capacity=100)
        chunks = self._payloads(lengths)
        batch_ids = batched.store_chunks(chunks)
        seq_ids = [sequential.store_chunk(chunk) for chunk in chunks]
        assert batch_ids == seq_ids
        assert batched.container_count == sequential.container_count
        assert batched.container_writes == sequential.container_writes
        assert batched.stored_bytes == sequential.stored_bytes == sum(lengths)
        assert batched.stored_chunks == sequential.stored_chunks == len(lengths)
        for container_id in batched.container_ids():
            assert (
                batched.get(container_id).fingerprints()
                == sequential.get(container_id).fingerprints()
            )

    def test_batch_resumes_open_container(self):
        store = ContainerStore(container_capacity=100)
        first = store.store_chunk(record(b"a" * 30))
        ids = store.store_chunks(self._payloads([30, 60], start_seed=50))
        assert ids[0] == first
        assert ids[1] != first  # 30 + 30 + 60 > 100 forces a new container

    def test_batch_per_stream_isolation(self):
        store = ContainerStore(container_capacity=1024)
        ids_zero = store.store_chunks(self._payloads([10, 10]), stream_id=0)
        ids_one = store.store_chunks(self._payloads([10, 10], start_seed=9), stream_id=1)
        assert set(ids_zero).isdisjoint(ids_one)

    def test_empty_batch(self):
        store = ContainerStore()
        assert store.store_chunks([]) == []
        assert store.container_count == 0


class TestRunningCounters:
    def test_counters_match_recomputed_sums(self):
        store = ContainerStore(container_capacity=128)
        for index in range(20):
            store.store_chunk(record(deterministic_bytes(32 + index, seed=index)))
        expected_bytes = sum(c.used for c in store._containers.values())
        expected_chunks = sum(c.chunk_count for c in store._containers.values())
        assert store.stored_bytes == expected_bytes
        assert store.stored_chunks == expected_chunks


class TestConcurrency:
    def test_parallel_streams_store_all_chunks(self):
        store = ContainerStore(container_capacity=4096)
        num_threads = 4
        chunks_per_thread = 50

        def worker(stream_id):
            for i in range(chunks_per_thread):
                data = deterministic_bytes(64, seed=stream_id * 1000 + i)
                store.store_chunk(record(data), stream_id=stream_id)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert store.stored_chunks == num_threads * chunks_per_thread
        assert store.stored_bytes == num_threads * chunks_per_thread * 64
