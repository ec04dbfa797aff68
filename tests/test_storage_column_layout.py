"""The column layout behind the batched append.

``Container.append_many`` extends a container's columns from a run's columns
and ``ContainerStore.store_chunks`` splits a batch into one run per container.
Both must be indistinguishable from their one-chunk-at-a-time forms
(``append`` / :func:`tests.oracles.store_chunk`): same metadata rows, same
contiguous layout, same container ids, seal timing and accounting -- on the
memory and the file backend, and with lock assertions armed (CI's
``REPRO_LOCK_ASSERTS=1`` leg).
"""

import pytest

from repro.errors import ContainerFullError
from repro.fingerprint.fingerprinter import ChunkRecord
from repro.storage.backends import FileContainerBackend, InMemoryBackend
from repro.storage.container import Container
from repro.storage.container_store import ContainerStore
from tests.helpers import deterministic_bytes, fingerprint_of
from tests.oracles import store_chunk

CAPACITY = 100


def record(length: int, seed: int, form=bytes) -> ChunkRecord:
    """A chunk of ``length`` bytes whose payload arrives as ``form``
    (``bytes``, ``bytearray``, ``memoryview``) or not at all (``None``)."""
    data = deterministic_bytes(length, seed=seed)
    payload = None if form is None else form(data)
    return ChunkRecord(fingerprint_of(data), length, 0, payload)


def records(lengths, start_seed=0, form=bytes):
    return [record(length, start_seed + index, form) for index, length in enumerate(lengths)]


def columns(run):
    return (
        [chunk.fingerprint for chunk in run],
        [chunk.length for chunk in run],
        [chunk.data for chunk in run],
    )


def container_view(container: Container):
    return {
        "rows": container.metadata_section(),
        "fingerprints": container.fingerprints(),
        "payload": bytes(container.payload_bytes()),
        "chunks": [container.read_chunks([fp])[0] for fp in container.fingerprints()],
        "bulk_chunks": container.read_chunks(container.fingerprints()),
        "used": container.used,
        "free": container.free,
        "chunk_count": container.chunk_count,
    }


RUNS = {
    "plain": records([10, 20, 30]),
    "exactly_fills": records([40, 60]),
    "single": records([7]),
    "empty": [],
    "no_payload": records([10, 20], form=None),
    "mixed_payload_forms": [
        record(10, 1), record(20, 2, None), record(30, 3, bytearray), record(15, 4, memoryview),
    ],
    "zero_length": [record(0, 1), record(5, 2)],
}


class TestAppendMany:
    @pytest.mark.parametrize("name", sorted(RUNS))
    @pytest.mark.parametrize("already", [0, 1])
    def test_matches_repeated_append(self, name, already):
        run = RUNS[name]
        batched = Container(container_id=3, capacity=CAPACITY + 10 * already)
        sequential = Container(container_id=3, capacity=CAPACITY + 10 * already)
        for container in (batched, sequential):
            for chunk in records([10] * already, start_seed=900):
                container.append(chunk)
        batched.append_many(*columns(run))
        entries = [sequential.append(chunk) for chunk in run]
        assert container_view(batched) == container_view(sequential)
        assert batched.metadata_section()[already:] == entries

    def test_mutable_payloads_are_snapshotted_not_aliased(self):
        buffer = bytearray(b"a" * 10)
        view_source = bytearray(b"b" * 10)
        run = [
            ChunkRecord(b"\x01" * 20, 10, 0, buffer),
            ChunkRecord(b"\x02" * 20, 10, 0, memoryview(view_source)),
        ]
        container = Container(container_id=0, capacity=CAPACITY)
        container.append_many(*columns(run))
        buffer[:] = b"z" * 10
        view_source[:] = b"z" * 10
        assert container.read_chunks([b"\x01" * 20])[0] == b"a" * 10
        assert container.read_chunks([b"\x02" * 20])[0] == b"b" * 10
        assert all(type(part) is bytes for part in container._parts)

    def test_bytes_payloads_are_kept_by_reference(self):
        run = records([10, 20])
        container = Container(container_id=0, capacity=CAPACITY)
        container.append_many(*columns(run))
        assert all(part is chunk.data for part, chunk in zip(container._parts, run))

    def test_run_that_does_not_fit_leaves_the_container_untouched(self):
        container = Container(container_id=0, capacity=CAPACITY)
        container.append(record(50, 1))
        before = container_view(container)
        with pytest.raises(ContainerFullError):
            container.append_many(*columns(records([30, 30], start_seed=5)))
        assert container_view(container) == before

    def test_sealed_container_refuses_a_run(self):
        container = Container(container_id=0, capacity=CAPACITY)
        container.seal()
        with pytest.raises(ContainerFullError):
            container.append_many(*columns(records([1])))

    def test_recovered_rows_come_back_as_the_same_rows(self):
        original = Container(container_id=0, capacity=CAPACITY)
        original.append_many(*columns(RUNS["plain"]))
        original.seal()
        clone = Container.from_recovered(
            container_id=0,
            capacity=CAPACITY,
            stream_id=0,
            entries=original.metadata_section(),
            parts=[chunk.data for chunk in RUNS["plain"]],
        )
        assert container_view(clone) == container_view(original)


BATCHES = {
    "exactly_fills_then_one_more": [40, 60, 1],
    "spans_three_containers": [60, 60, 60, 30, 30, 30, 30, 30],
    "oversize_first": [250, 40, 40],
    "oversize_mid_run": [40, 40, 250, 10, 100],
    "oversize_last": [40, 40, 250],
    "only_oversize": [250, 300],
    "oversize_between_full_containers": [100, 250, 100],
    "every_chunk_its_own_container": [70, 70, 70],
    "zero_length_chunks": [0, 50, 0, 50, 0, 10],
    "single": [10],
    "empty": [],
}


@pytest.fixture(params=["memory", "file"])
def store_pair(request, tmp_path):
    """``(batched, sequential)`` stores on the same kind of backend."""
    def build(name):
        if request.param == "file":
            backend = FileContainerBackend(tmp_path / name)
        else:
            backend = InMemoryBackend()
        store = ContainerStore(container_capacity=CAPACITY, backend=backend)
        store.track_seals = True
        return store

    pair = build("batched"), build("sequential")
    yield pair
    for store in pair:
        store.backend.close()


def store_view(store: ContainerStore):
    return {
        "ids": store.container_ids(),
        "sealed": [store.get(cid).sealed for cid in store.container_ids()],
        "resident": [store.get(cid).payload_resident for cid in store.container_ids()],
        "containers": [container_view(store.get(cid)) for cid in store.container_ids()],
        "container_writes": store.container_writes,
        "stored_bytes": store.stored_bytes,
        "stored_chunks": store.stored_chunks,
    }


class TestStoreChunks:
    @pytest.mark.parametrize("name", sorted(BATCHES))
    @pytest.mark.parametrize("form", [bytes, None, bytearray, memoryview])
    def test_matches_repeated_store_chunk(self, store_pair, name, form):
        batched, sequential = store_pair
        # Something already in the open container, then the batch, then more:
        # a batch must pick the open container up and leave it as it should be.
        steps = [records([30], 700), records(BATCHES[name], 0, form), records([30, 80], 800)]
        for step in steps:
            batch_ids = batched.store_chunks(step)
            assert batch_ids == [store_chunk(sequential, chunk) for chunk in step]
            # Seal timing: the same containers are sealed after every step.
            assert store_view(batched) == store_view(sequential)
        batched.flush()
        sequential.flush()
        assert store_view(batched) == store_view(sequential)
        assert batched.drain_sealed() == sequential.drain_sealed()

    def test_two_streams_interleaving(self, store_pair):
        batched, sequential = store_pair
        seed = 0
        for stream_id, lengths in [(0, [40, 40]), (1, [30, 250, 30]), (0, [40, 40, 40]),
                                   (1, [50, 50]), (0, [10]), (1, [])]:
            step = records(lengths, seed)
            seed += len(step)
            assert batched.store_chunks(step, stream_id=stream_id) == [
                store_chunk(sequential, chunk, stream_id=stream_id) for chunk in step
            ]
            assert store_view(batched) == store_view(sequential)
        assert {batched.get(cid).stream_id for cid in batched.container_ids()} == {0, 1}
        assert batched.drain_sealed() == sequential.drain_sealed()

    def test_store_chunks_reads_back_what_it_stored(self, store_pair):
        batched, _sequential = store_pair
        batch = records(BATCHES["oversize_mid_run"] + BATCHES["spans_three_containers"])
        ids = batched.store_chunks(batch)
        batched.flush()
        fingerprints = [chunk.fingerprint for chunk in batch]
        assert batched.read_chunks(ids, fingerprints) == [chunk.data for chunk in batch]
