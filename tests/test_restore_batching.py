"""Restore-path batching: per-chunk vs batched vs streamed-iterator equivalence.

The batched restore path (``RestoreManager``) groups each window of recipe
locations by (node, container) and loads every distinct container once; the
chunk-at-a-time execution it is checked against is ``PerChunkRestore`` in
``tests/oracles.py``.
All three consumption shapes must produce byte-identical files and identical
verified-chunk accounting, while the batched path performs strictly fewer
spill-file loads on the disk-backed container backend.  Integrity failures
raise :class:`~repro.errors.RestoreIntegrityError` and are never counted.
"""

import random
from functools import partial

import pytest

from repro.cluster.restore import RestoreManager
from repro.core.framework import SigmaDedupe
from repro.errors import ChunkNotFoundError, RestoreIntegrityError
from repro.node.dedupe_node import DedupeNode, NodeConfig
from tests.oracles import PerChunkRestore


CONTAINER_CAPACITY = 32 * 1024


def make_framework(storage_dir=None, container_compression=None):
    return SigmaDedupe(
        num_nodes=3,
        routing="sigma",
        chunker="gear",
        superchunk_size=16 * 1024,
        node_config=NodeConfig(container_capacity=CONTAINER_CAPACITY),
        storage_dir=storage_dir,
        container_compression=container_compression,
    )


def build_framework(storage_dir=None, seed=2024, generations=3, num_files=4,
                    container_compression=None):
    """A multi-generation session mix whose later recipes interleave containers:
    unchanged chunks resolve to old generations' sealed containers while edits
    land in fresh ones, exactly the pattern batched restore wins on."""
    framework = make_framework(storage_dir, container_compression)
    rng = random.Random(seed)
    files = [
        (f"data/file-{index}.bin", rng.randbytes(40 * 1024 + index * 1111))
        for index in range(num_files)
    ]
    files.append(("data/empty.bin", b""))
    sessions = [framework.backup(files, session_label="gen-0")]
    for generation in range(1, generations):
        edited = []
        for path, data in files:
            if not data:
                edited.append((path, data))
                continue
            buffer = bytearray(data)
            for _ in range(3):
                offset = rng.randrange(0, len(buffer) - 1024)
                buffer[offset:offset + 1024] = rng.randbytes(1024)
            edited.append((path, bytes(buffer)))
        files = edited
        sessions.append(framework.backup(files, session_label=f"gen-{generation}"))
    return framework, sessions, dict(files)


def spill_loads(framework):
    return sum(
        getattr(node.container_backend, "spill_loads", 0)
        for node in framework.cluster.nodes
    )


def restore_all(framework, session_id, mode):
    """Restore every file of a session via one of the three consumption shapes."""
    restorer = PerChunkRestore if mode == "per-chunk" else RestoreManager
    manager = restorer(framework.cluster, framework.director)
    restored = {}
    for path in framework.director.files_in_session(session_id):
        if mode == "streamed":
            restored[path] = b"".join(manager.iter_restore_file(session_id, path))
        else:
            restored[path] = manager.restore_file(session_id, path)
    return restored, manager


class TestRestoreEquivalence:
    @pytest.mark.parametrize("seed", [11, 12])
    def test_three_paths_identical_memory_backend(self, seed):
        framework, sessions, expected = build_framework(seed=seed)
        session_id = sessions[-1].session_id
        results = {
            mode: restore_all(framework, session_id, mode)
            for mode in ("per-chunk", "batched", "streamed")
        }
        for mode, (restored, _manager) in results.items():
            assert restored == expected, f"{mode} restore diverged"
        counters = {
            mode: (manager.chunks_read, manager.bytes_restored)
            for mode, (_restored, manager) in results.items()
        }
        assert len(set(counters.values())) == 1, counters

    @pytest.mark.parametrize("seed", [13, 14])
    def test_three_paths_identical_file_backend(self, seed, tmp_path):
        framework, sessions, expected = build_framework(
            storage_dir=str(tmp_path), seed=seed
        )
        session_id = sessions[-1].session_id
        for mode in ("per-chunk", "batched", "streamed"):
            restored, _ = restore_all(framework, session_id, mode)
            assert restored == expected, f"{mode} restore diverged"

    def test_every_generation_restores_on_both_paths(self, tmp_path):
        framework, sessions, _ = build_framework(storage_dir=str(tmp_path), seed=15)
        for report in sessions:
            per_chunk, _ = restore_all(framework, report.session_id, "per-chunk")
            batched, _ = restore_all(framework, report.session_id, "batched")
            assert per_chunk == batched

    @pytest.mark.parametrize("compression", ["none", "zlib"])
    def test_batched_path_loads_strictly_fewer_spill_files(self, tmp_path, compression):
        # Each path restores through its own cold framework, reopened over the
        # same spill directory with an LRU of one container: the per-chunk
        # path reloads a container at every alternation between containers,
        # the batched path once per container and window.
        framework, sessions, expected = build_framework(
            storage_dir=str(tmp_path), seed=16, container_compression=compression
        )
        exported = framework.director.export_session(sessions[-1].session_id)
        framework.close()

        def cold_loads(mode):
            revived = make_framework(str(tmp_path), compression)
            revived.recover_storage()
            for node in revived.cluster.nodes:
                node.container_backend._decompressed_capacity = CONTAINER_CAPACITY
            session_id = revived.director.import_session(exported).session_id
            restored, _ = restore_all(revived, session_id, mode)
            assert restored == expected
            loads = spill_loads(revived)
            revived.close()
            return loads

        per_chunk_loads = cold_loads("per-chunk")
        batched_loads = cold_loads("batched")
        assert batched_loads > 0
        assert batched_loads < per_chunk_loads

    def test_batched_container_reads_are_per_distinct_container(self, tmp_path):
        framework, sessions, _ = build_framework(storage_dir=str(tmp_path), seed=17)
        session_id = sessions[-1].session_id
        path = framework.director.files_in_session(session_id)[0]
        recipe = framework.director.get_recipe(session_id, path)
        distinct = set(zip(recipe.node_ids, recipe.container_ids))
        before = [node.container_store.container_reads for node in framework.cluster.nodes]
        manager = RestoreManager(framework.cluster, framework.director)
        manager.restore_file(session_id, path)
        after = [node.container_store.container_reads for node in framework.cluster.nodes]
        assert sum(after) - sum(before) == len(distinct)

    def test_small_windows_still_byte_identical(self, tmp_path):
        framework, sessions, expected = build_framework(storage_dir=str(tmp_path), seed=18)
        session_id = sessions[-1].session_id
        manager = RestoreManager(
            framework.cluster, framework.director, batch_chunks=3
        )
        restored = {
            path: manager.restore_file(session_id, path)
            for path in framework.director.files_in_session(session_id)
        }
        assert restored == expected

    def test_streamed_iterator_is_incremental(self):
        framework, sessions, expected = build_framework(seed=19, generations=1)
        session_id = sessions[-1].session_id
        path = framework.director.files_in_session(session_id)[0]
        manager = RestoreManager(
            framework.cluster, framework.director, batch_chunks=4
        )
        pieces = []
        iterator = manager.iter_restore_file(session_id, path)
        first = next(iterator)
        assert isinstance(first, bytes) and first
        pieces.append(first)
        pieces.extend(iterator)
        assert b"".join(pieces) == expected[path]

    @pytest.mark.parametrize(
        "restorer",
        [PerChunkRestore, partial(RestoreManager, batch_chunks=4), RestoreManager],
        ids=["per-chunk", "batched-4", "batched-1024"],
    )
    @pytest.mark.parametrize("received", [1, 4, 6])
    def test_early_stop_counts_only_the_chunks_received(self, restorer, received):
        framework, sessions, expected = build_framework(seed=23, generations=1)
        session_id = sessions[-1].session_id
        path = framework.director.files_in_session(session_id)[0]
        assert len(framework.director.get_recipe(session_id, path)) > received
        manager = restorer(framework.cluster, framework.director)
        iterator = manager.iter_restore_file(session_id, path)
        pieces = [next(iterator) for _ in range(received)]
        iterator.close()
        assert manager.chunks_read == received
        assert manager.bytes_restored == sum(map(len, pieces))
        assert b"".join(pieces) == expected[path][:manager.bytes_restored]


class TestRestoreIntegrity:
    @pytest.mark.parametrize("batch_chunks", [0, -1])
    def test_nonpositive_window_rejected(self, batch_chunks):
        framework = make_framework()
        with pytest.raises(ValueError, match="batch_chunks must be positive"):
            RestoreManager(framework.cluster, framework.director, batch_chunks=batch_chunks)

    def corrupt_recipe(self, framework, session_id, path, position=0, delta=1):
        recipe = framework.director.get_recipe(session_id, path)
        recipe.lengths[position] += delta

    @pytest.mark.parametrize("restorer", [RestoreManager, PerChunkRestore])
    def test_length_mismatch_raises_integrity_error(self, restorer):
        framework, sessions, _ = build_framework(seed=20, generations=1)
        session_id = sessions[-1].session_id
        path = framework.director.files_in_session(session_id)[0]
        self.corrupt_recipe(framework, session_id, path, position=2)
        manager = restorer(framework.cluster, framework.director)
        with pytest.raises(RestoreIntegrityError):
            manager.restore_file(session_id, path)

    @pytest.mark.parametrize("restorer", [RestoreManager, PerChunkRestore])
    def test_failed_chunk_is_not_counted(self, restorer):
        framework, sessions, _ = build_framework(seed=21, generations=1)
        session_id = sessions[-1].session_id
        path = framework.director.files_in_session(session_id)[0]
        recipe = framework.director.get_recipe(session_id, path)
        bad_position = 2
        self.corrupt_recipe(framework, session_id, path, position=bad_position)
        manager = restorer(framework.cluster, framework.director)
        with pytest.raises(RestoreIntegrityError):
            manager.restore_file(session_id, path)
        # Exactly the chunks verified before the corrupt one are counted.
        assert manager.chunks_read == bad_position
        assert manager.bytes_restored == sum(recipe.lengths[:bad_position])

    def test_integrity_error_is_distinct_from_not_found(self):
        assert issubclass(RestoreIntegrityError, Exception)
        assert not issubclass(RestoreIntegrityError, ChunkNotFoundError)
        framework, sessions, _ = build_framework(seed=22, generations=1)
        session_id = sessions[-1].session_id
        path = framework.director.files_in_session(session_id)[0]
        recipe = framework.director.get_recipe(session_id, path)
        # A fingerprint nobody stores -> ChunkNotFoundError, not integrity.
        recipe.fingerprints[0] = b"\x00" * 20
        recipe.container_ids[0] = None
        manager = RestoreManager(framework.cluster, framework.director)
        with pytest.raises(ChunkNotFoundError):
            manager.restore_file(session_id, path)


class TestShortReadReply:
    """A node that answers a read with fewer payloads than it was asked for
    must fail the restore with a typed error, never truncate it."""

    @pytest.mark.parametrize("num_nodes", [1, 2])
    def test_a_dropped_payload_raises_integrity_error(self, monkeypatch, num_nodes):
        framework = SigmaDedupe(num_nodes=num_nodes)
        data = random.Random(27).randbytes(3 << 20)
        session_id = framework.backup([("file", data)]).session_id
        assert framework.restore(session_id, "file") == data
        original = DedupeNode.read_chunks
        monkeypatch.setattr(
            DedupeNode, "read_chunks", lambda node, *columns: original(node, *columns)[:-1]
        )
        with pytest.raises(RestoreIntegrityError, match=r"node \d+ answered a read of \d+ chunks"):
            framework.restore(session_id, "file")
        framework.close()

    def test_the_per_chunk_replay_never_truncates(self, monkeypatch):
        framework = SigmaDedupe(num_nodes=1)
        data = random.Random(28).randbytes(1 << 20)
        session_id = framework.backup([("file", data)]).session_id
        # Below the cluster's reply check: a short window fails column-wise
        # verification and is replayed chunk by chunk, which must not stop
        # quietly at the end of the shorter column.
        original = framework.cluster.read_columns
        monkeypatch.setattr(
            framework.cluster, "read_columns", lambda *columns: original(*columns)[:-1]
        )
        manager = RestoreManager(framework.cluster, framework.director)
        with pytest.raises(RestoreIntegrityError, match="payloads for"):
            manager.restore_file(session_id, "file")
        framework.close()
