"""Tests for repro.storage.backends (pluggable container storage)."""

import os
import zlib
from pathlib import Path

import pytest

from repro.cluster.cluster import DedupeCluster
from repro.core.framework import NODE_TRANSPORTS, SigmaDedupe
from repro.errors import CompressionError, ContainerNotFoundError, StorageError
from repro.fingerprint.fingerprinter import ChunkRecord
from repro.node.dedupe_node import DedupeNode, NodeConfig
from repro.storage.backends import (
    CONTAINER_BACKENDS,
    ENV_CONTAINER_BACKEND,
    FileContainerBackend,
    InMemoryBackend,
    build_container_backend,
)
from repro.storage.compression import (
    COMPRESSION_CODECS,
    ENV_CONTAINER_COMPRESSION,
    build_codec,
    resolve_compression,
)
from repro.storage.container_store import ContainerStore
from repro.storage.journal import MANIFEST_NAME, ManifestJournal
from tests.helpers import deterministic_bytes, fingerprint_of, superchunk_from_seeds

#: Every codec name; each is usable on every host.
AVAILABLE_CODECS = sorted(COMPRESSION_CODECS)

#: Names outside the registry that a configuration may still carry: each is
#: refused with a message naming the two codecs.
RETIRED_CODECS = ["auto", "zstd"]
NAMES_BOTH_CODECS = r"expected one of \['none', 'zlib'\]"

#: A payload real codecs compress well: unique 32-byte spans, each repeated.
COMPRESSIBLE = b"".join(
    deterministic_bytes(32, seed=i) * 8 for i in range(8)
)


def record(data: bytes) -> ChunkRecord:
    return ChunkRecord(fingerprint=fingerprint_of(data), length=len(data), data=data)


def cold_store(tmp_path, chunks, capacity, compression="zlib", **options):
    """``chunks`` sealed into spills under ``compression``, then the backend
    reopened through journal replay: its LRU starts empty (a sealing zlib
    backend's holds every section its seals admitted)."""
    backend = FileContainerBackend(tmp_path, compression=compression)
    store = ContainerStore(container_capacity=capacity, backend=backend)
    ids = store.store_chunks(chunks)
    store.flush()
    backend.close()
    reopened = FileContainerBackend.recover(tmp_path, **options)
    cold = ContainerStore(container_capacity=capacity, backend=reopened)
    cold.adopt_recovered(reopened.last_recovery)
    return reopened, cold, ids


class TestRegistry:
    def test_registered_names(self):
        assert set(CONTAINER_BACKENDS) == {"memory", "file"}

    def test_build_by_name(self, tmp_path):
        assert isinstance(build_container_backend("memory"), InMemoryBackend)
        backend = build_container_backend("file", storage_dir=tmp_path / "spill")
        assert isinstance(backend, FileContainerBackend)
        assert backend.storage_dir.is_dir()

    def test_unknown_name_raises(self):
        with pytest.raises(StorageError, match="unknown container backend"):
            build_container_backend("tape")

    def test_memory_backend_ignores_storage_dir(self, tmp_path):
        backend = build_container_backend("memory", storage_dir=tmp_path)
        assert isinstance(backend, InMemoryBackend)

    def test_file_backend_without_dir_uses_tempdir(self):
        backend = FileContainerBackend()
        try:
            assert backend.storage_dir.is_dir()
        finally:
            backend.close()


class TestSpillOnSeal:
    def test_sealed_payload_evicted_and_spilled(self, tmp_path):
        # compression="none" pins the raw spill format (st_size == raw bytes)
        # even when a CI leg exports REPRO_CONTAINER_COMPRESSION.
        backend = FileContainerBackend(tmp_path, compression="none")
        store = ContainerStore(container_capacity=64, backend=backend)
        chunk = record(deterministic_bytes(40, seed=1))
        container_id = store.store_chunk(chunk)
        store.flush()
        container = store.get(container_id)
        assert container.sealed
        assert not container.payload_resident
        assert backend.spilled_containers == 1
        assert backend.spilled_bytes == 40
        assert backend.spill_path(container_id).stat().st_size == 40

    def test_open_containers_stay_resident(self, tmp_path):
        store = ContainerStore(container_capacity=1024, backend=FileContainerBackend(tmp_path))
        container_id = store.store_chunk(record(b"abc"))
        assert store.get(container_id).payload_resident

    def test_read_back_from_spill_file(self, tmp_path):
        store = ContainerStore(container_capacity=64, backend=FileContainerBackend(tmp_path))
        chunks = [record(deterministic_bytes(30, seed=i)) for i in range(4)]
        ids = store.store_chunks(chunks)
        store.flush()
        for chunk, container_id in zip(chunks, ids):
            assert store.read_chunks([container_id], [chunk.fingerprint])[0] == chunk.data

    def test_reads_count_as_container_io(self, tmp_path):
        store = ContainerStore(container_capacity=64, backend=FileContainerBackend(tmp_path))
        chunk = record(deterministic_bytes(40, seed=2))
        container_id = store.store_chunk(chunk)
        store.flush()
        reads_before = store.container_reads
        store.read_chunks([container_id], [chunk.fingerprint])[0]
        assert store.container_reads == reads_before + 1

    def test_metadata_stays_resident_for_prefetch(self, tmp_path):
        backend = FileContainerBackend(tmp_path)
        store = ContainerStore(container_capacity=64, backend=backend)
        chunks = [record(deterministic_bytes(30, seed=i)) for i in range(2)]
        container_id = store.store_chunks(chunks)[0]
        store.flush()
        # Deleting the spill file must not break a metadata-only prefetch.
        backend.spill_path(container_id).unlink()
        assert store.prefetch_metadata(container_id) == [c.fingerprint for c in chunks]

    def test_stored_bytes_unchanged_by_eviction(self, tmp_path):
        store = ContainerStore(container_capacity=64, backend=FileContainerBackend(tmp_path))
        store.store_chunk(record(deterministic_bytes(40, seed=3)))
        assert store.stored_bytes == 40
        store.flush()
        assert store.stored_bytes == 40
        assert store.resident_payload_bytes == 0

    def test_oversize_chunk_spills(self, tmp_path):
        backend = FileContainerBackend(tmp_path)
        store = ContainerStore(container_capacity=64, backend=backend)
        big = record(deterministic_bytes(200, seed=4))
        container_id = store.store_chunk(big)
        assert not store.get(container_id).payload_resident
        assert store.read_chunks([container_id], [big.fingerprint])[0] == big.data


class TestSpillFileCrashes:
    def _spilled(self, tmp_path):
        # Raw spill format pinned: truncating a *compressed* file surfaces as
        # a decompression failure, not the byte-count mismatch under test.
        backend = FileContainerBackend(tmp_path, compression="none")
        store = ContainerStore(container_capacity=64, backend=backend)
        chunk = record(deterministic_bytes(40, seed=5))
        container_id = store.store_chunk(chunk)
        store.flush()
        return backend, store, chunk, container_id

    def test_missing_spill_file_raises_container_not_found(self, tmp_path):
        backend, store, chunk, container_id = self._spilled(tmp_path)
        backend.spill_path(container_id).unlink()
        with pytest.raises(ContainerNotFoundError, match="missing or unreadable"):
            store.read_chunks([container_id], [chunk.fingerprint])[0]

    def test_truncated_spill_file_raises_container_not_found(self, tmp_path):
        backend, store, chunk, container_id = self._spilled(tmp_path)
        path = backend.spill_path(container_id)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(ContainerNotFoundError, match="truncated"):
            store.read_chunks([container_id], [chunk.fingerprint])[0]

    def test_crash_surfaces_through_node_restore(self, tmp_path):
        config = NodeConfig(
            container_capacity=256,
            container_backend="file",
            storage_dir=str(tmp_path),
            container_compression="none",
        )
        node = DedupeNode(0, config=config)
        superchunk = superchunk_from_seeds(range(4), length=128)
        node.backup_superchunk(superchunk)
        node.flush()
        for name in os.listdir(node.container_backend.storage_dir):
            (node.container_backend.storage_dir / name).unlink()
        with pytest.raises(ContainerNotFoundError):
            node.read_chunks([superchunk.chunks[0].fingerprint], [None])[0]


#: What ``SigmaDedupe(transport=...)`` resolves, whichever transport hosts
#: the nodes.  Backend: the explicit keyword, then REPRO_CONTAINER_BACKEND,
#: then a storage_dir means "file", then "memory".
#: Row: (container_backend=, REPRO_CONTAINER_BACKEND, storage_dir given, backend).
BACKEND_PRECEDENCE = [
    pytest.param(None, None, False, "memory", id="default"),
    pytest.param("file", None, False, "file", id="keyword"),
    pytest.param(None, "file", False, "file", id="environment"),
    pytest.param("memory", "file", False, "memory", id="keyword-beats-environment"),
    pytest.param(None, None, True, "file", id="storage-dir-implies-file"),
    pytest.param(None, "memory", True, "memory", id="environment-beats-storage-dir"),
    pytest.param("memory", None, True, "memory", id="keyword-beats-storage-dir"),
]

#: Compression: the explicit keyword, then REPRO_CONTAINER_COMPRESSION, then
#: "none".
#: Row: (container_compression=, REPRO_CONTAINER_COMPRESSION, codec).
COMPRESSION_PRECEDENCE = [
    pytest.param(None, None, "none", id="default"),
    pytest.param("zlib", None, "zlib", id="keyword"),
    pytest.param(None, "zlib", "zlib", id="environment"),
    pytest.param("none", "zlib", "none", id="keyword-beats-environment"),
]


def spill_root(framework, storage_dir):
    """Where node 0 writes its spill tree, if it has one."""
    if storage_dir is not None:
        return Path(storage_dir) / "node-0"
    if framework.transport == "process":
        # The worker's own claim, inside the cluster's runtime directory.
        return Path(framework.cluster._runtime_dir) / "storage" / "node-0"
    return getattr(framework.cluster.node(0).container_backend, "storage_dir", None)


def spilled_codec(monkeypatch, transport, environ, **settings):
    """Back up one object through ``SigmaDedupe`` and read, from the spill
    tree node 0 wrote, the codec its journal recorded (``None``: no spill
    tree, i.e. the node kept its containers in memory)."""
    for variable, value in environ.items():
        if value is None:
            monkeypatch.delenv(variable, raising=False)
        else:
            monkeypatch.setenv(variable, value)
    with SigmaDedupe(
        num_nodes=1,
        node_config=NodeConfig(container_capacity=4096),
        transport=transport,
        **settings,
    ) as framework:
        framework.backup([("a.bin", deterministic_bytes(32 * 1024, seed=1))])
        root = spill_root(framework, settings.get("storage_dir"))
        first = None if root is None else ManifestJournal(root / MANIFEST_NAME).first_record()
        return None if first is None else first["codec"]


@pytest.mark.parametrize("transport", NODE_TRANSPORTS)
class TestStorageSettingPrecedence:
    @pytest.mark.parametrize("keyword, environ, with_dir, expected", BACKEND_PRECEDENCE)
    def test_backend(self, monkeypatch, tmp_path, transport, keyword, environ, with_dir, expected):
        codec = spilled_codec(
            monkeypatch,
            transport,
            {ENV_CONTAINER_BACKEND: environ},
            container_backend=keyword,
            storage_dir=str(tmp_path) if with_dir else None,
        )
        assert ("memory" if codec is None else "file") == expected

    @pytest.mark.parametrize("keyword, environ, expected", COMPRESSION_PRECEDENCE)
    def test_compression(self, monkeypatch, tmp_path, transport, keyword, environ, expected):
        codec = spilled_codec(
            monkeypatch,
            transport,
            {ENV_CONTAINER_COMPRESSION: environ},
            container_backend="file",
            storage_dir=str(tmp_path),
            container_compression=keyword,
        )
        assert codec == expected

    @pytest.mark.parametrize("name", RETIRED_CODECS)
    def test_retired_codec_is_refused_before_any_node_or_directory(
        self, monkeypatch, tmp_path, transport, name
    ):
        storage_dir = tmp_path / "storage"
        with pytest.raises(CompressionError, match=NAMES_BOTH_CODECS):
            SigmaDedupe(num_nodes=2, storage_dir=str(storage_dir),
                        container_compression=name, transport=transport)
        monkeypatch.setenv(ENV_CONTAINER_COMPRESSION, name)
        with pytest.raises(CompressionError, match=NAMES_BOTH_CODECS):
            SigmaDedupe(num_nodes=2, storage_dir=str(storage_dir), transport=transport)
        assert not storage_dir.exists()


class TestNodeDirectories:
    def test_nodes_get_disjoint_directories(self, tmp_path):
        config = NodeConfig(container_backend="file", storage_dir=str(tmp_path))
        cluster = DedupeCluster(num_nodes=3, node_config=config)
        directories = {node.container_backend.storage_dir for node in cluster.nodes}
        assert directories == {tmp_path / f"node-{node_id}" for node_id in range(3)}


class TestCompressionCodecs:
    def test_registry_names(self):
        assert set(COMPRESSION_CODECS) == {"none", "zlib"}

    @pytest.mark.parametrize("name", RETIRED_CODECS)
    def test_retired_codec_names_are_refused(self, name):
        with pytest.raises(CompressionError, match=NAMES_BOTH_CODECS):
            resolve_compression(name)

    def test_unknown_codec_raises(self):
        with pytest.raises(CompressionError, match="unknown compression codec"):
            resolve_compression("lz77")

    def test_none_codec_builds_to_no_op(self):
        assert build_codec("none") is None

    @pytest.mark.parametrize("name", [n for n in AVAILABLE_CODECS if n != "none"])
    def test_roundtrip_and_shrink(self, name):
        codec = build_codec(name)
        blob = codec.compress(COMPRESSIBLE)
        assert len(blob) < len(COMPRESSIBLE)
        assert codec.decompress(blob, len(COMPRESSIBLE)) == COMPRESSIBLE

    @pytest.mark.parametrize("name", [n for n in AVAILABLE_CODECS if n != "none"])
    def test_corrupt_blob_raises_compression_error(self, name):
        codec = build_codec(name)
        with pytest.raises(CompressionError):
            codec.decompress(b"\xde\xad\xbe\xef" * 8, 1024)


class TestCompressedSpill:
    def _compressible_records(self):
        # Each record is a unique 32-byte span repeated 8 times: unique for
        # dedupe accounting, yet internally repetitive so real codecs shrink
        # the sealed data sections they land in.
        return [
            record(deterministic_bytes(32, seed=i) * 8) for i in range(6)
        ]

    @pytest.mark.parametrize("name", AVAILABLE_CODECS)
    def test_reads_byte_identical(self, tmp_path, name):
        backend = FileContainerBackend(tmp_path, compression=name)
        store = ContainerStore(container_capacity=512, backend=backend)
        chunks = self._compressible_records()
        ids = store.store_chunks(chunks)
        store.flush()
        for chunk, container_id in zip(chunks, ids):
            assert store.read_chunks([container_id], [chunk.fingerprint])[0] == chunk.data
        batched = store.read_chunks(ids, [chunk.fingerprint for chunk in chunks])
        assert batched == [chunk.data for chunk in chunks]

    @pytest.mark.parametrize("name", [n for n in AVAILABLE_CODECS if n != "none"])
    def test_stored_bytes_shrink(self, tmp_path, name):
        backend = FileContainerBackend(tmp_path, compression=name)
        store = ContainerStore(container_capacity=512, backend=backend)
        store.store_chunks(self._compressible_records())
        store.flush()
        assert 0 < backend.spilled_bytes_stored < backend.spilled_bytes
        on_disk = sum(
            entry.stat().st_size
            for entry in backend.storage_dir.glob("container-*.cdata")
        )
        assert on_disk == backend.spilled_bytes_stored

    def test_none_codec_counters_match(self, tmp_path):
        backend = FileContainerBackend(tmp_path, compression="none")
        store = ContainerStore(container_capacity=64, backend=backend)
        store.store_chunk(record(deterministic_bytes(40, seed=9)))
        store.flush()
        assert backend.spilled_bytes_stored == backend.spilled_bytes == 40

    def _interleaved_reads(self, store, chunks, ids):
        # An interleaved read pattern revisits each sealed container many
        # times.
        for _ in range(4):
            for chunk, container_id in zip(chunks, ids):
                assert store.read_chunks([container_id], [chunk.fingerprint])[0] == chunk.data

    def test_sealed_sections_are_admitted_write_through(self, tmp_path):
        backend = FileContainerBackend(tmp_path, compression="zlib")
        store = ContainerStore(container_capacity=256, backend=backend)
        chunks = self._compressible_records()
        ids = store.store_chunks(chunks)
        store.flush()
        # on_seal admitted every container's part list: reads that follow
        # the ingest touch neither the spill files nor the codec.
        self._interleaved_reads(store, chunks, ids)
        assert backend.spill_loads == 0

    def test_write_through_respects_the_byte_budget(self, tmp_path):
        backend = FileContainerBackend(
            tmp_path, compression="zlib", decompressed_cache_bytes=256
        )
        store = ContainerStore(container_capacity=256, backend=backend)
        chunks = self._compressible_records()
        ids = store.store_chunks(chunks)
        store.flush()
        assert backend._decompressed_bytes <= 256
        assert list(backend._decompressed) == [max(ids)]

    def _sealed_pair(self, tmp_path, **options):
        """Two 256-byte chunks sealed into one zlib container, with the part
        list the container held until its seal."""
        backend = FileContainerBackend(tmp_path, compression="zlib", **options)
        store = ContainerStore(container_capacity=512, backend=backend)
        chunks = self._compressible_records()[:2]
        ids = store.store_chunks(chunks)
        (container_id,) = set(ids)
        parts = store.get(container_id)._parts
        store.flush()
        return backend, store, chunks, container_id, parts

    def test_seal_admits_the_part_list_the_container_held(self, tmp_path):
        backend, store, chunks, container_id, parts = self._sealed_pair(tmp_path)
        assert parts == [chunk.data for chunk in chunks]
        assert backend._decompressed[container_id] == (512, parts)
        assert backend._decompressed[container_id][1] is parts
        assert store.get(container_id).load_section() is parts

    def test_restore_after_the_seal_serves_the_ingest_bytes(self, tmp_path):
        backend, store, chunks, container_id, _parts = self._sealed_pair(tmp_path)
        got = store.read_chunks([container_id] * 2, [chunk.fingerprint for chunk in chunks])
        assert all(payload is chunk.data for payload, chunk in zip(got, chunks))
        # Held by the backend's LRU, not by the container: the list is not
        # resident payload, and no spill file was read.
        assert backend.spill_loads == 0
        assert not store.get(container_id).payload_resident
        assert store.resident_payload_bytes == 0

    def test_close_drops_the_seal_admitted_lists(self, tmp_path):
        backend, _store, _chunks, _container_id, _parts = self._sealed_pair(tmp_path)
        assert backend._decompressed
        backend.close()
        assert not backend._decompressed and backend._decompressed_bytes == 0

    def test_seal_over_the_budget_is_read_from_its_file(self, tmp_path):
        backend, store, chunks, container_id, _parts = self._sealed_pair(
            tmp_path, decompressed_cache_bytes=256
        )
        assert not backend._decompressed
        got = store.read_chunks([container_id] * 2, [chunk.fingerprint for chunk in chunks])
        assert got == [chunk.data for chunk in chunks]
        assert backend.spill_loads == 1

    def test_evicted_seal_list_is_reloaded_decoded_and_length_checked(
        self, tmp_path, monkeypatch
    ):
        # A budget of one container: the second seal evicts the first's list.
        backend = FileContainerBackend(
            tmp_path, compression="zlib", decompressed_cache_bytes=512
        )
        store = ContainerStore(container_capacity=512, backend=backend)
        chunks = self._compressible_records()[:4]
        ids = store.store_chunks(chunks)
        store.flush()
        first, second = sorted(set(ids))
        assert list(backend._decompressed) == [second]
        decoded = []
        decompress = backend._codec.decompress
        monkeypatch.setattr(
            backend._codec, "decompress",
            lambda data, size: decoded.append(size) or decompress(data, size),
        )
        got = store.read_chunks([first] * 2, [chunk.fingerprint for chunk in chunks[:2]])
        assert got == [chunk.data for chunk in chunks[:2]]
        assert all(payload is not chunk.data for payload, chunk in zip(got, chunks))
        assert backend.spill_loads == 1 and decoded == [512]
        # The reload evicted the second seal's list in turn; a valid stream
        # one byte short fails its length check on the way back in.
        assert list(backend._decompressed) == [first]
        backend.spill_path(second).write_bytes(zlib.compress(chunks[2].data + chunks[3].data[:-1]))
        with pytest.raises(ContainerNotFoundError, match="truncated"):
            store.read_chunks([second], [chunks[2].fingerprint])
        assert list(backend._decompressed) == [first]

    def test_raw_seal_admits_nothing(self, tmp_path):
        # Write-through is codec-only: a raw spill's first read goes to the
        # file (the page cache holds it), and that read admits the split list.
        backend = FileContainerBackend(tmp_path, compression="none")
        store = ContainerStore(container_capacity=256, backend=backend)
        chunks = self._compressible_records()
        ids = store.store_chunks(chunks)
        store.flush()
        assert not backend._decompressed and backend._decompressed_bytes == 0
        self._interleaved_reads(store, chunks, ids)
        assert backend.spill_loads == len(set(ids))
        assert sorted(backend._decompressed) == sorted(set(ids))

    @pytest.mark.parametrize("compression", ["none", "zlib"])
    def test_spill_map_closed_before_the_load_returns(self, tmp_path, monkeypatch, compression):
        import mmap

        opened = []

        class TrackedMap(mmap.mmap):
            def __new__(cls, *args, **kwargs):
                made = super().__new__(cls, *args, **kwargs)
                opened.append(made)
                return made

        chunks = self._compressible_records()
        _backend, cold, ids = cold_store(tmp_path, chunks, 256, compression)
        monkeypatch.setattr(mmap, "mmap", TrackedMap)
        self._interleaved_reads(cold, chunks, ids)
        assert len(opened) == len(set(ids))
        assert all(made.closed for made in opened)

    @pytest.mark.parametrize("compression", ["none", "zlib"])
    def test_split_list_outlives_its_spill_file(self, tmp_path, compression):
        # The list holds copies, not views of the closed map: once loaded, a
        # container reads from the LRU even with its spill file gone.
        chunks = self._compressible_records()
        backend, cold, ids = cold_store(tmp_path, chunks, 256, compression)
        self._interleaved_reads(cold, chunks, ids)
        loads = backend.spill_loads
        for container_id in set(ids):
            backend.spill_path(container_id).unlink()
        self._interleaved_reads(cold, chunks, ids)
        assert backend.spill_loads == loads

    @pytest.mark.parametrize("compression", ["none", "zlib"])
    def test_decompressed_sections_cached_across_windows(self, tmp_path, compression):
        chunks = self._compressible_records()
        # A reopened backend starts cold; the LRU must keep each container to
        # a single spill load instead of one per visit.
        reopened, cold, ids = cold_store(tmp_path, chunks, 256, compression)
        self._interleaved_reads(cold, chunks, ids)
        assert reopened.spill_loads == len(set(ids))
        # One read form, whatever the codec: per-chunk payloads.
        section = cold.get(ids[0]).load_section()
        assert isinstance(section, list) and set(map(type, section)) == {bytes}

    @pytest.mark.parametrize("compression", ["none", "zlib"])
    def test_split_lists_stay_within_the_budget(self, tmp_path, compression):
        # Two 256-byte chunks per container and a budget of three containers;
        # five containers are read, one after another.
        chunks = [record(deterministic_bytes(32, seed=i) * 8) for i in range(10)]
        backend, store, ids = cold_store(
            tmp_path, chunks, 512, compression, decompressed_cache_bytes=3 * 512
        )
        containers = sorted(set(ids))
        assert len(containers) == 5
        for count, container_id in enumerate(containers, 1):
            wanted = [chunk for chunk, cid in zip(chunks, ids) if cid == container_id]
            got = store.read_chunks(
                [container_id] * len(wanted), [chunk.fingerprint for chunk in wanted]
            )
            assert got == [chunk.data for chunk in wanted]
            assert store.resident_payload_bytes == 0
            # At most three split lists, the least recently read out first.
            held = backend._decompressed
            assert list(held) == containers[max(0, count - 3):count]
            assert [section for _size, section in held.values()] == [
                [chunk.data for chunk, cid in zip(chunks, ids) if cid == held_id]
                for held_id in held
            ]
            assert backend._decompressed_bytes == 512 * len(held)
        backend.close()
        assert not backend._decompressed


class TestCompressedSpillCrashes:
    def _spilled(self, tmp_path, compression):
        # A zero budget switches the decompressed-section LRU off (seals
        # admit into it), so the reads below really go to the spill file.
        backend = FileContainerBackend(
            tmp_path, compression=compression, decompressed_cache_bytes=0
        )
        store = ContainerStore(container_capacity=64, backend=backend)
        chunk = record(deterministic_bytes(40, seed=5))
        container_id = store.store_chunk(chunk)
        store.flush()
        return backend, store, chunk, container_id

    def test_corrupt_compressed_file_raises_container_not_found(self, tmp_path):
        backend, store, chunk, container_id = self._spilled(tmp_path, "zlib")
        backend.spill_path(container_id).write_bytes(b"\xde\xad\xbe\xef" * 4)
        with pytest.raises(ContainerNotFoundError, match="cannot be decompressed"):
            store.read_chunks([container_id], [chunk.fingerprint])[0]

    def test_truncated_compressed_file_raises_container_not_found(self, tmp_path):
        backend, store, chunk, container_id = self._spilled(tmp_path, "zlib")
        path = backend.spill_path(container_id)
        path.write_bytes(path.read_bytes()[:5])
        with pytest.raises(ContainerNotFoundError, match="cannot be decompressed"):
            store.read_chunks([container_id], [chunk.fingerprint])[0]

    def test_wrong_decompressed_length_raises_truncated(self, tmp_path):
        backend, store, chunk, container_id = self._spilled(tmp_path, "zlib")
        backend.spill_path(container_id).write_bytes(zlib.compress(b"tiny"))
        with pytest.raises(ContainerNotFoundError, match="truncated"):
            store.read_chunks([container_id], [chunk.fingerprint])[0]

    @pytest.mark.parametrize("compression", ["none", "zlib"])
    def test_short_section_is_never_cached(self, tmp_path, compression):
        # A raw file or a valid stream one byte short fails its length check,
        # and that check runs before the LRU admits the split list: the retry
        # a failover makes fails again instead of reading it from the cache.
        chunk = record(deterministic_bytes(40, seed=5))
        backend, store, (container_id,) = cold_store(tmp_path, [chunk], 64, compression)
        short = chunk.data[:-1]
        backend.spill_path(container_id).write_bytes(
            short if compression == "none" else zlib.compress(short)
        )
        for _attempt in range(2):
            with pytest.raises(ContainerNotFoundError, match="truncated"):
                store.read_chunks([container_id], [chunk.fingerprint])
        assert not backend._decompressed
        backend.close()

    @pytest.mark.parametrize(
        "compression, error",
        [("none", "truncated"), ("zlib", "cannot be decompressed")],
    )
    def test_empty_spill_file_fails_every_read(self, tmp_path, compression, error):
        # A zero-length file cannot be mapped; it reads as an empty section,
        # which fails its length check (raw) or its decode (zlib).
        chunk = record(deterministic_bytes(40, seed=5))
        backend, store, (container_id,) = cold_store(tmp_path, [chunk], 64, compression)
        backend.spill_path(container_id).write_bytes(b"")
        for _attempt in range(2):
            with pytest.raises(ContainerNotFoundError, match=error):
                store.read_chunks([container_id], [chunk.fingerprint])
        assert not backend._decompressed
        backend.close()

    def test_missing_compressed_file_raises_container_not_found(self, tmp_path):
        backend, store, chunk, container_id = self._spilled(tmp_path, "zlib")
        backend.spill_path(container_id).unlink()
        with pytest.raises(ContainerNotFoundError, match="missing or unreadable"):
            store.read_chunks([container_id], [chunk.fingerprint])[0]

    def test_crash_surfaces_through_node_restore(self, tmp_path):
        config = NodeConfig(
            container_capacity=256,
            container_backend="file",
            storage_dir=str(tmp_path),
            container_compression="zlib",
        )
        node = DedupeNode(0, config=config)
        superchunk = superchunk_from_seeds(range(4), length=128)
        node.backup_superchunk(superchunk)
        node.flush()
        node.close()
        # Reopen cold: the node that sealed the containers still holds their
        # part lists in its write-through LRU and would never read the files.
        node = DedupeNode(0, config=config)
        node.recover_storage()
        for name in os.listdir(node.container_backend.storage_dir):
            (node.container_backend.storage_dir / name).write_bytes(b"garbage")
        with pytest.raises(ContainerNotFoundError):
            node.read_chunks([superchunk.chunks[0].fingerprint], [None])[0]


class TestCompressionSelection:
    def test_node_config_selects_compression(self, tmp_path):
        config = NodeConfig(
            container_backend="file",
            storage_dir=str(tmp_path),
            container_compression="zlib",
        )
        node = DedupeNode(0, config=config)
        assert node.container_backend.compression == "zlib"

    def test_env_var_selects_compression(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_CONTAINER_COMPRESSION, "zlib")
        backend = FileContainerBackend(tmp_path)
        assert backend.compression == "zlib"

    def test_unknown_compression_raises_at_construction(self, tmp_path):
        with pytest.raises(CompressionError, match="unknown compression codec"):
            FileContainerBackend(tmp_path, compression="lz77")

    @pytest.mark.parametrize("name", ["zstd", "lz77"])
    def test_refused_codec_leaves_no_directory_behind(self, tmp_path, name):
        storage_dir = tmp_path / "new" / "spill"
        with pytest.raises(CompressionError):
            FileContainerBackend(storage_dir, compression=name)
        assert not (tmp_path / "new").exists()

    def test_framework_roundtrip_with_compression(self, tmp_path):
        framework = SigmaDedupe(
            num_nodes=2,
            storage_dir=str(tmp_path),
            container_compression="zlib",
            node_config=NodeConfig(container_capacity=512),
        )
        assert all(
            node.container_backend.compression == "zlib"
            for node in framework.cluster.nodes
        )
        payload = COMPRESSIBLE * 64
        report = framework.backup([("docs/a.bin", payload)])
        assert framework.restore(report.session_id, "docs/a.bin") == payload
