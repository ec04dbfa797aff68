"""Tests for crash recovery: journal replay, index rebuild, the offline CLI."""

import pytest

from repro.core.superchunk import SuperChunk
from repro.errors import ContainerNotFoundError, RecoveryError, StorageError
from repro.fingerprint.fingerprinter import ChunkRecord
from repro.node.dedupe_node import DedupeNode, NodeConfig
from repro.storage import recovery as recovery_cli
from repro.storage.backends import FileContainerBackend
from repro.storage.journal import MANIFEST_NAME, ManifestJournal, encode_record
from tests.helpers import chunk_records_from_seeds, superchunk_from_seeds


def make_node(tmp_path, node_id: int = 0, **overrides) -> DedupeNode:
    config = NodeConfig(
        container_capacity=2048,
        storage_dir=str(tmp_path),
        container_backend="file",
        **overrides,
    )
    return DedupeNode(node_id, config=config)


def ingest(node: DedupeNode, groups) -> dict:
    """Back up seed groups as super-chunks; returns fingerprint -> payload."""
    expected = {}
    for seeds in groups:
        node.backup_superchunk(superchunk_from_seeds(seeds))
        for record in chunk_records_from_seeds(seeds):
            expected[record.fingerprint] = record.data
    node.flush()
    return expected


class TestBackendReplay:
    def test_clean_directory_replays_to_itself(self, tmp_path):
        node = make_node(tmp_path)
        ingest(node, [[1, 2, 3, 4], [5, 6, 7, 8]])
        spilled = node.container_backend.spilled_containers
        assert spilled >= 2
        node.close()

        backend = FileContainerBackend.recover(tmp_path / "node-0")
        recovery = backend.last_recovery
        assert recovery is not None
        assert len(recovery.containers) == spilled
        assert recovery.records_discarded == 0
        assert recovery.records_dropped == 0
        assert recovery.orphans_removed == []
        for container in recovery.containers:
            assert container.sealed
            for fingerprint in container.fingerprints():
                assert container.read_chunks([fingerprint])[0]
        backend.close()

    def test_torn_journal_tail_discards_last_seal(self, tmp_path):
        node = make_node(tmp_path)
        ingest(node, [[1, 2, 3, 4], [5, 6, 7, 8]])
        spilled = node.container_backend.spilled_containers
        node.close()

        plane = tmp_path / "node-0"
        journal_path = plane / MANIFEST_NAME
        lines = journal_path.read_bytes().splitlines(keepends=True)
        journal_path.write_bytes(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])

        backend = FileContainerBackend.recover(plane)
        recovery = backend.last_recovery
        assert len(recovery.containers) == spilled - 1
        assert recovery.records_discarded == 1
        # The torn record's spill file is now an orphan and was unlinked.
        assert len(recovery.orphans_removed) == 1
        # The journal was truncated back to the valid prefix.
        assert journal_path.read_bytes() == b"".join(lines[:-1])
        backend.close()

    def test_orphan_spill_file_is_removed(self, tmp_path):
        node = make_node(tmp_path)
        ingest(node, [[1, 2, 3, 4]])
        node.close()
        plane = tmp_path / "node-0"
        orphan = plane / "container-00000099.cdata"
        orphan.write_bytes(b"debris")
        stray = plane / "container-notanid.cdata"
        stray.write_bytes(b"junk")

        backend = FileContainerBackend.recover(plane)
        assert sorted(backend.last_recovery.orphans_removed) == [
            orphan.name,
            stray.name,
        ]
        assert not orphan.exists() and not stray.exists()
        backend.close()

    def test_missing_and_truncated_spill_files_drop_records(self, tmp_path):
        node = make_node(tmp_path)
        ingest(node, [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]])
        spilled = node.container_backend.spilled_containers
        assert spilled >= 3
        node.close()
        plane = tmp_path / "node-0"
        files = sorted(plane.glob("container-*.cdata"))
        files[0].unlink()
        files[1].write_bytes(files[1].read_bytes()[:-1])

        backend = FileContainerBackend.recover(plane)
        recovery = backend.last_recovery
        assert recovery.records_dropped == 2
        assert len(recovery.containers) == spilled - 2
        assert not files[1].exists()
        backend.close()

    def test_corrupted_spill_data_detected_by_crc(self, tmp_path):
        node = make_node(tmp_path)
        ingest(node, [[1, 2, 3, 4]])
        node.close()
        plane = tmp_path / "node-0"
        target = sorted(plane.glob("container-*.cdata"))[0]
        data = bytearray(target.read_bytes())
        data[0] ^= 0xFF
        target.write_bytes(bytes(data))  # same size, different content

        # Size-only verification cannot see the flip ...
        backend = FileContainerBackend.recover(plane, verify_data=False)
        assert backend.last_recovery.records_dropped == 0
        assert len(backend.last_recovery.containers) == 1
        backend.close()

        # ... the CRC check drops the record, and the repair rewrites the
        # journal so the next replay is clean rather than re-dropping.
        backend = FileContainerBackend.recover(plane)
        assert backend.last_recovery.records_dropped == 1
        backend.close()
        again = FileContainerBackend.recover(plane)
        assert again.last_recovery.records_dropped == 0
        assert again.last_recovery.containers == []
        again.close()

    def test_recover_sniffs_codec_from_journal(self, tmp_path):
        node = make_node(tmp_path, container_compression="zlib")
        expected = ingest(node, [[1, 1, 1, 1], [2, 2, 2, 2]])
        node.close()

        backend = FileContainerBackend.recover(tmp_path / "node-0")
        assert backend.compression == "zlib"
        for container in backend.last_recovery.containers:
            for fingerprint in container.fingerprints():
                assert container.read_chunks([fingerprint])[0] == expected[fingerprint]
        backend.close()

    def test_codec_mismatch_raises_recovery_error(self, tmp_path):
        node = make_node(tmp_path, container_compression="zlib")
        ingest(node, [[1, 2, 3, 4]])
        node.close()
        with pytest.raises(RecoveryError):
            FileContainerBackend.recover(tmp_path / "node-0", compression="none")

    def test_replay_requires_fresh_backend(self, tmp_path):
        node = make_node(tmp_path)
        ingest(node, [[1, 2, 3, 4]])
        with pytest.raises(RecoveryError):
            node.container_backend.replay_journal()
        node.close()
        backend = FileContainerBackend(tmp_path / "node-0")
        backend.close()
        with pytest.raises(RecoveryError):
            backend.replay_journal()


class TestNodeRecovery:
    def test_rebuilt_node_restores_and_dedupes(self, tmp_path):
        node = make_node(tmp_path)
        expected = ingest(node, [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]])
        node.close()

        revived = make_node(tmp_path)
        recovery = revived.recover_storage()
        assert recovery.recovered_chunks == len(expected)
        counts = revived.container_store.container_count, len(recovery.containers)
        assert counts[0] == counts[1]
        # Byte-identical restores, resolved through the rebuilt chunk index.
        for fingerprint, payload in expected.items():
            assert revived.read_chunks([(fingerprint, None)])[0] == payload
        # The rebuilt indexes still deduplicate: re-ingesting a recovered
        # super-chunk stores zero new chunks.
        result = revived.backup_superchunk(superchunk_from_seeds([1, 2, 3, 4]))
        assert result.duplicate_chunks == result.total_chunks
        revived.close()

    @pytest.mark.parametrize(
        "fingerprints",
        [
            [bytes([value]) * 20 for value in (9, 3, 200, 7, 1, 50, 2, 8)],
            # As integers b"\x01" < b"\x00\x02" < b"\x03" < b"\x00\x00\x05", the
            # reverse of their order as bytes.
            [b"\x01", b"\x00\x02", b"\x03", b"\x00\x00\x05", b"\x09" * 20, b"\x00" * 19 + b"\x04"],
        ],
        ids=["equal_length", "mixed_length"],
    )
    def test_recovered_similarity_index_finds_a_superchunks_whole_handprint(
        self, tmp_path, fingerprints
    ):
        """Recovery reseeds the similarity index with each container's min-k
        by the same order handprinting uses, so a super-chunk that filled a
        container alone resembles it in every representative fingerprint."""
        records = [
            ChunkRecord(fingerprint, 64, 0, bytes([index]) * 64)
            for index, fingerprint in enumerate(fingerprints)
        ]
        superchunk = SuperChunk.from_chunks(records, handprint_size=4)
        node = make_node(tmp_path)
        node.backup_superchunk(superchunk)
        node.flush()
        node.close()

        revived = make_node(tmp_path)
        revived.recover_storage(handprint_size=4)
        assert superchunk.handprint.size == 4
        assert revived.resemblance_query(superchunk.handprint) == 4
        assert len(revived.similarity_index) == 4
        revived.close()

    def test_recovery_requires_empty_store(self, tmp_path):
        node = make_node(tmp_path)
        ingest(node, [[1, 2, 3, 4]])
        node.close()
        revived = make_node(tmp_path)
        revived.recover_storage()
        with pytest.raises(RecoveryError):
            revived.recover_storage()
        revived.close()

    def test_recovery_rejects_memory_backend(self, tmp_path):
        node = DedupeNode(
            0,
            config=NodeConfig(container_capacity=2048, container_backend="memory"),
        )
        with pytest.raises(RecoveryError):
            node.recover_storage()

    def test_rebuild_counts_reported(self, tmp_path):
        node = make_node(tmp_path)
        expected = ingest(node, [[1, 2, 3, 4], [5, 6, 7, 8]])
        node.close()
        revived = make_node(tmp_path)
        revived.recover_storage()
        counts = revived.rebuild_indexes()
        assert counts["chunks"] == len(expected)
        assert counts["containers"] == revived.container_store.container_count
        assert counts["chunk_index_entries"] == len(expected)
        assert counts["similarity_index_entries"] > 0
        revived.close()


class TestBackendLifecycle:
    def test_close_is_idempotent_and_blocks_io(self, tmp_path):
        backend = FileContainerBackend(tmp_path)
        backend.close()
        backend.close()
        with pytest.raises(StorageError):
            backend.on_seal(superchunk_container(tmp_path))

    def test_context_manager_closes(self, tmp_path):
        node = make_node(tmp_path)
        expected = ingest(node, [[1, 2, 3, 4]])
        with node.container_backend as backend:
            fingerprint = next(iter(expected))
            assert node.read_chunks([(fingerprint, None)])[0] == expected[fingerprint]
        with pytest.raises(StorageError):
            node.read_chunks([(fingerprint, None)])[0]

    def test_temporary_directory_removed_on_close(self):
        backend = FileContainerBackend()
        storage_dir = backend.storage_dir
        assert storage_dir.exists()
        backend.close()
        assert not storage_dir.exists()


def superchunk_container(tmp_path):
    """A sealed container stand-in for the closed-backend test (never read)."""
    node = make_node(tmp_path / "donor", node_id=9)
    ingest(node, [[21, 22, 23, 24]])
    container = node.container_store.get(node.container_store.container_ids()[0])
    node.close()
    return container


class TestRecoveryCli:
    def build_tree(self, tmp_path):
        node = make_node(tmp_path, node_id=0)
        ingest(node, [[1, 2, 3, 4], [5, 6, 7, 8]])
        node.close()
        other = make_node(tmp_path, node_id=1)
        ingest(other, [[9, 10, 11, 12]])
        other.close()

    def test_recover_tree_walks_node_planes(self, tmp_path):
        self.build_tree(tmp_path)
        (tmp_path / "node-0" / "container-00000777.cdata").write_bytes(b"x")
        reports = recovery_cli.recover_tree(tmp_path)
        assert [plane.name for plane, _ in reports] == ["node-0", "node-1"]
        assert reports[0][1].orphans_removed == ["container-00000777.cdata"]
        assert all(recovery.containers for _, recovery in reports)

    def test_recover_tree_accepts_single_plane(self, tmp_path):
        self.build_tree(tmp_path)
        reports = recovery_cli.recover_tree(tmp_path / "node-1")
        assert len(reports) == 1

    def test_discover_planes_sees_replica_subdirs(self, tmp_path):
        self.build_tree(tmp_path)
        replica_dir = tmp_path / "node-0" / "replicas"
        replica_dir.mkdir()
        ManifestJournal(replica_dir / MANIFEST_NAME).append_raw(
            encode_record(
                {
                    "v": 1,
                    "container_id": 0,
                    "stream_id": 0,
                    "capacity": 16,
                    "used": 0,
                    "codec": "none",
                    "stored_length": 0,
                    "stored_crc": 0,
                    "chunks": [],
                }
            )
        )
        planes = list(recovery_cli.discover_planes(tmp_path))
        assert replica_dir in planes

    def test_main_reports_and_exits_zero(self, tmp_path, capsys):
        self.build_tree(tmp_path)
        assert recovery_cli.main([str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "node-0" in out and "node-1" in out

    def test_main_errors_on_bad_paths(self, tmp_path, capsys):
        assert recovery_cli.main([str(tmp_path / "missing")]) == 2
        empty = tmp_path / "empty"
        empty.mkdir()
        assert recovery_cli.main([str(empty)]) == 1
