"""Tests for repro.node.dedupe_node."""

import pytest

from repro.core.superchunk import SuperChunk
from repro.errors import ChunkNotFoundError, StorageError
from repro.node.dedupe_node import DedupeNode, NodeConfig
from tests.helpers import chunk_records_from_seeds, superchunk_from_seeds


class TestBackupSuperchunk:
    def test_first_backup_all_unique(self):
        node = DedupeNode(0)
        superchunk = superchunk_from_seeds(range(10))
        result = node.backup_superchunk(superchunk)
        assert result.unique_chunks == 10
        assert result.duplicate_chunks == 0
        assert node.stats.physical_bytes == superchunk.logical_size

    def test_identical_superchunk_fully_deduplicated(self):
        node = DedupeNode(0)
        superchunk = superchunk_from_seeds(range(10))
        node.backup_superchunk(superchunk)
        result = node.backup_superchunk(superchunk_from_seeds(range(10)))
        assert result.unique_chunks == 0
        assert result.duplicate_chunks == 10
        assert node.stats.physical_bytes == superchunk.logical_size

    def test_partial_overlap(self):
        node = DedupeNode(0)
        node.backup_superchunk(superchunk_from_seeds(range(0, 10)))
        result = node.backup_superchunk(superchunk_from_seeds(range(5, 15)))
        assert result.duplicate_chunks == 5
        assert result.unique_chunks == 5

    def test_intra_superchunk_duplicates(self):
        node = DedupeNode(0)
        records = chunk_records_from_seeds([1, 1, 1, 2])
        superchunk = SuperChunk.from_chunks(records, handprint_size=4)
        result = node.backup_superchunk(superchunk)
        assert result.unique_chunks == 2
        assert result.duplicate_chunks == 2

    def test_chunk_locations_returned_for_every_chunk(self):
        node = DedupeNode(0)
        superchunk = superchunk_from_seeds(range(6))
        result = node.backup_superchunk(superchunk)
        assert set(result.chunk_locations.keys()) == set(superchunk.fingerprints)

    def test_logical_bytes_accumulate(self):
        node = DedupeNode(0)
        a = superchunk_from_seeds(range(5))
        node.backup_superchunk(a)
        node.backup_superchunk(superchunk_from_seeds(range(5)))
        assert node.stats.logical_bytes == 2 * a.logical_size

    def test_deduplication_ratio(self):
        node = DedupeNode(0)
        node.backup_superchunk(superchunk_from_seeds(range(8)))
        node.backup_superchunk(superchunk_from_seeds(range(8)))
        assert node.stats.deduplication_ratio == pytest.approx(2.0)

    def test_similarity_index_learns_handprint(self):
        node = DedupeNode(0)
        superchunk = superchunk_from_seeds(range(20), handprint_size=8)
        node.backup_superchunk(superchunk)
        assert node.resemblance_query(superchunk.handprint) == 8

    def test_storage_usage_tracks_container_store(self):
        node = DedupeNode(0)
        superchunk = superchunk_from_seeds(range(5))
        node.backup_superchunk(superchunk)
        assert node.storage_usage == superchunk.logical_size


class TestSimilarityOnlyMode:
    def test_disk_index_disabled_still_deduplicates_similar_superchunks(self):
        # Without the on-disk chunk index, deduplication relies entirely on the
        # similarity index + container prefetch (the Figure 5(b) ablation).
        config = NodeConfig(enable_disk_index=False)
        node = DedupeNode(0, config=config)
        superchunk = superchunk_from_seeds(range(30), handprint_size=8)
        node.backup_superchunk(superchunk)
        node.flush()
        result = node.backup_superchunk(superchunk_from_seeds(range(30), handprint_size=8))
        assert result.duplicate_chunks == 30

    def test_disk_index_disabled_misses_unrelated_duplicates(self):
        # A duplicate chunk arriving inside a completely dissimilar super-chunk
        # (no handprint overlap) cannot be detected without the disk index,
        # making the scheme approximate -- the expected trade-off.
        config = NodeConfig(enable_disk_index=False, cache_capacity_containers=2)
        node = DedupeNode(0, config=config)
        node.backup_superchunk(superchunk_from_seeds(range(0, 16), handprint_size=4))
        node.flush()
        # Construct a super-chunk with mostly new chunks plus one old chunk;
        # its handprint is unlikely to match, so the shared chunk may be missed.
        mixed = superchunk_from_seeds([0] + list(range(100, 115)), handprint_size=4)
        result = node.backup_superchunk(mixed)
        assert result.unique_chunks >= 15  # at most the one shared chunk deduplicated

    def test_exact_mode_catches_unrelated_duplicates(self):
        node = DedupeNode(0)
        node.backup_superchunk(superchunk_from_seeds(range(0, 16), handprint_size=4))
        node.flush()
        mixed = superchunk_from_seeds([0] + list(range(100, 115)), handprint_size=4)
        result = node.backup_superchunk(mixed)
        assert result.duplicate_chunks == 1


class TestRestore:
    def test_read_chunk_roundtrip(self):
        node = DedupeNode(0)
        superchunk = superchunk_from_seeds(range(5))
        result = node.backup_superchunk(superchunk)
        for chunk in superchunk.chunks:
            container_id = result.chunk_locations[chunk.fingerprint]
            assert node.read_chunks([chunk.fingerprint], [container_id])[0] == chunk.data

    def test_read_chunk_without_container_hint(self):
        node = DedupeNode(0)
        superchunk = superchunk_from_seeds(range(5))
        node.backup_superchunk(superchunk)
        chunk = superchunk.chunks[2]
        assert node.read_chunks([chunk.fingerprint], [None])[0] == chunk.data

    def test_read_unknown_chunk_raises(self):
        node = DedupeNode(0)
        with pytest.raises(ChunkNotFoundError):
            node.read_chunks([b"\x00" * 20], [None])[0]


class TestWithoutReplicaStore:
    """A node outside a replicated cluster mirrors nothing."""

    def test_replica_reads_find_nothing(self):
        node = DedupeNode(0)
        assert node.replica_read(1, [b"\x01" * 20, b"\x02" * 20], [0, 0]) == [None, None]
        assert node.replica_stats() == (0, 0)

    def test_storing_a_replica_raises(self):
        source = DedupeNode(1)
        result = source.backup_superchunk(superchunk_from_seeds(range(5)))
        container_id = next(iter(result.chunk_locations.values()))
        source.flush()
        section = source.export_container(container_id)
        with pytest.raises(StorageError, match="hosts no replica store"):
            DedupeNode(0).store_replica(1, container_id, section)


class TestCounters:
    def test_cache_and_disk_index_counters_move(self):
        node = DedupeNode(0)
        superchunk = superchunk_from_seeds(range(10))
        node.backup_superchunk(superchunk)
        node.backup_superchunk(superchunk_from_seeds(range(10)))
        assert node.stats.intra_node_lookup_messages > 0
        assert node.stats.cache_hits + node.stats.cache_misses > 0

    def test_describe_contains_summary_keys(self):
        node = DedupeNode(3)
        node.backup_superchunk(superchunk_from_seeds(range(4)))
        summary = node.describe()
        assert summary["node_id"] == 3
        assert summary["containers"] >= 1
        assert summary["similarity_index_entries"] > 0

    def test_flush_seals_containers(self):
        node = DedupeNode(0)
        node.backup_superchunk(superchunk_from_seeds(range(4)))
        node.flush()
        for container_id in node.container_store.container_ids():
            assert node.container_store.get(container_id).sealed


class TestRestoreDoesNotPolluteStatistics:
    """Restores are read-only probes: they must not skew backup-path stats."""

    def test_read_chunk_leaves_cache_statistics_untouched(self):
        node = DedupeNode(0)
        superchunk = superchunk_from_seeds(range(5))
        result = node.backup_superchunk(superchunk)
        hits = node.fingerprint_cache.hits
        misses = node.fingerprint_cache.misses
        for fingerprint in superchunk.fingerprints:
            node.read_chunks([fingerprint], [None])[0]
        assert node.fingerprint_cache.hits == hits
        assert node.fingerprint_cache.misses == misses

    def test_read_chunk_leaves_disk_index_counters_untouched(self):
        node = DedupeNode(0)
        superchunk = superchunk_from_seeds(range(5))
        node.backup_superchunk(superchunk)
        lookups = node.disk_index.lookups
        # Read via the disk-index fallback (fingerprint evicted from cache).
        node.fingerprint_cache._containers.clear()
        node.fingerprint_cache._fingerprint_to_container.clear()
        for fingerprint in superchunk.fingerprints:
            assert node.read_chunks([fingerprint], [None])[0]
        assert node.disk_index.lookups == lookups

    def test_read_chunk_does_not_refresh_lru_recency(self):
        config = NodeConfig(cache_capacity_containers=2)
        node = DedupeNode(0, config=config)
        superchunk = superchunk_from_seeds(range(3))
        node.backup_superchunk(superchunk)
        order_before = list(node.fingerprint_cache._containers)
        for fingerprint in superchunk.fingerprints:
            node.read_chunks([fingerprint], [None])[0]
        assert list(node.fingerprint_cache._containers) == order_before
