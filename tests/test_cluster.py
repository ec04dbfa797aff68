"""Tests for repro.cluster.cluster (DedupeCluster)."""

import pytest

from repro.cluster.cluster import DedupeCluster
from repro.errors import NodeNotFoundError
from repro.routing.sigma import SigmaRouting
from repro.routing.stateless import StatelessRouting
from tests.helpers import superchunk_from_seeds


class TestConstruction:
    def test_node_count(self):
        assert DedupeCluster(num_nodes=5).num_nodes == 5

    def test_invalid_node_count(self):
        with pytest.raises(ValueError):
            DedupeCluster(num_nodes=0)

    def test_default_routing_is_sigma(self):
        assert isinstance(DedupeCluster(2).routing_scheme, SigmaRouting)

    def test_node_lookup_out_of_range(self):
        cluster = DedupeCluster(2)
        with pytest.raises(NodeNotFoundError):
            cluster.node(5)

    def test_node_ids_sequential(self):
        cluster = DedupeCluster(4)
        assert [node.node_id for node in cluster.nodes] == [0, 1, 2, 3]


class TestBackup:
    def test_backup_superchunk_stores_data(self):
        cluster = DedupeCluster(4)
        superchunk = superchunk_from_seeds(range(10))
        result = cluster.backup_superchunk(superchunk)
        assert result.unique_chunks == 10
        assert cluster.physical_bytes == superchunk.logical_size
        assert cluster.logical_bytes == superchunk.logical_size

    def test_duplicate_superchunk_deduplicated_cluster_wide(self):
        cluster = DedupeCluster(4)
        cluster.backup_superchunk(superchunk_from_seeds(range(10)))
        cluster.backup_superchunk(superchunk_from_seeds(range(10)))
        assert cluster.cluster_deduplication_ratio == pytest.approx(2.0)

    def test_message_accounting(self):
        cluster = DedupeCluster(4)
        superchunk = superchunk_from_seeds(range(10))
        cluster.backup_superchunk(superchunk)
        assert cluster.messages.after_routing == 10
        assert cluster.messages.pre_routing > 0  # sigma queried candidates
        assert cluster.messages.intra_node == 10

    def test_stateless_routing_has_no_pre_routing_messages(self):
        cluster = DedupeCluster(4, routing_scheme=StatelessRouting())
        cluster.backup_superchunk(superchunk_from_seeds(range(10)))
        assert cluster.messages.pre_routing == 0

    def test_route_then_backup_with_explicit_decision(self):
        cluster = DedupeCluster(4)
        superchunk = superchunk_from_seeds(range(10))
        decision = cluster.route_superchunk(superchunk)
        result = cluster.backup_superchunk(superchunk, decision)
        assert result.node_id == decision.target_node

    def test_similar_superchunks_converge_to_same_node(self):
        cluster = DedupeCluster(8)
        first = cluster.backup_superchunk(superchunk_from_seeds(range(50), handprint_size=8))
        second = cluster.backup_superchunk(superchunk_from_seeds(range(50), handprint_size=8))
        assert first.node_id == second.node_id

    def test_flush_seals_all_nodes(self):
        cluster = DedupeCluster(2)
        cluster.backup_superchunk(superchunk_from_seeds(range(5)))
        cluster.flush()
        for node in cluster.nodes:
            for container_id in node.container_store.container_ids():
                assert node.container_store.get(container_id).sealed


class TestClusterViewInterface:
    def test_storage_usages_align_with_nodes(self):
        cluster = DedupeCluster(3)
        superchunk = superchunk_from_seeds(range(10))
        result = cluster.backup_superchunk(superchunk)
        usages = cluster.storage_usages()
        assert usages[result.node_id] == superchunk.logical_size
        assert sum(usages) == superchunk.logical_size

    def test_resemblance_query_delegates_to_node(self):
        cluster = DedupeCluster(2)
        superchunk = superchunk_from_seeds(range(20), handprint_size=8)
        result = cluster.backup_superchunk(superchunk)
        assert cluster.resemblance_query(result.node_id, superchunk.handprint) == 8

    def test_sample_match_count(self):
        cluster = DedupeCluster(2)
        superchunk = superchunk_from_seeds(range(10))
        result = cluster.backup_superchunk(superchunk)
        count = cluster.sample_match_count(result.node_id, superchunk.fingerprints)
        assert count == 10
        other = 1 - result.node_id
        assert cluster.sample_match_count(other, superchunk.fingerprints) == 0

    def test_describe_summary(self):
        cluster = DedupeCluster(2)
        cluster.backup_superchunk(superchunk_from_seeds(range(10)))
        summary = cluster.describe()
        assert summary["num_nodes"] == 2
        assert summary["routing_scheme"] == "sigma"
        assert summary["logical_bytes"] > 0


class TestSampleMatchCountIsReadOnly:
    def test_probe_does_not_pollute_cache_statistics(self):
        cluster = DedupeCluster(2)
        superchunk = superchunk_from_seeds(range(10))
        result = cluster.backup_superchunk(superchunk)
        node = cluster.node(result.node_id)
        hits = node.fingerprint_cache.hits
        misses = node.fingerprint_cache.misses
        assert cluster.sample_match_count(result.node_id, superchunk.fingerprints) == 10
        assert node.fingerprint_cache.hits == hits
        assert node.fingerprint_cache.misses == misses

    def test_probe_without_disk_index_uses_cache_peek(self):
        from repro.node.dedupe_node import NodeConfig

        cluster = DedupeCluster(2, node_config=NodeConfig(enable_disk_index=False))
        superchunk = superchunk_from_seeds(range(10))
        result = cluster.backup_superchunk(superchunk)
        node = cluster.node(result.node_id)
        misses_before = node.fingerprint_cache.misses
        assert cluster.sample_match_count(result.node_id, superchunk.fingerprints) == 10
        assert node.fingerprint_cache.misses == misses_before
