"""Integration tests: BackupClient + Director + RestoreManager round trips."""

import pytest

from repro.chunking.fixed import StaticChunker
from repro.cluster.client import BackupClient
from repro.cluster.cluster import DedupeCluster
from repro.cluster.director import Director
from repro.cluster.restore import RestoreManager
from repro.core.partitioner import PartitionerConfig
from repro.routing.stateless import StatelessRouting
from tests.helpers import deterministic_bytes


def make_stack(num_nodes=4, routing=None, **client_options):
    cluster = DedupeCluster(num_nodes=num_nodes, routing_scheme=routing)
    director = Director()
    config = PartitionerConfig(
        chunker=StaticChunker(256), superchunk_size=2048, handprint_size=4
    )
    client = BackupClient(
        "client-a", cluster, director, partitioner_config=config, **client_options
    )
    restore = RestoreManager(cluster, director)
    return cluster, director, client, restore


def sample_files(seed_base=0, count=5, size=3000):
    return [
        (f"dir/file-{i}.bin", deterministic_bytes(size + i * 37, seed=seed_base + i))
        for i in range(count)
    ]


class TestBackupRestoreRoundtrip:
    @pytest.mark.parametrize(
        "lanes",
        [
            {},
            dict(workers=2, parallel_executor="thread"),
            dict(workers=2, parallel_executor="process"),
        ],
        ids=["serial", "thread-lanes", "process-lanes"],
    )
    def test_every_file_restores_identically(self, lanes):
        _, _, client, restore = make_stack(**lanes)
        files = sample_files()
        report = client.backup_files(files)
        for path, original in files:
            assert restore.restore_file(report.session_id, path) == original

    def test_restore_session_yields_all_files(self):
        _, _, client, restore = make_stack()
        files = sample_files(count=4)
        report = client.backup_files(files)
        restored = dict(restore.restore_session(report.session_id))
        assert restored == dict(files)

    def test_roundtrip_with_stateless_routing(self):
        _, _, client, restore = make_stack(routing=StatelessRouting())
        files = sample_files(seed_base=50)
        report = client.backup_files(files)
        for path, original in files:
            assert restore.restore_file(report.session_id, path) == original

    def test_roundtrip_with_single_node(self):
        _, _, client, restore = make_stack(num_nodes=1)
        files = sample_files(seed_base=77)
        report = client.backup_files(files)
        for path, original in files:
            assert restore.restore_file(report.session_id, path) == original

    def test_multiple_sessions_restore_independently(self):
        _, _, client, restore = make_stack()
        first_files = sample_files(seed_base=1)
        second_files = [(path, data + b"-v2") for path, data in first_files]
        first = client.backup_files(first_files, session_label="v1")
        second = client.backup_files(second_files, session_label="v2")
        assert restore.restore_file(first.session_id, first_files[0][0]) == first_files[0][1]
        assert restore.restore_file(second.session_id, second_files[0][0]) == second_files[0][1]


class TestClientReports:
    def test_logical_bytes_match_input(self):
        _, _, client, _ = make_stack()
        files = sample_files()
        report = client.backup_files(files)
        assert report.logical_bytes == sum(len(data) for _, data in files)

    def test_second_backup_transfers_less(self):
        # Source deduplication: the second identical backup sends almost nothing.
        _, _, client, _ = make_stack()
        files = sample_files()
        first = client.backup_files(files)
        second = client.backup_files(files)
        assert second.transferred_bytes < first.transferred_bytes
        assert second.duplicate_chunks > 0
        assert second.transferred_bytes < 0.1 * second.logical_bytes

    def test_files_backed_up_count(self):
        _, _, client, _ = make_stack()
        report = client.backup_files(sample_files(count=6))
        assert report.files_backed_up == 6

    def test_per_node_superchunk_distribution_sums(self):
        _, _, client, _ = make_stack()
        report = client.backup_files(sample_files(count=8, size=5000))
        assert sum(report.per_node_superchunks.values()) == report.superchunks_routed

    def test_director_recorded_recipes_for_all_files(self):
        _, director, client, _ = make_stack()
        files = sample_files(count=5)
        report = client.backup_files(files)
        assert set(director.files_in_session(report.session_id)) == {p for p, _ in files}
