"""Streamed-vs-buffered ingest equivalence across every layer.

The invariant of the streaming ingest path: a workload ingested as whole
``(path, bytes)`` buffers and the same workload ingested as block iterators
must produce identical fingerprints, routing decisions, recipes and restore
bytes -- streaming only changes *when* bytes flow, never *what* is stored.
"""

import pytest

from repro.chunking.fixed import StaticChunker
from repro.chunking.gear import GearChunker
from repro.cluster.client import BackupClient
from repro.cluster.cluster import DedupeCluster
from repro.cluster.director import Director
from repro.cluster.restore import RestoreManager
from repro.core.framework import SigmaDedupe
from repro.core.partitioner import PartitionerConfig
from repro.parallel.engine import DEFAULT_BATCH_BYTES, DEFAULT_QUEUE_DEPTH
from repro.simulation.comparison import compare_schemes, run_scheme
from repro.simulation.simulator import ClusterSimulator
from repro.routing.sigma import SigmaRouting
from repro.workloads.base import WorkloadFile
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.trace import (
    iter_trace_snapshots,
    materialize_workload,
    trace_statistics,
)
from repro.workloads.versioned_source import VersionedSourceWorkload
from repro.workloads.vm_images import VMBackupWorkload
from tests.helpers import deterministic_bytes, partition


def make_stack(num_nodes=4, chunker=None):
    cluster = DedupeCluster(num_nodes=num_nodes)
    director = Director()
    config = PartitionerConfig(
        chunker=chunker or StaticChunker(256), superchunk_size=2048, handprint_size=4
    )
    client = BackupClient("client", cluster, director, partitioner_config=config)
    restore = RestoreManager(cluster, director)
    return cluster, director, client, restore


def sample_files(count=5, size=3000, seed_base=0):
    return [
        (f"dir/file-{i}.bin", deterministic_bytes(size + i * 41, seed=seed_base + i))
        for i in range(count)
    ]


def as_block_iterators(files, block_size=700):
    """The same files, each payload delivered as a lazy block iterator."""

    def blocks(data):
        for offset in range(0, len(data), block_size):
            yield data[offset:offset + block_size]

    return [(path, blocks(data)) for path, data in files]


def report_stats(report):
    """Every report field that must be ingestion-mode-independent."""
    return (
        report.files_backed_up,
        report.logical_bytes,
        report.transferred_bytes,
        report.unique_chunks,
        report.duplicate_chunks,
        report.superchunks_routed,
        dict(report.per_node_superchunks),
    )


class TestClientStreamedVsBuffered:
    def test_identical_reports_storage_and_restores(self):
        files = sample_files()
        _, _, buffered_client, buffered_restore = make_stack()
        buffered_cluster = buffered_client.cluster
        streamed_stack = make_stack()
        _, _, streamed_client, streamed_restore = streamed_stack
        streamed_cluster = streamed_client.cluster

        buffered_report = buffered_client.backup_files(files)
        streamed_report = streamed_client.backup_files(as_block_iterators(files))

        assert report_stats(buffered_report) == report_stats(streamed_report)
        # Identical per-node storage: same routing, same dedup, same bytes.
        assert buffered_cluster.storage_usages() == streamed_cluster.storage_usages()
        assert (
            buffered_cluster.cluster_deduplication_ratio
            == streamed_cluster.cluster_deduplication_ratio
        )
        for path, original in files:
            assert buffered_restore.restore_file(buffered_report.session_id, path) == original
            assert streamed_restore.restore_file(streamed_report.session_id, path) == original

    def test_second_generation_dedups_identically(self):
        files_v1 = sample_files(seed_base=10)
        files_v2 = [(path, data[:-500] + deterministic_bytes(500, seed=99)) for path, data in files_v1]
        _, _, buffered_client, _ = make_stack()
        _, _, streamed_client, _ = make_stack()

        buffered_client.backup_files(files_v1)
        streamed_client.backup_files(as_block_iterators(files_v1))
        buffered_second = buffered_client.backup_files(files_v2)
        streamed_second = streamed_client.backup_files(as_block_iterators(files_v2))

        assert report_stats(buffered_second) == report_stats(streamed_second)
        assert buffered_second.duplicate_chunks > 0

    def test_odd_block_sizes_do_not_change_results(self):
        files = sample_files(count=3)
        reference = None
        for block_size in (1, 7, 256, 1000, 10_000):
            _, _, client, _ = make_stack()
            report = client.backup_files(as_block_iterators(files, block_size=block_size))
            stats = report_stats(report)
            if reference is None:
                reference = stats
            else:
                assert stats == reference

    def test_cdc_chunker_streamed_matches_buffered(self):
        files = sample_files(count=3, size=9000)
        _, _, buffered_client, _ = make_stack(chunker=GearChunker(average_size=256))
        _, _, streamed_client, _ = make_stack(chunker=GearChunker(average_size=256))
        buffered = buffered_client.backup_files(files)
        streamed = streamed_client.backup_files(as_block_iterators(files, block_size=1234))
        assert report_stats(streamed) == report_stats(buffered)

    def test_identical_files_stored_once(self):
        data = deterministic_bytes(8192, seed=5)
        cluster, _, client, restore = make_stack()
        report = client.backup_files([(f"copy-{i}", data) for i in range(4)])
        assert report.logical_bytes == 4 * len(data)
        assert report.unique_chunks == len(data) // 256
        assert report.duplicate_chunks == 3 * len(data) // 256
        assert sum(cluster.storage_usages()) < 2 * len(data)
        assert restore.restore_file(report.session_id, "copy-3") == data

    def test_storage_starts_before_source_is_exhausted(self):
        """Super-chunks are stored as they fill, not after the whole source
        has been read.  With parallel ingest a lane runs ahead of storage by
        up to ``queue_depth`` batches (plus the one it is filling and the one
        being consumed), so the source is several times that look-ahead."""
        cluster, _, client, _ = make_stack()
        total_blocks = 4 * DEFAULT_BATCH_BYTES * DEFAULT_QUEUE_DEPTH // 1024
        consumed = []

        def blocks():
            for index in range(total_blocks):
                consumed.append(index)
                yield deterministic_bytes(1024, seed=index)

        consumed_at_first_store = []
        original = cluster.backup_superchunk_send

        def spy(superchunk, decision=None):
            if not consumed_at_first_store:
                consumed_at_first_store.append(len(consumed))
            return original(superchunk, decision)

        cluster.backup_superchunk_send = spy
        report = client.backup_stream(blocks(), path="s.bin")
        assert report.logical_bytes == total_blocks * 1024
        assert consumed_at_first_store[0] < total_blocks


class TestBackupStream:
    def test_backup_stream_matches_backup_bytes(self):
        data = deterministic_bytes(10_000, seed=5)
        _, _, stream_client, stream_restore = make_stack()
        _, _, bytes_client, bytes_restore = make_stack()

        stream_report = stream_client.backup_stream(
            iter(data[offset:offset + 512] for offset in range(0, len(data), 512)),
            path="volume.img",
        )
        bytes_report = bytes_client.backup_bytes("volume.img", data)

        assert report_stats(stream_report) == report_stats(bytes_report)
        assert stream_restore.restore_file(stream_report.session_id, "volume.img") == data
        assert bytes_restore.restore_file(bytes_report.session_id, "volume.img") == data

    def test_backup_bytes_threads_stream_id(self):
        data = deterministic_bytes(3000, seed=6)
        cluster, _, client, _ = make_stack()
        partitioned = partition(client.partitioner, data, stream_id=7)
        assert all(sc.stream_id == 7 for sc in partitioned)
        # The client-level wrappers must propagate the same stream id all the
        # way to the routed super-chunks (spied at the cluster boundary so the
        # contract holds for serial and parallel ingest alike).
        seen = []
        original = cluster.backup_superchunk_send

        def spy(superchunk, decision=None):
            seen.append(superchunk.stream_id)
            return original(superchunk, decision)

        cluster.backup_superchunk_send = spy
        client.backup_bytes("a.bin", data, stream_id=7)
        client.backup_stream(iter([data]), path="b.bin", stream_id=9)
        assert sorted(set(seen)) == [7, 9]

    def test_zero_byte_files_restore_even_when_trailing(self):
        # Regression: an empty file at the end of a session (or an
        # empty-only session) must still get a recipe and restore to b"".
        data = deterministic_bytes(2048, seed=44)
        _, _, client, restore = make_stack()
        report = client.backup_files([("real.bin", data), ("empty.bin", b"")])
        assert report.files_backed_up == 2
        assert restore.restore_file(report.session_id, "real.bin") == data
        assert restore.restore_file(report.session_id, "empty.bin") == b""

        _, _, lonely_client, lonely_restore = make_stack()
        lonely = lonely_client.backup_files([("only-empty", b"")])
        assert lonely.files_backed_up == 1
        assert lonely.superchunks_routed == 0
        assert lonely_restore.restore_file(lonely.session_id, "only-empty") == b""

    def test_framework_backup_stream_roundtrip(self):
        framework = SigmaDedupe(num_nodes=2)
        data = deterministic_bytes(50_000, seed=8)
        report = framework.backup_stream(
            iter(data[offset:offset + 4096] for offset in range(0, len(data), 4096)),
            path="stream.bin",
        )
        assert framework.restore(report.session_id, "stream.bin") == data


class TestWorkloadSources:
    def test_source_backed_file_consistency(self):
        payload = deterministic_bytes(5000, seed=31)
        file = WorkloadFile(
            path="lazy.bin",
            source=lambda: iter([payload[:2000], payload[2000:]]),
        )
        assert file.data == payload
        assert file.size == len(payload)
        assert b"".join(file.iter_blocks(block_size=300)) == payload
        assert all(len(block) <= 300 for block in file.iter_blocks(block_size=300))

    def test_size_hint_short_circuits_streaming(self):
        calls = []

        def source():
            calls.append(1)
            return iter([b"abcd"])

        file = WorkloadFile(path="hinted", source=source, size_hint=4)
        assert file.size == 4
        assert not calls  # size came from the hint, the source never ran

    def test_size_of_hintless_source_is_computed_once(self):
        calls = []

        def source():
            calls.append(1)
            return iter([b"ab", b"cde"])

        file = WorkloadFile(path="counted", source=source)
        assert file.size == 5
        assert file.size == 5
        assert len(calls) == 1  # cached after the first streamed count

    def test_data_and_source_are_exclusive(self):
        with pytest.raises(ValueError):
            WorkloadFile(path="bad", data=b"x", source=lambda: iter([b"y"]))

    @pytest.mark.parametrize(
        "workload_factory",
        [
            lambda: SyntheticWorkload(num_generations=2, files_per_generation=3, file_size=8192),
            lambda: VersionedSourceWorkload(num_versions=2, files_per_version=12),
            lambda: VMBackupWorkload(num_backups=2, num_vms=3, base_image_size=16 * 1024),
        ],
    )
    def test_lazy_sources_are_reiterable_and_deterministic(self, workload_factory):
        for snap_a, snap_b in zip(
            workload_factory().snapshots(), workload_factory().snapshots()
        ):
            for file_a, file_b in zip(snap_a.files, snap_b.files):
                assert file_a.path == file_b.path
                # Two independent reads of the same lazy file agree, and a
                # streamed read equals the materialised payload.
                assert file_a.data == file_b.data
                assert b"".join(file_a.iter_blocks(block_size=1024)) == file_a.data

    def test_vm_size_hint_matches_streamed_size(self):
        workload = VMBackupWorkload(num_backups=1, num_vms=3, base_image_size=10_000)
        snapshot = next(iter(workload.snapshots()))
        for file in snapshot.files:
            assert file.size_hint == sum(len(b) for b in file.source())

    def test_describe_is_single_pass_and_consistent(self):
        workload = SyntheticWorkload(num_generations=2, files_per_generation=3, file_size=4096)
        info = workload.describe()
        snapshots = list(workload.snapshots())
        assert info["snapshots"] == len(snapshots)
        assert info["files"] == sum(snapshot.file_count for snapshot in snapshots)
        assert info["logical_bytes"] == sum(snapshot.logical_bytes for snapshot in snapshots)
        assert workload.total_logical_bytes() == info["logical_bytes"]


class TestTraceStreaming:
    def test_iter_trace_snapshots_matches_materialize(self):
        chunker = StaticChunker(1024)
        workload = VMBackupWorkload(num_backups=2, num_vms=2, base_image_size=32 * 1024)
        lazy = list(iter_trace_snapshots(workload, chunker=StaticChunker(1024)))
        eager = materialize_workload(workload, chunker=chunker)
        assert len(lazy) == len(eager)
        for snap_a, snap_b in zip(lazy, eager):
            assert snap_a.label == snap_b.label
            assert [f.path for f in snap_a.files] == [f.path for f in snap_b.files]
            for file_a, file_b in zip(snap_a.files, snap_b.files):
                assert file_a.chunks == file_b.chunks

    def test_trace_statistics_accepts_generator(self):
        workload = SyntheticWorkload(num_generations=2, files_per_generation=2, file_size=8192)
        from_list = trace_statistics(materialize_workload(workload, chunker=StaticChunker(1024)))
        from_gen = trace_statistics(iter_trace_snapshots(workload, chunker=StaticChunker(1024)))
        assert from_gen == from_list


class TestSimulationStreaming:
    def test_simulator_run_accepts_iterator(self):
        workload = SyntheticWorkload(num_generations=3, files_per_generation=3, file_size=8192)
        snapshots = materialize_workload(workload, chunker=StaticChunker(1024))

        from_list = ClusterSimulator(num_nodes=4, routing_scheme=SigmaRouting()).run(snapshots)
        from_iter = ClusterSimulator(num_nodes=4, routing_scheme=SigmaRouting()).run(
            iter_trace_snapshots(workload, chunker=StaticChunker(1024))
        )
        assert from_list.physical_bytes == from_iter.physical_bytes
        assert from_list.logical_bytes == from_iter.logical_bytes
        assert from_list.node_physical_bytes == from_iter.node_physical_bytes
        assert from_list.units_routed == from_iter.units_routed

    def test_run_scheme_accepts_workload(self):
        workload = SyntheticWorkload(num_generations=2, files_per_generation=3, file_size=8192)
        snapshots = materialize_workload(workload)
        from_list = run_scheme(snapshots, "sigma", num_nodes=4)
        from_workload = run_scheme(workload, "sigma", num_nodes=4)
        assert from_list.physical_bytes == from_workload.physical_bytes
        assert from_list.node_physical_bytes == from_workload.node_physical_bytes
        assert (
            from_list.single_node_deduplication_ratio
            == from_workload.single_node_deduplication_ratio
        )

    def test_compare_schemes_accepts_workload(self):
        workload = SyntheticWorkload(num_generations=2, files_per_generation=3, file_size=8192)
        snapshots = materialize_workload(workload)
        from_list = compare_schemes(snapshots, schemes=("sigma", "stateless"), cluster_sizes=(1, 4))
        from_workload = compare_schemes(
            workload, schemes=("sigma", "stateless"), cluster_sizes=(1, 4)
        )
        assert len(from_list) == len(from_workload)
        for result_a, result_b in zip(from_list, from_workload):
            assert result_a.scheme == result_b.scheme
            assert result_a.num_nodes == result_b.num_nodes
            assert result_a.physical_bytes == result_b.physical_bytes
            assert result_a.node_physical_bytes == result_b.node_physical_bytes

    def test_compare_schemes_accepts_one_shot_iterator(self):
        workload = SyntheticWorkload(num_generations=2, files_per_generation=2, file_size=8192)
        snapshots = materialize_workload(workload)
        from_iter = compare_schemes(
            iter(snapshots), schemes=("sigma",), cluster_sizes=(1, 2)
        )
        from_list = compare_schemes(snapshots, schemes=("sigma",), cluster_sizes=(1, 2))
        assert [r.physical_bytes for r in from_iter] == [r.physical_bytes for r in from_list]


class TestEndToEndWorkloadBackup:
    def test_vm_snapshot_streams_through_client_and_restores(self):
        workload = VMBackupWorkload(num_backups=1, num_vms=2, base_image_size=64 * 1024)
        snapshot = next(iter(workload.snapshots()))
        _, _, client, restore = make_stack()
        report = client.backup_files(
            (file.path, file.iter_blocks(block_size=4096)) for file in snapshot.files
        )
        assert report.files_backed_up == len(snapshot.files)
        assert report.logical_bytes == snapshot.logical_bytes
        for file in snapshot.files:
            assert restore.restore_file(report.session_id, file.path) == file.data
