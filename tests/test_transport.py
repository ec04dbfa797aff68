"""The multiprocess node plane: wire protocol, RPC cluster, crash failover.

Covers the three layers of :mod:`repro.transport`:

* the length-prefixed wire format (header + zero-copy frame trains);
* the :class:`~repro.transport.cluster.TransportCluster` RPC surface against
  live worker processes, including wire-level message accounting and the
  pipelined send path;
* the start path: each worker on one end of a socket pair (any ``TMPDIR``,
  ``fork`` or ``spawn``), one bounded wait for its first answer, and exit
  on EOF;
* the lifecycle acceptance path: a SIGKILLed worker is detected as a lost
  connection, restore reads fail over to ring replicas under the
  :class:`~repro.cluster.replication.FailoverPolicy`, and the restarted
  worker recovers its spill tree and rejoins -- plus deterministic RPC
  drop/delay injection through :class:`~repro.faults.FaultPlan`.
"""

import glob
import multiprocessing
import os
import signal
import socket
import string
import tempfile
import threading
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import DedupeCluster
from repro.cluster.message import MessageType
from repro.core.framework import SigmaDedupe
from repro.errors import (
    CompressionError,
    FingerprintError,
    NodeUnavailableError,
    StorageError,
    TransportError,
    ValidationError,
    WireProtocolError,
)
from repro.faults.plan import FaultPlan, NodeDownWindow
from repro.node.dedupe_node import NodeConfig
from repro.parallel.engine import ENV_INGEST_WORKERS, EXECUTORS
from repro.routing import ALL_SCHEMES
from repro.storage.backends import CONTAINER_BACKENDS, ENV_CONTAINER_BACKEND
from repro.storage.compression import COMPRESSION_CODECS, ENV_CONTAINER_COMPRESSION
from repro.transport import TransportCluster, WorkerSpec, node_worker_main, proxy, wire
from repro.transport import cluster as transport_cluster
from repro.transport.cluster import REAP_TIMEOUT_SECONDS
from repro.utils.hashing import SUPPORTED_ALGORITHMS
from tests.helpers import chunk_records_from_seeds, superchunk_from_seeds


# ------------------------------------------------------------------ #
# wire protocol
# ------------------------------------------------------------------ #


class TestWireProtocol:
    def test_message_round_trip_over_socketpair(self):
        left, right = socket.socketpair()
        try:
            frames = [b"alpha", b"", b"b" * 10_000]
            sent = wire.send_message(left, {"op": "demo", "id": 7}, frames)
            header, received, nbytes = wire.recv_message(right)
            assert header == {"op": "demo", "id": 7}
            assert [bytes(frame) for frame in received] == frames
            encoded = wire.encode_message({"op": "demo", "id": 7}, frames)
            assert sent == nbytes == len(encoded)
        finally:
            left.close()
            right.close()

    def test_back_to_back_trains_larger_than_the_socket_buffer_keep_their_frames(self):
        """Trains of 64 x 4 KiB frames, sent back to back by a concurrent
        sender, each arrive whole: partial reads resume where they stopped
        and never run into the next train."""
        frames = [bytes([index]) * 4096 for index in range(64)]
        left, right = socket.socketpair()
        right.settimeout(30)

        def send_trains():
            for seq in range(8):
                wire.send_message(left, {"seq": seq}, frames)

        sender = threading.Thread(target=send_trains)
        sender.start()
        try:
            for seq in range(8):
                header, received, _ = wire.recv_message(right)
                assert header == {"seq": seq}
                assert len(received) == 64
                assert [bytes(frame) for frame in received] == frames
            sender.join(timeout=30)
            assert not sender.is_alive()
        finally:
            right.close()
            sender.join(timeout=30)
            left.close()

    def test_packed_sequences_round_trip(self):
        items = [b"", b"x", b"fingerprint-20-bytes", b"y" * 300]
        blob, lengths = wire.pack_bytes_seq(items)
        assert wire.unpack_bytes_seq(blob, lengths) == items
        values = [0, 1, 2**40, 2**63]
        assert wire.unpack_u64_seq(wire.pack_u64_seq(values)) == values

    def test_superchunk_frames_round_trip(self):
        records = chunk_records_from_seeds([1, 2, 3], length=128)
        # A routed super-chunk ships duplicate chunks by fingerprint only
        # (data=None): the absent list restores their lengths without bytes.
        records[1] = records[1]._replace(data=None)
        handprint_fps = [records[0].fingerprint, records[2].fingerprint]
        header, frames = wire.encode_superchunk_frames(records, handprint_fps)
        decoded, decoded_hp = wire.decode_superchunk_frames(header, frames)
        assert decoded_hp == handprint_fps
        assert [record.fingerprint for record in decoded] == [
            record.fingerprint for record in records
        ]
        assert [record.length for record in decoded] == [
            record.length for record in records
        ]
        assert decoded[0].data == records[0].data
        assert decoded[1].data is None
        assert decoded[2].data == records[2].data

    def test_error_header_round_trips_taxonomy_class(self):
        header = wire.error_header(NodeUnavailableError("node 3 is dark"))
        assert header == {
            "ok": False,
            "error": "NodeUnavailableError",
            "message": "node 3 is dark",
        }
        with pytest.raises(NodeUnavailableError, match="node 3 is dark"):
            wire.raise_remote_error(header)

    def test_unknown_remote_error_falls_back_to_transport_error(self):
        with pytest.raises(TransportError):
            wire.raise_remote_error(
                {"ok": False, "error": "NotARealError", "message": "?"}
            )

    @pytest.mark.parametrize(
        "header_blob", [b"\xff\xfe", b"{not json", b"[1, 2]"], ids=["utf8", "json", "array"]
    )
    def test_undecodable_header_is_rejected(self, header_blob):
        left, right = socket.socketpair()
        try:
            left.sendall(wire.PREFIX.pack(len(header_blob), 0) + header_blob)
            with pytest.raises(WireProtocolError, match="header"):
                wire.recv_message(right)
        finally:
            left.close()
            right.close()

    def test_packed_sequence_with_trailing_bytes_is_rejected(self):
        blob, lengths = wire.pack_bytes_seq([b"ab", b"cd"])
        with pytest.raises(WireProtocolError):
            wire.unpack_bytes_seq(blob + b"e", lengths)

    def test_superchunk_train_with_a_wrong_chunk_count_is_rejected(self):
        records = chunk_records_from_seeds([1, 2], length=64)
        header, frames = wire.encode_superchunk_frames(records, [records[0].fingerprint])
        with pytest.raises(WireProtocolError, match="fingerprints for 3 chunks"):
            wire.decode_superchunk_frames({**header, "chunk_count": 3}, frames)

    def test_superchunk_train_with_a_stray_payload_frame_is_rejected(self):
        records = chunk_records_from_seeds([1, 2], length=64)
        header, frames = wire.encode_superchunk_frames(records, [records[0].fingerprint])
        with pytest.raises(WireProtocolError, match="payload frames"):
            wire.decode_superchunk_frames(header, [*frames, b"stray"])

    def test_oversized_header_is_rejected(self):
        left, right = socket.socketpair()
        try:
            prefix = wire.PREFIX.pack(wire.MAX_HEADER_BYTES + 1, 0)
            left.sendall(prefix)
            with pytest.raises(WireProtocolError):
                wire.recv_message(right)
        finally:
            left.close()
            right.close()


# ------------------------------------------------------------------ #
# the RPC cluster surface
# ------------------------------------------------------------------ #


@pytest.fixture
def small_cluster():
    cluster = TransportCluster(num_nodes=2)
    yield cluster
    cluster.close()


class TestTransportCluster:
    def test_routing_queries_match_inproc(self, small_cluster):
        inproc = DedupeCluster(num_nodes=2)
        superchunk = superchunk_from_seeds([1, 2, 3, 4], handprint_size=4)
        for cluster in (inproc, small_cluster):
            cluster.backup_superchunk(superchunk)
            cluster.flush()
        fingerprints = [chunk.fingerprint for chunk in superchunk.chunks]
        for node_id in range(2):
            assert small_cluster.resemblance_query(
                node_id, superchunk.handprint
            ) == inproc.resemblance_query(node_id, superchunk.handprint)
            assert small_cluster.sample_match_count(
                node_id, fingerprints
            ) == inproc.sample_match_count(node_id, fingerprints)
            assert small_cluster.node_storage_usage(
                node_id
            ) == inproc.node_storage_usage(node_id)

    def test_wire_accounting_counts_real_messages_and_bytes(self, small_cluster):
        superchunk = superchunk_from_seeds([5, 6, 7], handprint_size=4)
        small_cluster.backup_superchunk(superchunk)
        small_cluster.flush()
        messages = small_cluster.messages
        # Every RPC is two wire messages (request + response), each with
        # nonzero framing bytes; the backup op carries the chunk payloads.
        assert messages.total_wire_messages >= 4
        assert messages.total_wire_bytes > superchunk.logical_size
        assert messages.wire_messages[MessageType.AFTER_ROUTING] == 2
        assert messages.wire_bytes(MessageType.AFTER_ROUTING) > superchunk.logical_size
        assert messages.wire_messages[MessageType.CONTROL] >= 2  # ping + flush
        # The logical dimension stays what the in-process cluster records.
        assert messages.get(MessageType.AFTER_ROUTING) == superchunk.chunk_count

    def test_stats_block_costs_one_exchange_per_node(self, small_cluster):
        # Every reader of the stats block fetches each worker's describe
        # once -- one request and one response per node -- and derives
        # usages and byte totals from that single snapshot.
        small_cluster.backup_superchunk(superchunk_from_seeds([8, 9], handprint_size=4))
        small_cluster.flush()
        messages = small_cluster.messages
        readers = [
            small_cluster.describe,
            small_cluster.node_describes,
            small_cluster.storage_usages,
            lambda: small_cluster.cluster_deduplication_ratio,
            lambda: small_cluster.logical_bytes,
            lambda: small_cluster.physical_bytes,
        ]
        for reader in readers:
            before = messages.total_wire_messages
            reader()
            assert messages.total_wire_messages - before == 2 * small_cluster.num_nodes

    def test_unknown_op_raises_transport_error(self, small_cluster):
        with pytest.raises(TransportError, match="unknown transport op"):
            small_cluster.node_proxies[0].call("no_such_op")

    def test_pipelined_sends_resolve_in_fifo_order(self, small_cluster):
        proxy = small_cluster.node_proxies[0]
        pending = [proxy.send("ping") for _ in range(5)]
        headers = [call.result()[0] for call in pending]
        assert [header["id"] for header in headers] == sorted(
            header["id"] for header in headers
        )

    def test_close_reaps_workers_and_runtime_dir(self):
        cluster = TransportCluster(num_nodes=2)
        processes = [cluster.worker_process(node_id) for node_id in range(2)]
        runtime_dir = cluster._runtime_dir
        cluster.close()
        assert not os.path.exists(runtime_dir)
        for process in processes:
            assert not process.is_alive()
        cluster.close()  # idempotent

    def test_validation(self):
        with pytest.raises(ValidationError):
            TransportCluster(num_nodes=0)
        with pytest.raises(ValidationError):
            TransportCluster(num_nodes=2, replication_factor=3)
        with pytest.raises(ValidationError):
            SigmaDedupe(num_nodes=1, transport="carrier-pigeon")


class TestWorkerExit:
    """A worker ends on its own, with exit code 0, whenever it has no parent
    left to serve -- so ``close`` never waits out the reap escalation."""

    def test_malformed_train_ends_the_worker(self):
        cluster = TransportCluster(num_nodes=2)
        try:
            node_proxy = cluster.node_proxies[0]
            node_proxy._sock.sendall(wire.PREFIX.pack(0xFFFFFFF0, 0))
            with pytest.raises(NodeUnavailableError):
                node_proxy.call("ping")
            cluster.worker_process(0).join(timeout=1.0)
            assert cluster.worker_process(0).exitcode == 0
            assert cluster.node_proxies[1].call("ping")[0]["ok"]
        finally:
            started = time.monotonic()
            cluster.close()
            elapsed = time.monotonic() - started
        assert elapsed < REAP_TIMEOUT_SECONDS / 5

    def test_restarting_a_live_worker_ends_it_on_eof(self):
        # Workers forked after node 0's hold copies of the parent's end of
        # its pair; closing the proxy must still reach node 0 as EOF.
        cluster = TransportCluster(num_nodes=3)
        try:
            old = cluster.worker_process(0)
            started = time.monotonic()
            cluster.restart_node(0, recover=False)
            assert time.monotonic() - started < REAP_TIMEOUT_SECONDS / 5
            assert old.exitcode == 0
            assert cluster.node_proxies[0].call("ping")[0]["ok"]
        finally:
            cluster.close()

    def test_worker_exits_once_the_parent_end_closes(self):
        # The worker closes its inherited copy of the parent's end first:
        # otherwise closing the parent's end would never reach it as EOF.
        parent_end, child_end = socket.socketpair()
        spec = WorkerSpec(node_id=0, node_config=NodeConfig())
        process = multiprocessing.get_context(transport_cluster.START_METHOD).Process(
            target=node_worker_main, args=(spec, child_end, parent_end), daemon=True
        )
        process.start()
        child_end.close()
        with parent_end:
            wire.send_message(parent_end, {"op": "ping", "id": 0})
            assert wire.recv_message(parent_end)[0]["ok"]
        process.join(timeout=REAP_TIMEOUT_SECONDS)
        if process.is_alive():
            process.kill()
            process.join()
        assert process.exitcode == 0


fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="patches host_node in the parent for a forked child",
)


def hang(*args, **kwargs):
    time.sleep(60)


def fail(*args, **kwargs):
    raise RuntimeError("node cannot be built")


class TestWorkerStart:
    """Each worker gets one end of a socket pair: no socket path to outgrow,
    and one bounded wait, for the first ``ping``, before a start fails."""

    def test_long_tempdir_backs_up_and_restores(self, tmp_path, monkeypatch):
        long_dir = tmp_path / ("d" * 100)
        long_dir.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(long_dir))
        files = [("a", bytes(range(256)) * 64), ("b", b"sigma" * 5000)]
        with SigmaDedupe(num_nodes=2, transport="process", container_backend="file") as framework:
            assert framework.cluster._runtime_dir.startswith(str(long_dir))
            session_id = framework.backup(files).session_id
            assert framework.restore_session(session_id) == files

    @fork_only
    def test_hung_worker_fails_start_within_the_deadline(self, monkeypatch):
        monkeypatch.setattr("repro.cluster.replication.host_node", hang)
        monkeypatch.setattr(proxy, "START_TIMEOUT_SECONDS", 0.5)
        started = time.monotonic()
        with pytest.raises(TransportError, match="node 0"):
            TransportCluster(num_nodes=2)
        assert time.monotonic() - started < 0.5 + 1.0
        assert not workers_alive()

    @fork_only
    def test_failed_worker_fails_start_at_once(self, monkeypatch):
        monkeypatch.setattr("repro.cluster.replication.host_node", fail)
        started = time.monotonic()
        with pytest.raises(TransportError, match="node 0"):
            TransportCluster(num_nodes=2)
        assert time.monotonic() - started < proxy.START_TIMEOUT_SECONDS / 3
        assert not workers_alive()

    def test_spawned_workers_back_up_restore_and_restart(self, tmp_path, monkeypatch):
        monkeypatch.setattr(transport_cluster, "START_METHOD", "spawn")
        cluster = TransportCluster(
            num_nodes=2, node_config=spill_config(tmp_path), replication_factor=2
        )
        try:
            assert cluster._mp_context.get_start_method() == "spawn"
            stored = ingest_tracked(cluster, [[1, 2, 3, 4], [5, 6, 7, 8]])

            def read_back():
                for node_id in range(2):
                    requests, expected = reads_of(stored, node_id)
                    assert cluster.read_chunks(node_id, requests) == expected

            read_back()
            victim = next(iter(stored.values()))[0]
            assert cluster.restart_node(victim)["recovered_chunks"] > 0
            read_back()
            assert cluster.replication.failover_reads == 0
        finally:
            cluster.close()


def workers_alive():
    return [
        child
        for child in multiprocessing.active_children()
        if child.name.startswith("repro-node-worker")
    ]


# ------------------------------------------------------------------ #
# Strategies: one bad setting each, with the typed error it must raise
# ------------------------------------------------------------------ #


def names_outside(legal):
    """Setting values drawn from outside ``legal``."""
    return st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=8).filter(
        lambda name: name not in legal
    )


def keyword(name, values, error):
    return values.map(lambda value: ({name: value}, {}, error))


def environment(variable, values, error):
    return values.map(lambda value: ({}, {variable: value}, error))


rejected_settings = st.one_of(
    keyword("routing", names_outside(ALL_SCHEMES), ValidationError),
    keyword("parallel_executor", names_outside(EXECUTORS), ValidationError),
    keyword("fingerprint_algorithm", names_outside(SUPPORTED_ALGORITHMS), FingerprintError),
    keyword("container_backend", names_outside(CONTAINER_BACKENDS), StorageError),
    keyword("container_compression", names_outside(COMPRESSION_CODECS), CompressionError),
    keyword("num_nodes", st.integers(max_value=0), ValidationError),
    keyword("workers", st.integers(max_value=0), ValidationError),
    keyword("pipeline_depth", st.integers(max_value=0), ValidationError),
    keyword(
        "replication_factor",
        st.integers(max_value=0) | st.integers(min_value=3),
        ValidationError,
    ),
    environment(
        ENV_INGEST_WORKERS,
        st.integers(max_value=0).map(str) | st.text(string.ascii_letters, min_size=1),
        ValidationError,
    ),
    environment(ENV_CONTAINER_BACKEND, names_outside(CONTAINER_BACKENDS), StorageError),
    environment(ENV_CONTAINER_COMPRESSION, names_outside(COMPRESSION_CODECS), CompressionError),
)


@pytest.mark.parametrize("cluster_type", [DedupeCluster, TransportCluster])
@given(rejected=rejected_settings)
@settings(max_examples=60, deadline=None)
def test_rejected_config_leaves_nothing_behind(cluster_type, rejected):
    """Every setting is checked before any node, worker or directory exists:
    a bad value raises its typed error from ``SigmaDedupe(...)`` and leaves
    the storage dir empty, no runtime dir and no worker behind."""
    keywords, environ, error = rejected
    runtime_dirs = os.path.join(tempfile.gettempdir(), "repro-transport-*")
    before = set(glob.glob(runtime_dirs))
    with tempfile.TemporaryDirectory() as storage_dir, mock.patch.dict(os.environ, environ):
        settings_ = dict(
            num_nodes=2, storage_dir=storage_dir, transport=cluster_type.transport
        )
        with pytest.raises(error):
            SigmaDedupe(**{**settings_, **keywords})
        assert os.listdir(storage_dir) == []
    assert set(glob.glob(runtime_dirs)) == before
    assert not workers_alive()


# ------------------------------------------------------------------ #
# crash, failover, restart: the lifecycle acceptance path
# ------------------------------------------------------------------ #


def spill_config(tmp_path):
    return NodeConfig(
        container_capacity=4096, container_backend="file", storage_dir=str(tmp_path)
    )


def ingest_tracked(cluster, seeds_groups, length=256):
    """Back up super-chunks and track (node, container, data) per chunk."""
    stored = {}
    for seeds in seeds_groups:
        superchunk = superchunk_from_seeds(
            seeds, handprint_size=4, length=length
        )
        result = cluster.backup_superchunk(superchunk)
        for chunk in superchunk.chunks:
            stored[chunk.fingerprint] = (
                result.node_id,
                result.chunk_locations[chunk.fingerprint],
                chunk.data,
            )
    cluster.flush()
    return stored


def reads_of(stored, node_id):
    """The ``(fingerprint, container id)`` requests for ``node_id``'s tracked
    chunks, and the data they must return."""
    mine = [(fingerprint, value) for fingerprint, value in stored.items() if value[0] == node_id]
    return (
        [(fingerprint, value[1]) for fingerprint, value in mine],
        [value[2] for _fingerprint, value in mine],
    )


class TestWorkerCrashFailover:
    def test_sigkill_worker_failover_and_restart_recovers(self, tmp_path):
        """The ISSUE's acceptance scenario: kill -9 a worker mid-session,
        reads fail over to replicas, the worker restarts, recovers its spill
        tree via the journal and serves direct reads again."""
        cluster = TransportCluster(
            num_nodes=3,
            node_config=spill_config(tmp_path),
            replication_factor=2,
        )
        try:
            stored = ingest_tracked(
                cluster, [[index * 10 + offset for offset in range(6)] for index in range(8)]
            )
            victim = next(
                node_id
                for node_id in range(3)
                if any(entry[0] == node_id for entry in stored.values())
            )
            victim_requests = [
                (fingerprint, container_id)
                for fingerprint, (node_id, container_id, _data) in stored.items()
                if node_id == victim
            ]
            expected = [
                data
                for _fingerprint, (node_id, _container_id, data) in stored.items()
                if node_id == victim
            ]

            os.kill(cluster.worker_process(victim).pid, signal.SIGKILL)
            cluster.worker_process(victim).join(timeout=10)
            assert not cluster.worker_process(victim).is_alive()

            # Reads against the dead worker transparently fail over.
            assert cluster.read_chunks(victim, victim_requests) == expected
            assert cluster.replication.failover_reads == len(expected)

            # Restart over the same storage dir: journal replay brings the
            # node's containers back, then direct reads serve again.
            summary = cluster.restart_node(victim)
            assert summary["containers"] > 0
            assert summary["recovered_chunks"] > 0
            assert cluster.worker_process(victim).is_alive()
            assert cluster.read_chunks(victim, victim_requests) == expected
            # Failover count unchanged: the post-restart reads were direct.
            assert cluster.replication.failover_reads == len(expected)
        finally:
            cluster.close()

    def test_sigkill_without_replicas_raises_node_unavailable(self, tmp_path):
        cluster = TransportCluster(
            num_nodes=2,
            node_config=spill_config(tmp_path),
        )
        try:
            stored = ingest_tracked(cluster, [[1, 2, 3], [4, 5, 6]])
            victim = next(iter(stored.values()))[0]
            os.kill(cluster.worker_process(victim).pid, signal.SIGKILL)
            cluster.worker_process(victim).join(timeout=10)
            requests = [
                (fingerprint, value[1])
                for fingerprint, value in stored.items()
                if value[0] == victim
            ]
            with pytest.raises(NodeUnavailableError):
                cluster.read_chunks(victim, requests)
        finally:
            cluster.close()

    def test_marked_down_node_fails_over_and_recovers_on_up(self, tmp_path):
        cluster = TransportCluster(
            num_nodes=3,
            node_config=spill_config(tmp_path),
            replication_factor=2,
        )
        try:
            stored = ingest_tracked(cluster, [[7, 8, 9], [10, 11, 12], [13, 14, 15]])
            victim = next(iter(stored.values()))[0]
            requests = [
                (fingerprint, value[1])
                for fingerprint, value in stored.items()
                if value[0] == victim
            ]
            expected = [
                value[2] for value in stored.values() if value[0] == victim
            ]
            cluster.mark_node_down(victim)
            assert cluster.read_chunks(victim, requests) == expected
            assert cluster.replication.failover_reads == len(expected)
            cluster.mark_node_up(victim)
            assert cluster.read_chunks(victim, requests) == expected
            assert cluster.replication.failover_reads == len(expected)
        finally:
            cluster.close()


# ------------------------------------------------------------------ #
# deterministic RPC fault injection
# ------------------------------------------------------------------ #


class TestTransportFaults:
    def test_drop_rpc_is_retried_deterministically(self, tmp_path):
        cluster = TransportCluster(
            num_nodes=2,
            node_config=spill_config(tmp_path),
        )
        try:
            stored = ingest_tracked(cluster, [[21, 22, 23], [24, 25, 26]])
            node_id = next(iter(stored.values()))[0]
            requests = [
                (fingerprint, value[1])
                for fingerprint, value in stored.items()
                if value[0] == node_id
            ]
            expected = [
                value[2] for value in stored.values() if value[0] == node_id
            ]
            # RPC 1 is dropped before it is sent; the bounded-retry plane
            # resends it as RPC 2, which succeeds.  RPC 2 also carries an
            # injected delay, exercising the slow-link path.
            plan = FaultPlan(drop_rpc=[1], delay_rpc=[(2, 0.01)])
            assert plan.install(cluster) == 1
            assert cluster.read_chunks(node_id, requests) == expected
            assert plan.rpcs_seen == 2
            assert plan.dropped_rpcs == 1
            cluster.install_fault_hook(None)
        finally:
            cluster.close()

    def test_all_rpcs_dropped_fails_over_to_replicas(self, tmp_path):
        cluster = TransportCluster(
            num_nodes=3,
            node_config=spill_config(tmp_path),
            replication_factor=2,
        )
        try:
            stored = ingest_tracked(cluster, [[31, 32, 33], [34, 35, 36]])
            node_id = next(iter(stored.values()))[0]
            requests = [
                (fingerprint, value[1])
                for fingerprint, value in stored.items()
                if value[0] == node_id
            ]
            expected = [
                value[2] for value in stored.values() if value[0] == node_id
            ]
            # Drop every direct-read attempt (max_retries=2 means 3 sends);
            # the batch must still be served -- from the replica chain.
            plan = FaultPlan(drop_rpc=[1, 2, 3])
            plan.install(cluster)
            assert cluster.read_chunks(node_id, requests) == expected
            assert plan.dropped_rpcs == 3
            assert cluster.replication.failover_reads == len(expected)
        finally:
            cluster.close()

    def test_nodes_down_window_routes_reads_to_replicas(self, tmp_path):
        cluster = TransportCluster(
            num_nodes=3,
            node_config=spill_config(tmp_path),
            replication_factor=2,
        )
        try:
            stored = ingest_tracked(cluster, [[41, 42, 43], [44, 45, 46]])
            node_id = next(iter(stored.values()))[0]
            requests = [
                (fingerprint, value[1])
                for fingerprint, value in stored.items()
                if value[0] == node_id
            ]
            expected = [
                value[2] for value in stored.values() if value[0] == node_id
            ]
            plan = FaultPlan(
                node_down_windows=[NodeDownWindow(node_id=node_id, start_op=0, end_op=1)]
            )
            plan.install(cluster)
            # Op 0: inside the window -> replica reads.  Op 1: window over,
            # direct reads resume against the (healthy) worker.
            assert cluster.read_chunks(node_id, requests) == expected
            assert cluster.replication.failover_reads == len(expected)
            assert cluster.read_chunks(node_id, requests) == expected
            assert cluster.replication.failover_reads == len(expected)
        finally:
            cluster.close()
