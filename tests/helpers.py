"""Test helpers shared across test modules (imported explicitly, not a fixture)."""

from __future__ import annotations

import hashlib
import random
import socket
import threading
from typing import List, Optional, Sequence, Tuple

from repro.cluster.message import MessageCounter
from repro.cluster.recipe import ChunkLocation
from repro.cluster.replication import host_node
from repro.core.partitioner import FilePayload, StreamPartitioner
from repro.core.superchunk import SuperChunk
from repro.fingerprint.fingerprinter import ChunkRecord
from repro.node.dedupe_node import NodeConfig
from repro.transport import NodeProxy, NodeWorker
from repro.workloads.trace import TraceChunk, TraceFile, TraceSnapshot


def deterministic_bytes(length: int, seed: int = 0) -> bytes:
    """Deterministic pseudo-random bytes."""
    return random.Random(seed).randbytes(length)


def fingerprint_of(data: bytes) -> bytes:
    return hashlib.sha1(data).digest()


def synthetic_fingerprint(tag: str) -> bytes:
    """A stable 20-byte fingerprint derived from a string tag."""
    return hashlib.sha1(tag.encode()).digest()


def chunk_records_from_seeds(seeds: Sequence[int], length: int = 512) -> List[ChunkRecord]:
    """Chunk records whose payloads are derived from integer seeds."""
    records = []
    for seed in seeds:
        data = deterministic_bytes(length, seed=seed)
        records.append(ChunkRecord(fingerprint_of(data), len(data), 0, data))
    return records


def superchunk_from_seeds(
    seeds: Sequence[int], handprint_size: int = 8, length: int = 512, stream_id: int = 0
) -> SuperChunk:
    """A super-chunk whose chunk payloads are derived from integer seeds."""
    records = chunk_records_from_seeds(seeds, length=length)
    return SuperChunk.from_chunks(records, handprint_size=handprint_size, stream_id=stream_id)


def partition(
    partitioner: StreamPartitioner, data: FilePayload, stream_id: int = 0
) -> List[SuperChunk]:
    """The super-chunks of one payload, partitioned as a one-file stream."""
    return [
        superchunk
        for superchunk, _contributions in partitioner.partition_files([("f", data)], stream_id)
        if superchunk is not None
    ]


def trace_snapshot_from_tags(
    label: str, files: dict, chunk_length: int = 4096, has_file_metadata: bool = True
) -> TraceSnapshot:
    """Build a trace snapshot from ``{path: [tag, tag, ...]}`` fingerprint tags."""
    trace_files = []
    for path, tags in files.items():
        chunks = [
            TraceChunk(fingerprint=synthetic_fingerprint(str(tag)), length=chunk_length)
            for tag in tags
        ]
        trace_files.append(TraceFile(path=path, chunks=chunks))
    return TraceSnapshot(label=label, files=trace_files, has_file_metadata=has_file_metadata)


def recipe_columns(locations: Sequence[ChunkLocation]) -> Tuple[list, list, list, list]:
    """Rows of chunk locations as a recipe's four columns (fingerprints,
    lengths, node ids, container ids)."""
    return (
        [location.fingerprint for location in locations],
        [location.length for location in locations],
        [location.node_id for location in locations],
        [location.container_id for location in locations],
    )


class ThreadCarrier:
    """Nodes behind the real wire and dispatch code, with no worker process.

    Each node is built in this process and served by
    ``NodeWorker(node).serve`` on a thread, over one end of a socket pair; a
    :class:`~repro.transport.proxy.NodeProxy` wraps the other end.  Takes a
    cluster's keywords; ``handles`` / ``handle(i)`` / ``close()`` are what a
    test drives.
    """

    def __init__(
        self,
        num_nodes: int = 2,
        node_config: Optional[NodeConfig] = None,
        replication_factor: int = 2,
    ):
        self.messages = MessageCounter()
        self.handles: List[NodeProxy] = []
        self._worker_ends: List[socket.socket] = []
        self._threads: List[threading.Thread] = []
        for node_id in range(num_nodes):
            node = host_node(node_id, node_config, replicate=replication_factor > 1)
            proxy_end, worker_end = socket.socketpair()
            thread = threading.Thread(
                target=self._serve, args=(node, worker_end), daemon=True,
                name=f"thread-carrier-{node_id}",
            )
            thread.start()
            self._worker_ends.append(worker_end)
            self._threads.append(thread)
            self.handles.append(NodeProxy(node_id, proxy_end, self.messages))

    @staticmethod
    def _serve(node, worker_end: socket.socket) -> None:
        with worker_end:
            try:
                NodeWorker(node).serve(worker_end)
            finally:
                node.close()

    def handle(self, node_id: int) -> NodeProxy:
        return self.handles[node_id]

    def kill(self, node_id: int) -> None:
        """End node ``node_id``'s serve loop by closing the worker's end, as
        a dead worker process would."""
        self._worker_ends[node_id].shutdown(socket.SHUT_RDWR)
        self._threads[node_id].join(timeout=5.0)
        assert not self._threads[node_id].is_alive()

    def close(self) -> None:
        for handle in self.handles:
            handle.close()
        for thread in self._threads:
            thread.join(timeout=5.0)
            assert not thread.is_alive()
