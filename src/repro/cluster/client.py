"""The backup client: source-side partitioning, fingerprinting and routing.

"There are three main functional modules in a backup client: data
partitioning, chunk fingerprinting and data routing ...  the backup clients
determine whether a chunk is duplicate or not by batching chunk fingerprint
query in the deduplication node at the super-chunk level before data chunk
transfer, and only the unique data chunks are transferred over the network."
(paper Section 3.1)
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.cluster.cluster import DedupeCluster, PendingStore
from repro.cluster.director import Director
from repro.cluster.recipe import ChunkLocation
from repro.core.partitioner import FilePayload, PartitionerConfig, StreamPartitioner
from repro.core.superchunk import SuperChunk
from repro.fingerprint.fingerprinter import ChunkRecord
from repro.errors import ValidationError
from repro.parallel.engine import EXECUTORS, ParallelIngestEngine, resolve_workers

_new_location = partial(tuple.__new__, ChunkLocation)  # positional, no keyword matching

DEFAULT_PIPELINE_DEPTH = 4
"""How many super-chunk stores may be in flight (sent, not yet settled) at
once.  Per-node in-order dispatch keeps any depth byte-identical to serial;
4 is deep enough to keep every worker of a small cluster busy without
unbounded settle latency."""


def resolve_lanes(
    workers: Optional[int], parallel_executor: str, pipeline_depth: int
) -> int:
    """Validate a client's lane settings and return its lane count
    (``workers``, else ``REPRO_INGEST_WORKERS``, else 1)."""
    if pipeline_depth < 1:
        raise ValidationError(f"pipeline_depth must be >= 1, got {pipeline_depth}")
    if parallel_executor not in EXECUTORS:
        raise ValidationError(
            f"parallel_executor must be one of {list(EXECUTORS)}, got {parallel_executor!r}"
        )
    return resolve_workers(workers)


@dataclass
class ClientBackupReport:
    """What one backup session transferred and saved."""

    session_id: str
    files_backed_up: int = 0
    logical_bytes: int = 0
    transferred_bytes: int = 0
    unique_chunks: int = 0
    duplicate_chunks: int = 0
    superchunks_routed: int = 0
    per_node_superchunks: Dict[int, int] = field(default_factory=dict)

    @property
    def bandwidth_saved_bytes(self) -> int:
        """Bytes that did not cross the network thanks to source deduplication."""
        return self.logical_bytes - self.transferred_bytes

    @property
    def bandwidth_saving_ratio(self) -> float:
        if self.logical_bytes == 0:
            return 0.0
        return self.bandwidth_saved_bytes / self.logical_bytes


class BackupClient:
    """A source-deduplicating backup client attached to a cluster and director.

    Parameters
    ----------
    client_id:
        Identifier used in backup sessions.
    cluster:
        The deduplication server cluster to back up to.
    director:
        The director that tracks sessions and file recipes.
    partitioner_config:
        Chunking / super-chunk / handprint configuration.
    workers:
        Number of parallel ingest lanes for this client's backups.
        ``None`` defers to the ``REPRO_INGEST_WORKERS`` environment variable,
        falling back to serial ingest.  Parallel ingest produces results
        byte-identical to serial ingest (same reports, statistics and
        restores): worker lanes only fan out the chunk+fingerprint front end,
        while super-chunks are re-sequenced in stream order before routing.
    parallel_executor:
        Lane execution model when ``workers > 1``: ``"thread"`` (default;
        the accelerated chunkers and ``hashlib`` release the GIL) or
        ``"process"`` (shared-memory slab lanes that also escape the GIL for
        the per-chunk Python bookkeeping).
    pipeline_depth:
        Bounded in-flight window: up to this many super-chunk stores stay
        unsettled while later super-chunks are routed.  Per-node in-order
        dispatch makes any depth byte-identical to depth 1; only wall-clock
        changes.  An in-process store is complete when it is sent, so the
        window never holds more than that one.
    """

    def __init__(
        self,
        client_id: str,
        cluster: DedupeCluster,
        director: Director,
        partitioner_config: Optional[PartitionerConfig] = None,
        workers: Optional[int] = None,
        parallel_executor: str = "thread",
        pipeline_depth: int = DEFAULT_PIPELINE_DEPTH,
    ):
        self.workers = resolve_lanes(workers, parallel_executor, pipeline_depth)
        self.client_id = client_id
        self.cluster = cluster
        self.director = director
        self.partitioner = StreamPartitioner(partitioner_config)
        self.parallel_executor = parallel_executor
        self.pipeline_depth = pipeline_depth

    def _partition(
        self, files: Iterable[Tuple[str, FilePayload]], stream_id: int
    ) -> Iterator[Tuple[Optional[SuperChunk], List[Tuple[str, List[ChunkRecord]]]]]:
        """The session's ``(superchunk, contributions)`` source: the serial
        partitioner, or the parallel engine when more than one lane is asked
        for (identical output either way)."""
        if self.workers <= 1:
            return self.partitioner.partition_files(files, stream_id=stream_id)
        # Direct lane->wire hand-off: shared-memory process lanes may hand
        # payloads over as zero-copy memoryview slices of their slabs, all
        # the way to sendmsg, unless the cluster's nodes keep the payload
        # objects they are given (then the lanes must copy out to bytes).
        hand_off = (
            self.parallel_executor == "process" and not self.cluster.retains_payloads
        )
        engine = ParallelIngestEngine(
            workers=self.workers,
            executor=self.parallel_executor,
            payload_views=hand_off,
        )
        return engine.partition_files(self.partitioner.config, files, stream_id=stream_id)

    def backup_files(
        self,
        files: Iterable[Tuple[str, FilePayload]],
        session_label: str = "",
        stream_id: int = 0,
    ) -> ClientBackupReport:
        """Back up ``(path, payload)`` files as one backup session.

        Each payload may be a whole byte buffer or an iterable of byte blocks.
        Either way the session is processed as one block stream end-to-end:
        super-chunks are routed, deduplicated and their recipes recorded as
        soon as they fill, so peak client memory is O(one super-chunk) --
        independent of file sizes -- rather than O(largest file).

        With ``workers > 1`` the chunk+fingerprint front end runs across
        that many parallel lanes in O(lanes x super-chunk) memory; the
        results are identical to serial ingest in every observable (reports,
        per-node statistics, recipes, restored bytes).

        Returns a :class:`ClientBackupReport` with transfer statistics; file
        recipes are recorded with the director so files can be restored.
        """
        session = self.director.open_session(self.client_id, label=session_label)
        report = ClientBackupReport(session_id=session.session_id)

        # The loop runs a bounded in-flight window of ``pipeline_depth``
        # stores: super-chunks k+1..k+K are routed (their lookups answered by
        # each node in order, i.e. after k's store on the same target) while
        # k's store executes, and stores bound for *different* worker
        # processes genuinely overlap each other.  A store that is already
        # complete is settled at once, so nothing but wall-clock depends on
        # the depth.
        window: Deque[
            Tuple[SuperChunk, List[Tuple[str, List[ChunkRecord]]], PendingStore]
        ] = deque()

        def settle_oldest() -> None:
            superchunk, contributions, store = window.popleft()
            result = store.result()
            target_node = store.decision.target_node
            report.superchunks_routed += 1
            report.logical_bytes += superchunk.logical_size
            report.unique_chunks += result.unique_chunks
            report.duplicate_chunks += result.duplicate_chunks
            # Source dedup: only unique chunk payloads cross the network.
            report.transferred_bytes += result.unique_bytes
            report.per_node_superchunks[target_node] = (
                report.per_node_superchunks.get(target_node, 0) + 1
            )

            container_of = result.chunk_locations.get
            for path, records in contributions:
                # One location per chunk, built positionally: (fingerprint,
                # length, node_id, container_id).
                locations: List[ChunkLocation] = [
                    _new_location(
                        (record.fingerprint, record.length, target_node,
                         container_of(record.fingerprint))
                    )
                    for record in records
                ]
                self.director.record_file_chunks(session.session_id, path, locations)

        def drain_window() -> None:
            while window:
                settle_oldest()

        for superchunk, contributions in self._partition(files, stream_id):
            if superchunk is None:
                # Trailing zero-byte files with no super-chunk to ride on:
                # nothing to route, but their (empty) recipes must exist --
                # after every in-flight super-chunk, to keep recipe order.
                drain_window()
                for path, _records in contributions:
                    self.director.record_file_chunks(session.session_id, path, [])
                continue
            decision = self.cluster.route_superchunk(superchunk)
            while len(window) >= self.pipeline_depth:
                settle_oldest()
            window.append(
                (
                    superchunk,
                    contributions,
                    self.cluster.backup_superchunk_send(superchunk, decision),
                )
            )
            while window and window[0][2].done:
                settle_oldest()
        drain_window()

        report.files_backed_up = session.file_count
        self.cluster.flush()
        self.director.close_session(session.session_id)
        return report

    def backup_bytes(
        self,
        path: str,
        data: bytes,
        session_label: str = "",
        stream_id: int = 0,
    ) -> ClientBackupReport:
        """Convenience wrapper to back up a single in-memory object."""
        return self.backup_files(
            [(path, data)], session_label=session_label, stream_id=stream_id
        )

    def backup_stream(
        self,
        blocks: Iterable[bytes],
        path: str = "stream",
        session_label: str = "",
        stream_id: int = 0,
    ) -> ClientBackupReport:
        """Ingest a single (possibly unbounded) block stream as one object.

        The stream is chunked, fingerprinted, grouped and routed incrementally;
        nothing upstream of one super-chunk is buffered, so streams far larger
        than memory can be backed up.  The stream is recorded under ``path``
        and restores like any other file.  A single stream cannot fan out
        across lanes, but ``workers > 1`` still pipelines: a lane chunks and
        fingerprints while this thread routes and stores (``workers=1`` stays
        fully serial, like every other backup call).
        """
        return self.backup_files(
            [(path, blocks)], session_label=session_label, stream_id=stream_id
        )
