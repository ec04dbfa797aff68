"""High-level facade: configure, back up, restore, inspect.

:class:`SigmaDedupe` wires together the cluster, director, backup clients and
restore manager so downstream users (and the examples) can drive the whole
framework through one object.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import TracebackType
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Type

from repro.chunking import build_chunker
from repro.chunking.base import Chunker
from repro.chunking.fixed import StaticChunker
from repro.cluster.client import (
    DEFAULT_PIPELINE_DEPTH,
    BackupClient,
    ClientBackupReport,
    resolve_lanes,
)
from repro.cluster.cluster import DedupeCluster
from repro.cluster.director import Director
from repro.cluster.handle import NodeRecovery
from repro.cluster.replication import FailoverPolicy
from repro.cluster.restore import RestoreManager
from repro.core.partitioner import FilePayload, PartitionerConfig
from repro.core.superchunk import DEFAULT_SUPERCHUNK_SIZE
from repro.fingerprint.handprint import DEFAULT_HANDPRINT_SIZE
from repro.node.dedupe_node import NodeConfig
from repro.routing import ALL_SCHEMES
from repro.routing.base import RoutingScheme
from repro.storage.compression import codec_status
from repro.errors import ValidationError

NODE_TRANSPORTS = ("inproc", "process")
"""Registered node-plane transports (see :mod:`repro.transport`)."""


@dataclass
class BackupReport:
    """User-facing summary of one backup call."""

    session_id: str
    files: int
    logical_bytes: int
    transferred_bytes: int
    unique_chunks: int
    duplicate_chunks: int
    cluster_deduplication_ratio: float

    @classmethod
    def from_client_report(
        cls, report: ClientBackupReport, cluster: DedupeCluster
    ) -> "BackupReport":
        return cls(
            session_id=report.session_id,
            files=report.files_backed_up,
            logical_bytes=report.logical_bytes,
            transferred_bytes=report.transferred_bytes,
            unique_chunks=report.unique_chunks,
            duplicate_chunks=report.duplicate_chunks,
            cluster_deduplication_ratio=cluster.cluster_deduplication_ratio,
        )


class SigmaDedupe:
    """The Sigma-Dedupe framework as a single configurable object.

    Parameters
    ----------
    num_nodes:
        Number of deduplication server nodes in the cluster.
    routing:
        Routing scheme instance or one of the registered names
        (``"sigma"``, ``"stateless"``, ``"stateful"``, ``"extreme_binning"``,
        ``"chunk_dht"``).
    chunker:
        Chunking algorithm instance or one of the registered names
        (``"static"``, ``"cdc"``, ``"tttd"``, ``"gear"``); defaults to 4 KB
        static chunking.
    superchunk_size / handprint_size:
        Routing-granularity parameters (paper defaults: 1 MB and 8).
    node_config:
        Per-node structural configuration.
    container_backend / storage_dir / container_compression:
        Storage settings, folded into ``node_config`` (a value given here
        wins): the backend (``"memory"`` keeps sealed containers resident,
        ``"file"`` spills their data sections to disk), where disk-backed
        backends write (one ``node-<id>`` subdirectory per node) and the
        spill codec (``"none"`` or ``"zlib"``).
        Unset values resolve through
        :func:`~repro.node.dedupe_node.resolve_container_backend` and
        :func:`~repro.storage.compression.resolve_compression`.
    replication_factor:
        Total copies of every sealed container (1 = no replication); with
        ``N > 1`` restore reads transparently fail over to ring-successor
        replicas when a node is down (see :mod:`repro.cluster.replication`).
    failover_policy:
        Retry/backoff tuning for the failover read path.
    workers:
        Number of parallel ingest lanes for every backup client of this
        framework.  ``None`` defers to the ``REPRO_INGEST_WORKERS``
        environment variable, falling back to serial ingest.  Parallel
        ingest is result-identical to serial ingest; the lanes only fan out
        the chunk+fingerprint front end.
    parallel_executor:
        ``"thread"`` (default) or ``"process"`` lanes; see
        :class:`~repro.parallel.engine.ParallelIngestEngine`.
    pipeline_depth:
        Bounded in-flight store window for every backup client (see
        :class:`~repro.cluster.client.BackupClient`); it only ever fills
        against worker processes, an in-process store being complete at once.
    transport:
        Node-plane transport: ``"inproc"`` (default) keeps every node in
        this process; ``"process"`` hosts each node in its own worker
        process behind the binary RPC protocol of :mod:`repro.transport`
        (results are byte-identical; only the execution substrate changes).

    Every setting is validated here, before any node, worker or directory
    exists.
    """

    def __init__(
        self,
        num_nodes: int = 4,
        routing: "RoutingScheme | str" = "sigma",
        chunker: "Chunker | str | None" = None,
        superchunk_size: int = DEFAULT_SUPERCHUNK_SIZE,
        handprint_size: int = DEFAULT_HANDPRINT_SIZE,
        node_config: Optional[NodeConfig] = None,
        fingerprint_algorithm: str = "sha1",
        container_backend: Optional[str] = None,
        storage_dir: Optional[str] = None,
        container_compression: Optional[str] = None,
        workers: Optional[int] = None,
        parallel_executor: str = "thread",
        pipeline_depth: int = DEFAULT_PIPELINE_DEPTH,
        replication_factor: int = 1,
        failover_policy: Optional[FailoverPolicy] = None,
        transport: str = "inproc",
    ):
        if isinstance(routing, str):
            try:
                routing_scheme = ALL_SCHEMES[routing]()
            except KeyError:
                raise ValidationError(
                    f"unknown routing scheme {routing!r}; expected one of {sorted(ALL_SCHEMES)}"
                ) from None
        else:
            routing_scheme = routing
        if isinstance(chunker, str):
            chunker = build_chunker(chunker)
        if transport not in NODE_TRANSPORTS:
            raise ValidationError(
                f"unknown node transport {transport!r}; expected one of "
                f"{list(NODE_TRANSPORTS)}"
            )
        self.transport = transport
        self._partitioner_config = PartitionerConfig(
            chunker=chunker or StaticChunker(4096),
            superchunk_size=superchunk_size,
            handprint_size=handprint_size,
            fingerprint_algorithm=fingerprint_algorithm,
        )
        self.workers = resolve_lanes(workers, parallel_executor, pipeline_depth)
        self.parallel_executor = parallel_executor
        self.pipeline_depth = pipeline_depth
        # The one place the storage keywords meet node_config; the cluster
        # validates the result and every node infers its backend from it.
        storage: Dict[str, Any] = dict(
            container_backend=container_backend,
            storage_dir=storage_dir,
            container_compression=container_compression,
        )
        config = replace(
            node_config or NodeConfig(),
            **{key: value for key, value in storage.items() if value is not None},
        )
        cluster_type: Type[DedupeCluster] = DedupeCluster
        if transport == "process":
            from repro.transport.cluster import TransportCluster

            cluster_type = TransportCluster
        self.cluster = cluster_type(
            num_nodes,
            node_config=config,
            routing_scheme=routing_scheme,
            replication_factor=replication_factor,
            failover_policy=failover_policy,
        )
        self.director = Director()
        self.restore_manager = RestoreManager(self.cluster, self.director)
        self._clients: Dict[str, BackupClient] = {}

    # ------------------------------------------------------------------ #
    # clients
    # ------------------------------------------------------------------ #

    def client(self, client_id: str = "default") -> BackupClient:
        """Return (creating on first use) the backup client named ``client_id``."""
        if client_id not in self._clients:
            self._clients[client_id] = BackupClient(
                client_id=client_id,
                cluster=self.cluster,
                director=self.director,
                partitioner_config=self._partitioner_config,
                workers=self.workers,
                parallel_executor=self.parallel_executor,
                pipeline_depth=self.pipeline_depth,
            )
        return self._clients[client_id]

    # ------------------------------------------------------------------ #
    # backup / restore
    # ------------------------------------------------------------------ #

    def backup(
        self,
        files: Iterable[Tuple[str, FilePayload]],
        client_id: str = "default",
        session_label: str = "",
    ) -> BackupReport:
        """Back up ``(path, payload)`` pairs as one session and return a summary.

        Payloads may be byte buffers or iterables of byte blocks; block
        payloads stream through the client in bounded memory.
        """
        client = self.client(client_id)
        report = client.backup_files(files, session_label=session_label)
        return BackupReport.from_client_report(report, self.cluster)

    def backup_stream(
        self,
        blocks: Iterable[bytes],
        path: str = "stream",
        client_id: str = "default",
        session_label: str = "",
    ) -> BackupReport:
        """Ingest one (possibly unbounded) block stream as a single object."""
        client = self.client(client_id)
        report = client.backup_stream(blocks, path=path, session_label=session_label)
        return BackupReport.from_client_report(report, self.cluster)

    def restore(self, session_id: str, path: str) -> bytes:
        """Restore one file from a previous backup session."""
        return self.restore_manager.restore_file(session_id, path)

    def iter_restore_file(self, session_id: str, path: str) -> Iterator[bytes]:
        """Stream one file's restored payload chunk-run by chunk-run.

        Reads are batched per (node, container) window like
        :meth:`restore`, but the file is never materialised: payloads are
        yielded in recipe order as each window is verified.
        """
        return self.restore_manager.iter_restore_file(session_id, path)

    def restore_session(self, session_id: str) -> List[Tuple[str, bytes]]:
        """Restore every file of a session as a list of ``(path, data)``."""
        return list(self.restore_manager.restore_session(session_id))

    # ------------------------------------------------------------------ #
    # recovery & lifecycle
    # ------------------------------------------------------------------ #

    def recover_storage(self) -> List[NodeRecovery]:
        """Replay every node's manifest journal and rebuild its indexes.

        The disaster path after a hard kill: construct a fresh framework
        pointed at the surviving ``storage_dir`` (same ``num_nodes`` and
        backend settings), call this, then restore sessions through
        re-imported director recipes (see ``Director.import_session``).
        Per-node results come back as :class:`SpillRecovery` objects
        in-process, or as flat summary dicts over the process transport
        (recovery details stay in the worker).
        """
        return self.cluster.recover_storage(handprint_size=self._partitioner_config.handprint_size)

    def close(self) -> None:
        """Release node backend resources (spill caches, temp directories)."""
        self.cluster.close()

    def __enter__(self) -> "SigmaDedupe":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #

    @property
    def deduplication_ratio(self) -> float:
        return self.cluster.cluster_deduplication_ratio

    def node_storage_usages(self) -> List[int]:
        return self.cluster.storage_usages()

    def describe(self) -> Dict[str, float | str]:
        """Cluster-wide summary, plus ``chunker_backend``: the class of the
        configured chunker, i.e. which scan ``chunker="gear"`` resolved to
        (``AcceleratedGearChunker`` or the ~200x slower pure ``GearChunker``;
        :func:`repro.chunking.accel.kernel_status` gives the reason), and
        ``codec_backend``: what the ``"zlib"`` spill codec runs on
        (:func:`repro.storage.compression.codec_status`'s detail)."""
        return {
            **self.cluster.describe(),
            "chunker_backend": type(self._partitioner_config.chunker).__name__,
            "codec_backend": codec_status()[1],
        }
