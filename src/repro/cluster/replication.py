"""Container replication to successor nodes, and the failover read path.

With ``DedupeCluster(replication_factor=N)`` every sealed container is
mirrored to the ``N-1`` ring successors of its owner (node ``i`` mirrors to
``i+1 .. i+N-1`` mod cluster size).  Placement is **handprint-stable**:
routing still assigns super-chunks by handprint resemblance exactly as
before, and replicas are a pure shadow copy -- they never answer resemblance
queries, never enter the similarity index, and never affect deduplication or
load-balance statistics.  What they buy is availability: when a primary
cannot serve a restore read (marked down, dark in a fault window, or raising
storage errors), :class:`ReplicationManager.read_chunks_failover` walks the
successor chain and serves the bytes from the first replica that holds them.

Transparent re-dispatch of work from failed members to survivors follows the
distributed-middleware failure model of arXiv:0908.2958 (see PAPERS.md);
the deterministic mirror placement keeps recovery reasoning simple.

**What moves is the stored section, unchanged.**  A mirror is one
:meth:`DedupeNode.export_container <repro.node.dedupe_node.DedupeNode.export_container>`
on the origin and one
:meth:`~repro.node.dedupe_node.DedupeNode.store_replica` per successor, and
the :class:`~repro.storage.container.StoredSection` between them is the
container as the origin stores it: on file-backed clusters the spill file's
bytes (compressed or not) with the CRC recorded at seal time, which the
successor checks, writes verbatim as its own spill file under the node's
``replicas/`` subdirectory and journals -- no decompression, no
recompression, no payload load on the primary; on memory-backed clusters the
contiguous section under codec ``"none"``, adopted as a resident clone.  The
manager reaches both calls through the cluster's node handles
(:mod:`repro.cluster.handle`) and never looks inside what an export
returned, so over the process transport the origin worker's response
(header and frames) is forwarded to each successor as it arrived.

The replica plane is *reconstructible* state, not durable state: after a
crash, ``recover_storage`` re-mirrors every recovered primary seal, and
installing a :class:`ReplicaStore` over a surviving directory first clears
whatever spill files the previous process left there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple, cast

from repro.cluster.handle import check_reply
from repro.errors import NodeUnavailableError, RpcDroppedError, ValidationError
from repro.node.dedupe_node import DedupeNode, NodeConfig
from repro.storage.backends import (
    ContainerBackend,
    FileContainerBackend,
    InMemoryBackend,
)
from repro.storage.container import Container, StoredSection, read_in_runs
from repro.storage.journal import MANIFEST_NAME
from repro.utils.guarded_lock import GuardLock, guarded_lock

if TYPE_CHECKING:
    from repro.cluster.cluster import DedupeCluster
    from repro.cluster.handle import NodeHandle

REPLICA_ID_STRIDE = 1 << 40
"""Spill-id stride separating replica namespaces per origin node: a replica
of container ``c`` from origin ``o`` spills as id ``o * STRIDE + c`` in the
successor's replica backend, so one replica directory (and one manifest
journal) serves every predecessor without id collisions."""

REPLICA_SUBDIR = "replicas"
"""Subdirectory of a node's storage dir holding its replica spill plane."""


@dataclass(frozen=True)
class FailoverPolicy:
    """Bounded-retry-with-backoff policy for primary reads.

    A retryable storage error (missing/truncated/injected-faulty spill read)
    is retried ``max_retries`` times with exponentially growing sleeps
    starting at ``backoff_base`` seconds before failing over to replicas.
    :class:`~repro.errors.NodeUnavailableError` from the primary skips the
    retries entirely -- a down node does not come back within a backoff.
    """

    max_retries: int = 2
    backoff_base: float = 0.005
    backoff_multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValidationError("max_retries must be non-negative")
        if self.backoff_base < 0 or self.backoff_multiplier <= 0:
            raise ValidationError("backoff must be non-negative and growing")

    def delays(self) -> Iterator[float]:
        """The sleep before each retry attempt, in order."""
        delay = self.backoff_base
        for _ in range(self.max_retries):
            yield delay
            delay *= self.backoff_multiplier


def replica_backend_for(node: "DedupeNode") -> Optional[FileContainerBackend]:
    """Build the replica spill backend for ``node`` (``None`` when the node's
    primary backend keeps containers in RAM).

    The replica plane is a pure shadow: after a crash it is rebuilt by
    re-mirroring (``recover_storage`` re-syncs every recovered seal), so
    spill files a previous process left behind are debris.  They are cleared
    when taking over the directory rather than letting them accumulate across
    crash/recovery cycles.
    """
    primary = node.container_backend
    if not isinstance(primary, FileContainerBackend):
        return None
    replica_dir = primary.storage_dir / REPLICA_SUBDIR
    if replica_dir.is_dir():
        for stale in replica_dir.glob("container-*.cdata"):
            stale.unlink()
        (replica_dir / MANIFEST_NAME).unlink(missing_ok=True)
    return FileContainerBackend(
        storage_dir=replica_dir,
        compression=primary.compression,
        fsync=primary.fsync,
    )


class ReplicaStore:
    """The mirrored containers a node holds on behalf of its predecessors.

    Keyed by ``(origin_node_id, container_id)``.  On file-backed clusters the
    replicas are verbatim copies of their primaries' spill files, kept by a
    journaled backend of the store's own under the node's ``replicas/``
    subdirectory (composite ids, see :data:`REPLICA_ID_STRIDE`), so holding
    replicas does not unbound the node's RAM; on memory-backed clusters
    (``backend=None``) they stay resident like everything else.
    """

    def __init__(self, node_id: int, backend: Optional[FileContainerBackend] = None):
        self.node_id = node_id
        self.backend = backend
        self._adopter: ContainerBackend = (
            backend if backend is not None else InMemoryBackend()
        )
        self._lock: GuardLock = guarded_lock("ReplicaStore._lock")
        self._replicas: Dict[Tuple[int, int], Container] = {}  # guarded-by: _lock
        self.replicated_containers = 0  # guarded-by: _lock
        self.replicated_bytes = 0  # guarded-by: _lock

    def adopt(
        self, origin_node_id: int, container_id: int, section: StoredSection
    ) -> None:
        """Mirror one sealed container exported by ``origin_node_id``.

        The section's bytes are checked against the CRC its origin recorded
        at seal time (a mismatch raises :class:`~repro.errors.StorageError`
        and adopts nothing) and then kept as they are.  Idempotent per
        ``(origin, container_id)``: re-mirroring after a recovery overwrites
        the entry (and its spill file) in place.
        """
        replica_id = origin_node_id * REPLICA_ID_STRIDE + container_id
        clone = self._adopter.adopt_stored(replica_id, section)
        with self._lock:
            previous = self._replicas.get((origin_node_id, container_id))
            self._replicas[(origin_node_id, container_id)] = clone
            if previous is None:
                self.replicated_containers += 1
                self.replicated_bytes += clone.used

    def container_count(self) -> int:
        with self._lock:
            return len(self._replicas)

    def snapshot_bytes(self) -> int:
        with self._lock:
            return self.replicated_bytes

    def read_chunks(
        self, origin_node_id: int, fingerprints: List[bytes], container_ids: List[int]
    ) -> List[Optional[bytes]]:
        """Serve restore reads from the replicas of one failed origin.

        Payloads come back aligned with the two columns, ``None`` where this
        store holds no replica of the container or the replica lacks the
        fingerprint; columns of unequal length raise
        :class:`~repro.errors.ValidationError`.  The primary's run-wise read:
        one :meth:`Container.read_chunks
        <repro.storage.container.Container.read_chunks>` (one spill load)
        per distinct replica container.  Stats-free like every restore
        path: replica reads touch no dedup counters.
        """

        def read(container_id: int, run: List[bytes]) -> List[Optional[bytes]]:
            with self._lock:
                replica = self._replicas.get((origin_node_id, container_id))
            if replica is None:
                return [None] * len(run)
            return replica.read_chunks(run)

        if len(container_ids) != len(fingerprints):
            raise ValidationError(f"{len(fingerprints)} fingerprints, {len(container_ids)} ids")
        return read_in_runs(container_ids, (fingerprints,), read)

    def close(self) -> None:
        if self.backend is not None:
            self.backend.close()


UNAVAILABLE_LINK_ERRORS = (NodeUnavailableError, RpcDroppedError)
"""A replica holder that is down, whose worker is dead, or whose request was
dropped is just another missing link of the successor chain."""


def host_node(node_id: int, config: Optional[NodeConfig], replicate: bool) -> DedupeNode:
    """Build one node in the calling process (the cluster's, or a transport
    worker's), tracking seals and hosting a :class:`ReplicaStore` when the
    cluster mirrors its containers."""
    node = DedupeNode(node_id, config=config)
    if replicate:
        node.container_store.track_seals = True
        node.replica_store = ReplicaStore(node_id, backend=replica_backend_for(node))
    return node


class ReplicationManager:
    """Mirrors sealed containers to ring successors and serves failover reads."""

    def __init__(self, cluster: "DedupeCluster", factor: int):
        self.cluster = cluster
        self.factor = factor
        self._lock: GuardLock = guarded_lock("ReplicationManager._lock")
        self.failover_reads = 0  # guarded-by: _lock
        # Per node: the handle it was drained through, and its seals not yet mirrored.
        self._unmirrored: Dict[int, Tuple[NodeHandle, List[int]]] = {}  # guarded-by: _lock

    def successors(self, node_id: int) -> List[int]:
        """The ring successors mirroring ``node_id``'s containers."""
        num_nodes = self.cluster.num_nodes
        return [
            (node_id + offset) % num_nodes for offset in range(1, self.factor)
        ]

    # ------------------------------------------------------------------ #
    # mirroring
    # ------------------------------------------------------------------ #

    def _mirror_container(
        self, node_id: int, container_id: int, targets: Sequence[int]
    ) -> None:
        """Export one container from ``node_id`` and push it to ``targets``
        (every push is sent before any is awaited)."""
        handle = self.cluster.handle
        exported = handle(node_id).export_container(container_id)
        pushes = [
            handle(target_id).store_replica(node_id, container_id, exported)
            for target_id in targets
        ]
        for push in pushes:
            push.result()

    def sync_node(self, node_id: int) -> int:
        """Mirror every container sealed on ``node_id`` since the last sync,
        after any an earlier sync left unmirrored: a mirror that raises
        leaves its container and the rest of the drained batch pending for
        the next call (unless the node's handle has since been replaced: a
        restarted worker logs again whatever it recovered)."""
        handle = self.cluster.handle(node_id)
        sealed = handle.drain_sealed()
        with self._lock:
            owner, pending = self._unmirrored.pop(node_id, (handle, []))
        pending = (pending if owner is handle else []) + sealed
        successors = self.successors(node_id)
        mirrored = 0
        try:
            for container_id in pending:
                self._mirror_container(node_id, container_id, successors)
                mirrored += 1
        finally:
            if mirrored < len(pending):
                with self._lock:
                    self._unmirrored[node_id] = (handle, pending[mirrored:])
        return mirrored

    def sync(self) -> int:
        """Mirror pending seals on every node (end-of-session flush)."""
        return sum(self.sync_node(node_id) for node_id in range(self.cluster.num_nodes))

    def resync_into(self, target_id: int) -> int:
        """Re-push every predecessor container a restarted ``target_id``
        should shadow (its replica plane was wiped with the old process) --
        to ``target_id`` alone: the origins' other successors never lost
        their copies."""
        pushed = 0
        for origin_id in range(self.cluster.num_nodes):
            if origin_id == target_id or target_id not in self.successors(origin_id):
                continue
            for container_id in self.cluster.handle(origin_id).sealed_ids():
                self._mirror_container(origin_id, container_id, [target_id])
                pushed += 1
        return pushed

    # ------------------------------------------------------------------ #
    # failover reads
    # ------------------------------------------------------------------ #

    def read_chunks_failover(
        self, node_id: int, fingerprints: List[bytes], container_ids: Sequence[Optional[int]]
    ) -> List[bytes]:
        """Serve a failed primary's restore batch from its replica chain.

        Walks the successors in ring order, asking each surviving replica
        holder for whatever is still unresolved.  Every chunk must carry a
        container id (recipes written by the backup client always do;
        replicas cannot run the primary's index peeks).  Anything still
        unresolved after the chain raises
        :class:`~repro.errors.NodeUnavailableError`; a replica that answers
        with a different number of payloads than it was asked for raises
        :class:`~repro.errors.RestoreIntegrityError`.
        """
        if None in container_ids:
            raise NodeUnavailableError(
                f"node {node_id} is unavailable and chunk "
                f"{fingerprints[container_ids.index(None)].hex()} has no recipe "
                f"container id to locate a replica with"
            )
        resolved = cast(Sequence[int], container_ids)
        results: List[Optional[bytes]] = [None] * len(fingerprints)
        pending = list(range(len(fingerprints)))
        for successor_id in self.successors(node_id):
            if not pending:
                break
            successor = self.cluster.handle(successor_id)
            if successor.is_down:
                continue
            try:
                payloads = successor.replica_read(
                    node_id,
                    list(map(fingerprints.__getitem__, pending)),
                    list(map(resolved.__getitem__, pending)),
                )
            except UNAVAILABLE_LINK_ERRORS:
                continue
            check_reply(successor_id, len(pending), payloads)
            still_pending: List[int] = []
            for position, payload in zip(pending, payloads):
                if payload is None:
                    still_pending.append(position)
                else:
                    results[position] = payload
            pending = still_pending
        if pending:
            raise NodeUnavailableError(
                f"node {node_id} is unavailable and no replica of container "
                f"{resolved[pending[0]]} (chunk {fingerprints[pending[0]].hex()}, "
                f"{len(pending)} of {len(fingerprints)} reads unresolved) "
                f"survives on its successors"
            )
        with self._lock:
            self.failover_reads += len(fingerprints)
        return cast(List[bytes], results)  # every position resolved

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    def describe(self) -> Dict[str, int]:
        # Reporting snapshot across foreign stores: each count is taken under
        # its own store's lock; the totals may straddle an in-flight sync.
        # (A dead worker's replica plane died with it and counts for nothing.)
        containers = nbytes = 0
        for handle in self.cluster.handles:
            try:
                held, held_bytes = handle.replica_stats()
            except NodeUnavailableError:
                continue
            containers += held
            nbytes += held_bytes
        with self._lock:
            return {
                "replication_factor": self.factor,
                "replicated_containers": containers,
                "replicated_bytes": nbytes,
                "failover_reads": self.failover_reads,
            }
