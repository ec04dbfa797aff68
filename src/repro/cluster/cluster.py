"""The deduplication server cluster.

:class:`DedupeCluster` is the one implementation of the cluster logic:
handprint routing through the :class:`~repro.routing.base.ClusterView`
interface, the batched super-chunk store, replica failover, recovery and the
cluster-wide metrics the evaluation reports (cluster deduplication ratio,
storage skew, message counts).  It reaches every node through a
:class:`~repro.cluster.handle.NodeHandle` -- in-process handles here, one
worker process per node in :class:`~repro.transport.cluster.TransportCluster`.
"""

from __future__ import annotations

import time
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Protocol, Sequence, Tuple, Type

from repro.cluster.handle import LocalNodeHandle, NodeHandle, NodeRecovery, Pending, check_reply
from repro.cluster.message import MessageCounter, MessageType
from repro.cluster.replication import FailoverPolicy, ReplicationManager, host_node
from repro.core.superchunk import SuperChunk
from repro.errors import (
    ContainerNotFoundError,
    InjectedReadError,
    NodeNotFoundError,
    NodeUnavailableError,
    ReproError,
    ValidationError,
)
from repro.fingerprint.handprint import DEFAULT_HANDPRINT_SIZE, Handprint
from repro.node.dedupe_node import (
    DedupeNode,
    NodeConfig,
    SuperChunkBackupResult,
    resolve_container_backend,
)
from repro.routing.base import ClusterView, RoutingDecision, RoutingScheme
from repro.routing.sigma import SigmaRouting
from repro.storage.compression import resolve_compression
from repro.utils.stats import mean, population_stddev

_FP = itemgetter(0)
_ID = itemgetter(1)

RETRYABLE_READ_ERRORS: Tuple[Type[ReproError], ...] = (
    ContainerNotFoundError,
    InjectedReadError,
)
"""Primary-read failures worth a bounded retry before failing over: a
missing/truncated spill file or an injected transient read fault.  Data
errors (``ChunkNotFoundError``, ``RestoreIntegrityError``) never retry or
fail over -- a replica would return the same wrong answer."""


class ClusterFaultHook(Protocol):
    """What a fault plan exposes to the cluster's read plane (node-down
    windows, and RPC drops and delays on the process transport); behind an
    ``if hook is not None`` guard like every hook site."""

    def node_is_down(self, node_id: int) -> bool:
        """Consulted once per cluster read operation; ticks the plan's
        operation clock and reports whether ``node_id`` is dark."""

    def rpc_fault(self, node_id: int, op: str) -> float:
        """Consulted once per read-plane RPC a ``TransportCluster`` sends;
        returns the send delay in seconds or raises
        :class:`~repro.errors.RpcDroppedError`."""


class PendingStore:
    """One routed super-chunk on its way into its target node; ``result()``
    waits for the node's answer, then accounts the intra-node messages and
    mirrors whatever the store sealed (once)."""

    def __init__(
        self,
        cluster: "DedupeCluster",
        decision: RoutingDecision,
        call: Pending[SuperChunkBackupResult],
    ):
        self.decision = decision
        self._cluster = cluster
        self._call = call
        self._result: Optional[SuperChunkBackupResult] = None

    @property
    def done(self) -> bool:
        return self._result is not None

    def result(self) -> SuperChunkBackupResult:
        if self._result is None:
            result = self._call.result()
            self._cluster.messages.record(MessageType.INTRA_NODE, result.total_chunks)
            replication = self._cluster.replication
            if replication is not None:
                replication.sync_node(self.decision.target_node)
            self._result = result
        return self._result


def _total(describes: Sequence[Dict[str, float]], key: str) -> int:
    return sum(int(entry[key]) for entry in describes)


def _deduplication_ratio(describes: Sequence[Dict[str, float]]) -> float:
    logical = _total(describes, "logical_bytes")
    physical = _total(describes, "physical_bytes")
    if physical == 0:
        return 1.0 if logical == 0 else float("inf")
    return logical / physical


class DedupeCluster(ClusterView):
    """A cluster of full deduplication nodes.

    Parameters
    ----------
    num_nodes:
        Number of deduplication servers.
    node_config:
        Configuration applied to every node, storage settings included
        (each node claims its own ``node-<id>`` subdirectory of
        ``storage_dir``).
    routing_scheme:
        The inter-node data routing scheme (defaults to Sigma-Dedupe routing).
    replication_factor:
        Total copies of every sealed container (1 = no replication, the
        seed behavior).  With ``N > 1`` each node's seals are mirrored to
        its ``N-1`` ring successors and restore reads transparently fail
        over to a replica when the primary is down or raising (see
        :mod:`repro.cluster.replication`).
    failover_policy:
        Bounded-retry/backoff tuning for primary restore reads.
    """

    transport = "inproc"
    """Where the nodes run (``"process"`` in the transport subclass)."""

    retryable_read_errors = RETRYABLE_READ_ERRORS

    def __init__(
        self,
        num_nodes: int,
        node_config: Optional[NodeConfig] = None,
        routing_scheme: Optional[RoutingScheme] = None,
        replication_factor: int = 1,
        failover_policy: Optional[FailoverPolicy] = None,
    ):
        # Validated before any node, worker process or directory exists.
        if num_nodes < 1:
            raise ValidationError("a cluster needs at least one node")
        if not 1 <= replication_factor <= num_nodes:
            raise ValidationError(
                f"replication_factor must be between 1 and the cluster size "
                f"({num_nodes}), got {replication_factor}"
            )
        config = node_config or NodeConfig()
        resolve_container_backend(config)  # StorageError
        resolve_compression(config.container_compression)  # CompressionError
        self.routing_scheme = routing_scheme or SigmaRouting()
        self.messages = MessageCounter()
        self.failover_policy = failover_policy or FailoverPolicy()
        self._fault_hook: Optional[ClusterFaultHook] = None
        self._handles: Sequence[NodeHandle] = []
        self._open_nodes(num_nodes, config, replicate=replication_factor > 1)
        self.replication: Optional[ReplicationManager] = None
        if replication_factor > 1:
            self.replication = ReplicationManager(self, replication_factor)

    def _open_nodes(self, num_nodes: int, config: NodeConfig, replicate: bool) -> None:
        self._handles = [
            LocalNodeHandle(host_node(node_id, config, replicate)) for node_id in range(num_nodes)
        ]

    def install_fault_hook(self, hook: Optional[ClusterFaultHook]) -> None:
        """Arm (or with ``None`` disarm) node-down fault windows."""
        self._fault_hook = hook

    # ------------------------------------------------------------------ #
    # ClusterView interface
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        return len(self._handles)

    def handle(self, node_id: int) -> NodeHandle:
        if not 0 <= node_id < len(self._handles):
            raise NodeNotFoundError(f"node {node_id} not in cluster of {len(self._handles)}")
        return self._handles[node_id]

    @property
    def handles(self) -> List[NodeHandle]:
        return list(self._handles)

    def node(self, node_id: int) -> DedupeNode:
        node = self.handle(node_id).local_node
        if node is None:
            raise NodeNotFoundError(f"node {node_id} runs in a worker process")
        return node

    @property
    def nodes(self) -> List[DedupeNode]:
        """The nodes hosted in this process (none when they run in workers)."""
        hosted = [handle.local_node for handle in self._handles]
        return [node for node in hosted if node is not None]

    def node_storage_usage(self, node_id: int) -> int:
        return self.handle(node_id).storage_usage

    def resemblance_query(self, node_id: int, handprint: Handprint) -> int:
        return self.handle(node_id).resemblance_query(handprint)

    def sample_match_count(self, node_id: int, fingerprints: Sequence[bytes]) -> int:
        return self.handle(node_id).sample_match_count(fingerprints)

    def routing_probe(
        self, candidate_nodes: Sequence[int], handprint: Handprint
    ) -> Tuple[List[int], List[int]]:
        """The default round in the default order, with the usage sweep read
        straight off the handles (no per-node bounds check: every node is
        visited, so every id is in range)."""
        resemblances = [
            self.handle(node_id).resemblance_query(handprint) for node_id in candidate_nodes
        ]
        return resemblances, [handle.storage_usage for handle in self._handles]

    # ------------------------------------------------------------------ #
    # backup path
    # ------------------------------------------------------------------ #

    def route_superchunk(self, superchunk: SuperChunk) -> RoutingDecision:
        """Run the configured routing scheme and account its message overhead."""
        decision = self.routing_scheme.route(superchunk, self)
        self.messages.record(MessageType.PRE_ROUTING, decision.pre_routing_lookup_messages)
        return decision

    def backup_superchunk_send(
        self, superchunk: SuperChunk, decision: Optional[RoutingDecision] = None
    ) -> PendingStore:
        """Route (if needed) one super-chunk and hand it to its target node
        without waiting on the store: the caller may route the next one
        meanwhile (a node answers in order, so after this store).  A store
        that ran before the handle returned -- every in-process one -- is
        settled, and its seals mirrored, before the next begins."""
        if decision is None:
            decision = self.route_superchunk(superchunk)
        # The batched chunk-fingerprint query to the target node: one lookup
        # request per chunk fingerprint in the super-chunk.
        self.messages.record(MessageType.AFTER_ROUTING, superchunk.chunk_count)
        call = self.handle(decision.target_node).backup(superchunk)
        store = PendingStore(self, decision, call)
        if call.done:
            store.result()
        return store

    def backup_superchunk(
        self, superchunk: SuperChunk, decision: Optional[RoutingDecision] = None
    ) -> SuperChunkBackupResult:
        """Route (if needed) and back up one super-chunk."""
        return self.backup_superchunk_send(superchunk, decision).result()

    def flush(self) -> None:
        """Seal open containers on every node (end of a backup session)."""
        for flushed in [handle.flush() for handle in self._handles]:
            flushed.result()
        replication = self.replication
        if replication is not None:
            replication.sync()

    # ------------------------------------------------------------------ #
    # availability & recovery
    # ------------------------------------------------------------------ #

    def mark_node_down(self, node_id: int) -> None:
        """Mark one node unavailable; restore reads fail over to replicas."""
        self.handle(node_id).mark_down()

    def mark_node_up(self, node_id: int) -> None:
        self.handle(node_id).mark_up()

    def recover_storage(self, handprint_size: int = DEFAULT_HANDPRINT_SIZE) -> List[NodeRecovery]:
        """Replay every node's manifest journal and rebuild its indexes.

        The whole-cluster disaster path: construct a fresh cluster over the
        surviving storage directory, call this, and every fully-acknowledged
        container is back (torn seals and orphaned spill files are garbage-
        collected).  With replication enabled the recovered seals re-enter
        the seal log and are re-mirrored immediately, restoring the
        replication invariant for recovered data.
        """
        recovering = [handle.recover(handprint_size) for handle in self._handles]
        recoveries = [recovery.result() for recovery in recovering]
        replication = self.replication
        if replication is not None:
            replication.sync()
        return recoveries

    def close(self) -> None:
        """Release every node's backend resources (spill caches, temp dirs)."""
        for handle in self._handles:
            handle.close()

    # ------------------------------------------------------------------ #
    # restore path
    # ------------------------------------------------------------------ #

    def read_chunks(
        self, node_id: int, requests: Sequence[Tuple[bytes, Optional[int]]]
    ) -> List[bytes]:
        """:meth:`read_columns` over ``(fingerprint, container_id)`` pairs."""
        return self.read_columns(node_id, list(map(_FP, requests)), list(map(_ID, requests)))

    def read_columns(
        self, node_id: int, fingerprints: List[bytes], container_ids: List[Optional[int]]
    ) -> List[bytes]:
        """Bulk restore reads against one node (grouped per container there):
        payloads aligned with the fingerprint and container-id columns.

        The failover-aware read plane: a dark primary (marked down or inside
        a fault window) is skipped outright; a primary raising a retryable
        storage error (``retryable_read_errors``) gets
        ``failover_policy.max_retries`` retries with exponential backoff; and
        when the primary is out of chances the batch is served from its ring
        replicas (:meth:`ReplicationManager.read_chunks_failover`).  Without
        replication the primary's error propagates unchanged after the
        retries.  A reply with more or fewer payloads than chunks asked for
        raises :class:`~repro.errors.RestoreIntegrityError`.
        """
        handle = self.handle(node_id)
        hook = self._fault_hook
        cause: Optional[ReproError] = None
        if not ((hook is not None and hook.node_is_down(node_id)) or handle.is_down):
            delays: Optional[Iterator[float]] = None  # built at the first retryable error
            for _attempt in range(self.failover_policy.max_retries + 1):
                try:
                    payloads = handle.read_chunks(fingerprints, container_ids)
                except NodeUnavailableError as exc:
                    # The node went down (or its worker died) mid-read: no
                    # amount of retrying helps.
                    cause = exc
                    break
                except self.retryable_read_errors as exc:
                    cause = exc
                    delays = delays or self.failover_policy.delays()
                    delay = next(delays, None)
                    if delay is not None and delay > 0:
                        time.sleep(delay)
                    continue
                check_reply(node_id, len(fingerprints), payloads)
                return payloads
        replication = self.replication
        if replication is None:
            if cause is not None:
                raise cause
            raise NodeUnavailableError(
                f"node {node_id} is unavailable and the cluster has no "
                f"replicas to fail over to (replication_factor=1)"
            )
        try:
            return replication.read_chunks_failover(node_id, fingerprints, container_ids)
        except NodeUnavailableError as exc:
            raise exc from cause

    # ------------------------------------------------------------------ #
    # cluster-wide statistics (each reader fetches every node's describe once)
    # ------------------------------------------------------------------ #

    def node_describes(self) -> List[Dict[str, float]]:
        describing = [handle.describe() for handle in self._handles]
        return [description.result() for description in describing]

    @property
    def logical_bytes(self) -> int:
        return _total(self.node_describes(), "logical_bytes")

    @property
    def physical_bytes(self) -> int:
        return _total(self.node_describes(), "physical_bytes")

    @property
    def cluster_deduplication_ratio(self) -> float:
        return _deduplication_ratio(self.node_describes())

    def storage_usages(self) -> List[int]:
        return [int(entry["stored_bytes"]) for entry in self.node_describes()]

    def describe(self) -> Dict[str, float]:
        """Cluster-wide summary used by examples and reports."""
        describes = self.node_describes()
        usages = [int(entry["stored_bytes"]) for entry in describes]
        summary: Dict[str, float] = {
            "num_nodes": self.num_nodes,
            "routing_scheme": self.routing_scheme.name,
            "logical_bytes": _total(describes, "logical_bytes"),
            "physical_bytes": _total(describes, "physical_bytes"),
            "cluster_deduplication_ratio": _deduplication_ratio(describes),
            "storage_mean_bytes": mean(usages),
            "storage_stddev_bytes": population_stddev(usages),
            "pre_routing_messages": self.messages.pre_routing,
            "after_routing_messages": self.messages.after_routing,
            "intra_node_messages": self.messages.intra_node,
        }
        replication = self.replication
        if replication is not None:
            summary.update(replication.describe())
        return summary
