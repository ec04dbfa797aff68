"""`TransportCluster`: the `DedupeCluster` surface over N worker processes.

Each node runs in its own OS process (:mod:`repro.transport.worker`) behind
one unix-socket connection; this module holds the parent side:

* :class:`NodeProxy` -- one blocking socket per worker with FIFO request
  pipelining: requests may be *sent* ahead (``send`` returns a
  :class:`PendingCall`), responses are matched back in order.  Combined with
  the worker's in-order dispatch this yields per-node sequential consistency,
  which is what keeps process-transport results byte-identical to in-process
  execution (see the worker module docstring for the full argument).
* :class:`TransportCluster` -- implements the
  :class:`~repro.routing.base.ClusterView` interface plus the rest of the
  :class:`~repro.cluster.cluster.DedupeCluster` surface (backup, flush,
  failover reads, stats aggregation, recovery) over the proxies, including a
  one-deep pipelined ``backup_superchunk_send`` the backup client uses to
  overlap routing of super-chunk *k+1* with the store of *k*.
* :class:`TransportReplication` -- parent-driven ring mirroring: sealed
  containers are drained from their origin worker, exported once over the
  wire in their stored form and pushed to each ring successor; failover
  reads walk the successor chain with ``replica_read`` RPCs, mirroring
  :meth:`~repro.cluster.replication.ReplicationManager.read_chunks_failover`.

Crash detection is structural: a SIGKILLed worker surfaces as a lost
connection, which the proxy converts to
:class:`~repro.errors.NodeUnavailableError` -- the same error model as a
marked-down in-process node, so the existing failover plane applies
unchanged.  :meth:`TransportCluster.restart_node` respawns the worker over
the same storage directory and ``recover``s its spill tree.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import socket
import tempfile
import threading
import time
from dataclasses import replace
from typing import Any, Dict, List, NoReturn, Optional, Sequence, Tuple

from repro.analysis.runtime import GuardLock, guarded_lock
from repro.cluster.cluster import RETRYABLE_READ_ERRORS, ClusterFaultHook
from repro.cluster.message import MessageCounter, MessageType
from repro.cluster.replication import FailoverPolicy
from repro.core.superchunk import SuperChunk
from repro.errors import (
    ConnectionLostError,
    NodeNotFoundError,
    NodeUnavailableError,
    RpcDroppedError,
    StorageError,
    TransportError,
    ValidationError,
)
from repro.fingerprint.handprint import DEFAULT_HANDPRINT_SIZE, Handprint
from repro.node.dedupe_node import NodeConfig, SuperChunkBackupResult
from repro.routing.base import ClusterView, RoutingDecision, RoutingScheme
from repro.routing.sigma import SigmaRouting
from repro.transport import wire
from repro.transport.worker import ENV_WORKER_MARKER, WorkerSpec, node_worker_main
from repro.utils.stats import mean, population_stddev

ENV_NODE_TRANSPORT = "REPRO_NODE_TRANSPORT"
"""Selects the node-plane transport (``inproc`` default, ``process``)."""

ENV_START_METHOD = "REPRO_TRANSPORT_START_METHOD"
"""Overrides the multiprocessing start method (``fork`` preferred)."""

TRANSPORT_RETRYABLE_READ_ERRORS = RETRYABLE_READ_ERRORS + (RpcDroppedError,)
"""The in-process retryables plus injected RPC drops: a dropped read request
is retried under the same bounded-backoff policy as a faulty spill read."""

CONNECT_TIMEOUT_SECONDS = 15.0
"""How long a proxy waits for its worker to bind its socket at startup."""

_OP_MESSAGE_TYPES: Dict[str, MessageType] = {
    "resemblance": MessageType.PRE_ROUTING,
    "probe": MessageType.PRE_ROUTING,
    "sample": MessageType.PRE_ROUTING,
    "usage": MessageType.PRE_ROUTING,
    "backup": MessageType.AFTER_ROUTING,
    "read": MessageType.RESTORE,
    "replica_read": MessageType.RESTORE,
}
"""Which paper message category each wire op's traffic is accounted under;
everything unlisted (lifecycle, replication, recovery) is CONTROL traffic."""


def _op_message_type(op: str) -> MessageType:
    return _OP_MESSAGE_TYPES.get(op, MessageType.CONTROL)


class PendingCall:
    """A pipelined request whose response has not been read yet."""

    def __init__(self, proxy: "NodeProxy", request_id: int, op: str):
        self._proxy = proxy
        self._request_id = request_id
        self._op = op

    def result(self) -> Tuple[Dict[str, Any], List[memoryview]]:
        """Block until this request's response arrives (FIFO order)."""
        header, frames = self._proxy._wait(self._request_id, self._op)
        if not header.get("ok", False):
            wire.raise_remote_error(header)
        return header, frames


class NodeProxy:
    """One worker's connection: blocking RPCs with FIFO pipelining.

    Thread-safe: sends serialise under ``_send_lock`` (assigning request ids
    in wire order), and responses are read by whichever waiter gets there
    first -- the reader-election under ``_recv_cond`` stashes out-of-turn
    responses for their waiters, so concurrent restore threads and a
    pipelined backup can share the connection.
    """

    def __init__(
        self,
        node_id: int,
        socket_path: str,
        process: Any,
        messages: MessageCounter,
    ):
        self.node_id = node_id
        self.socket_path = socket_path
        self.process = process
        self.messages = messages
        self.down = False  # client-side mirror of mark_node_down
        self._sock: Optional[socket.socket] = None
        self._send_lock: GuardLock = guarded_lock(f"NodeProxy{node_id}._send_lock")
        self._next_id = 0  # guarded-by: _send_lock
        self._staged: List[wire.Buffer] = []  # guarded-by: _send_lock
        self._recv_cond = threading.Condition()
        self._responses: Dict[int, Tuple[Dict[str, Any], List[memoryview]]] = {}  # guarded-by: _recv_cond
        self._receiving = False  # guarded-by: _recv_cond
        self._dead: Optional[str] = None  # guarded-by: _recv_cond

    # ------------------------------------------------------------------ #
    # connection lifecycle
    # ------------------------------------------------------------------ #

    def connect(self, timeout: float = CONNECT_TIMEOUT_SECONDS) -> None:
        """Connect to the worker's socket, waiting for it to bind."""
        deadline = time.monotonic() + timeout
        last_error: Optional[Exception] = None
        while time.monotonic() < deadline:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(self.socket_path)
            except (FileNotFoundError, ConnectionRefusedError, OSError) as exc:
                sock.close()
                last_error = exc
                if not self.process.is_alive():
                    break
                time.sleep(0.005)
                continue
            self._sock = sock
            self.call("ping")
            return
        raise TransportError(
            f"worker for node {self.node_id} never bound {self.socket_path} "
            f"(alive={self.process.is_alive()}): {last_error}"
        )

    @property
    def connected(self) -> bool:
        with self._recv_cond:
            return self._sock is not None and self._dead is None

    def close(self) -> None:
        with self._recv_cond:
            sock = self._sock
            self._sock = None
            self._dead = self._dead or "closed"
            self._recv_cond.notify_all()
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - close never matters
                pass

    def _mark_dead(self, reason: str) -> None:
        with self._recv_cond:
            if self._dead is None:
                self._dead = reason
            sock = self._sock
            self._sock = None
            self._recv_cond.notify_all()
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass

    def _dead_reason(self) -> Optional[str]:
        with self._recv_cond:
            return self._dead

    def _raise_unavailable(
        self, reason: str, cause: Optional[BaseException] = None
    ) -> "NoReturn":
        error = NodeUnavailableError(
            f"node {self.node_id} worker is unavailable ({reason})"
        )
        if cause is not None:
            raise error from cause
        raise error

    # ------------------------------------------------------------------ #
    # RPC
    # ------------------------------------------------------------------ #

    def send(
        self,
        op: str,
        header: Optional[Dict[str, Any]] = None,
        frames: Sequence[wire.Buffer] = (),
        coalesce: bool = False,
    ) -> PendingCall:
        """Send a request without waiting for its response (pipelining).

        With ``coalesce=True`` the encoded train is *staged* instead of put
        on the wire: it rides at the front of this connection's next burst
        (the next plain ``send``, or the flush a response read performs), so
        consecutive trains to one worker collapse into a single ``sendmsg``
        burst.  The request id is assigned at staging time, so per-connection
        FIFO order -- and therefore byte-identical results -- is unchanged.
        Only stage trains whose frames are immutable
        (:func:`repro.transport.wire.frames_immutable`): zero-copy slab views
        must reach the kernel before their slab region can be reused.
        """
        message = dict(header or {})
        message["op"] = op
        with self._send_lock:
            sock = self._sock
            if sock is None:
                self._raise_unavailable(self._dead_reason() or "not connected")
            request_id = self._next_id
            self._next_id += 1
            message["id"] = request_id
            buffers = wire.encode_message(message, frames)
            nbytes = wire.message_size(buffers)
            if coalesce:
                self._staged.extend(buffers)
            else:
                train = self._staged + buffers if self._staged else buffers
                self._staged = []
                try:
                    wire.send_buffers(sock, train)
                except ConnectionLostError as exc:
                    self._mark_dead(str(exc))
                    self._raise_unavailable(str(exc), cause=exc)
        self.messages.record_wire(_op_message_type(op), 1, nbytes)
        return PendingCall(self, request_id, op)  # unguarded-ok: snapshot of the ordinal assigned under _send_lock

    def call(
        self,
        op: str,
        header: Optional[Dict[str, Any]] = None,
        frames: Sequence[wire.Buffer] = (),
    ) -> Tuple[Dict[str, Any], List[memoryview]]:
        """Send a request and block for its response."""
        return self.send(op, header, frames).result()

    def _flush_staged(self) -> None:
        """Put staged coalesced trains on the wire as one ``sendmsg`` burst.

        A no-op when nothing is staged.  Must run before blocking for any
        response: a staged request's reply cannot arrive until its train is
        actually sent.
        """
        with self._send_lock:
            staged = self._staged
            if not staged:
                return
            self._staged = []
            sock = self._sock
            if sock is None:
                self._raise_unavailable(self._dead_reason() or "not connected")
            try:
                wire.send_buffers(sock, staged)
            except ConnectionLostError as exc:
                self._mark_dead(str(exc))
                self._raise_unavailable(str(exc), cause=exc)

    def _wait(
        self, request_id: int, op: str
    ) -> Tuple[Dict[str, Any], List[memoryview]]:
        """Collect the response for ``request_id``.

        Responses arrive in FIFO order on the socket; whichever waiter is
        present when a response must be read becomes the reader, stashing
        responses that belong to other waiters.
        """
        self._flush_staged()
        while True:
            with self._recv_cond:
                response = self._responses.pop(request_id, None)
                if response is not None:
                    return response
                if self._dead is not None:
                    self._raise_unavailable(self._dead)
                if self._receiving:
                    self._recv_cond.wait(timeout=1.0)
                    continue
                self._receiving = True
                sock = self._sock
            try:
                if sock is None:
                    raise ConnectionLostError("socket closed")
                header, frames, nbytes = wire.recv_message(sock)
            except ConnectionLostError as exc:
                self._mark_dead(str(exc))
                with self._recv_cond:
                    self._receiving = False
                    self._recv_cond.notify_all()
                self._raise_unavailable(str(exc), cause=exc)
            self.messages.record_wire(_op_message_type(op), 1, nbytes)
            with self._recv_cond:
                self._receiving = False
                response_id = header.get("id")
                if response_id == request_id:
                    self._recv_cond.notify_all()
                    return header, frames
                self._responses[int(response_id)] = (header, frames)
                self._recv_cond.notify_all()


class PendingBackup:
    """Handle for a pipelined ``backup_superchunk_send``; ``result()`` decodes
    the store response, accounts the intra-node messages and runs the
    per-super-chunk replication sync, exactly as the eager path would."""

    def __init__(
        self, cluster: "TransportCluster", decision: RoutingDecision, call: PendingCall
    ):
        self.decision = decision
        self._cluster = cluster
        self._call = call
        self._result: Optional[SuperChunkBackupResult] = None

    def result(self) -> SuperChunkBackupResult:
        if self._result is None:
            header, frames = self._call.result()
            fingerprints = wire.unpack_bytes_seq(frames[0], frames[1])
            containers = wire.unpack_u64_seq(frames[2])
            result = SuperChunkBackupResult(
                node_id=self.decision.target_node,
                unique_chunks=int(header["unique_chunks"]),
                duplicate_chunks=int(header["duplicate_chunks"]),
                unique_bytes=int(header["unique_bytes"]),
                duplicate_bytes=int(header["duplicate_bytes"]),
                chunk_locations=dict(zip(fingerprints, containers)),
            )
            self._cluster.messages.record(MessageType.INTRA_NODE, result.total_chunks)
            replication = self._cluster.replication
            if replication is not None:
                replication.sync_node(self.decision.target_node)
            self._result = result
        return self._result


class TransportCluster(ClusterView):
    """A dedupe cluster whose nodes are worker processes behind real RPC.

    Accepts the same configuration surface as
    :class:`~repro.cluster.cluster.DedupeCluster`; construction spawns one
    worker per node and connects a :class:`NodeProxy` to each.
    """

    transport = "process"

    def __init__(
        self,
        num_nodes: int,
        node_config: Optional[NodeConfig] = None,
        routing_scheme: Optional[RoutingScheme] = None,
        container_backend: Optional[str] = None,
        storage_dir: Optional[str] = None,
        container_compression: Optional[str] = None,
        replication_factor: int = 1,
        failover_policy: Optional[FailoverPolicy] = None,
        start_method: Optional[str] = None,
    ):
        if num_nodes < 1:
            raise ValidationError("a cluster needs at least one node")
        if replication_factor < 1:
            raise ValidationError("replication_factor must be at least 1")
        if replication_factor > 1 and not 2 <= replication_factor <= num_nodes:
            raise ValidationError(
                f"replication_factor must be between 2 and the cluster size "
                f"({num_nodes}), got {replication_factor}"
            )
        overrides = {
            key: value
            for key, value in (
                ("container_backend", container_backend),
                ("storage_dir", storage_dir),
                ("container_compression", container_compression),
            )
            if value is not None
        }
        config = node_config or NodeConfig()
        if overrides:
            config = replace(config, **overrides)
        # Resolve everything that can fail validation BEFORE claiming the
        # runtime dir, so a rejected configuration leaks nothing on disk.
        method = start_method or os.environ.get(ENV_START_METHOD)
        if method is None:
            method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        self._mp_context = multiprocessing.get_context(method)
        self._runtime_dir = tempfile.mkdtemp(prefix="repro-transport-")
        if config.storage_dir is None and (
            config.container_backend == "file"
            or os.environ.get("REPRO_CONTAINER_BACKEND") == "file"
        ):
            # File-backed workers need a directory that outlives a worker
            # restart; claim one inside the runtime dir (removed on close).
            config = replace(
                config, storage_dir=os.path.join(self._runtime_dir, "storage")
            )
        self._node_config = config
        self.routing_scheme = routing_scheme or SigmaRouting()
        self.messages = MessageCounter()
        self.failover_policy = failover_policy or FailoverPolicy()
        self._num_nodes = num_nodes
        self._replicate = replication_factor > 1
        self._fault_hook: Optional[ClusterFaultHook] = None
        self._lock: GuardLock = guarded_lock("TransportCluster._lock")
        self._closed = False  # guarded-by: _lock
        self.node_proxies: List[NodeProxy] = []
        try:
            for node_id in range(num_nodes):
                self.node_proxies.append(self._spawn_worker(node_id))
        except BaseException:
            self.close()
            raise
        self.replication: Optional[TransportReplication] = None
        if self._replicate:
            self.replication = TransportReplication(self, replication_factor)

    # ------------------------------------------------------------------ #
    # worker lifecycle
    # ------------------------------------------------------------------ #

    def _spawn_worker(self, node_id: int) -> NodeProxy:
        socket_path = os.path.join(self._runtime_dir, f"node-{node_id}.sock")
        spec = WorkerSpec(
            node_id=node_id,
            socket_path=socket_path,
            node_config=self._node_config,
            replicate=self._replicate,
        )
        # The marker rides in the child's initial environment (and therefore
        # /proc/<pid>/environ) so the CI teardown check can spot orphans.
        os.environ[ENV_WORKER_MARKER] = os.environ.get(ENV_WORKER_MARKER, "1")
        process = self._mp_context.Process(
            target=node_worker_main, args=(spec,), daemon=True,
            name=f"repro-node-worker-{node_id}",
        )
        process.start()
        proxy = NodeProxy(node_id, socket_path, process, self.messages)
        proxy.connect()
        return proxy

    def worker_process(self, node_id: int) -> Any:
        """The worker's ``multiprocessing.Process`` (tests SIGKILL it)."""
        return self._proxy(node_id).process

    def restart_node(self, node_id: int, recover: bool = True) -> Dict[str, int]:
        """Respawn a dead (or killed) worker over the same storage directory.

        With ``recover=True`` (file-backed nodes) the fresh worker replays
        its manifest journal and rebuilds its indexes before rejoining; the
        replication plane then re-mirrors its recovered seals and re-pushes
        its predecessors' containers into its (wiped) replica store.
        """
        old = self._proxy(node_id)
        old.close()
        if old.process.is_alive():
            old.process.terminate()
            old.process.join(timeout=5.0)
            if old.process.is_alive():  # pragma: no cover - terminate suffices
                old.process.kill()
                old.process.join(timeout=5.0)
        proxy = self._spawn_worker(node_id)
        self.node_proxies[node_id] = proxy
        summary: Dict[str, int] = {}
        if recover:
            header, _frames = proxy.call(
                "recover",
                {"handprint_size": DEFAULT_HANDPRINT_SIZE, "verify_data": True},
            )
            summary = dict(header.get("summary", {}))
        replication = self.replication
        if replication is not None:
            replication.sync_node(node_id)
            replication.resync_into(node_id)
        return summary

    def close(self) -> None:
        """Shut workers down, reap the processes, remove the runtime dir."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for proxy in self.node_proxies:
            if proxy.connected:
                try:
                    proxy.call("shutdown")
                except (NodeUnavailableError, TransportError):
                    pass
            proxy.close()
        for proxy in self.node_proxies:
            process = proxy.process
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - terminate suffices
                process.kill()
                process.join(timeout=5.0)
        shutil.rmtree(self._runtime_dir, ignore_errors=True)

    # ------------------------------------------------------------------ #
    # fault hooks
    # ------------------------------------------------------------------ #

    def install_fault_hook(self, hook: Optional[ClusterFaultHook]) -> None:
        """Arm (or with ``None`` disarm) node-down windows and RPC faults."""
        self._fault_hook = hook

    def _consult_rpc_fault(self, node_id: int, op: str) -> None:
        hook = self._fault_hook
        if hook is None:
            return
        fault = getattr(hook, "rpc_fault", None)
        if fault is None:
            return
        delay = fault(node_id, op)
        if delay > 0:
            time.sleep(delay)

    def _node_dark(self, node_id: int) -> bool:
        hook = self._fault_hook
        if hook is not None and hook.node_is_down(node_id):
            return True
        return self._proxy(node_id).down

    # ------------------------------------------------------------------ #
    # ClusterView interface
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    def _proxy(self, node_id: int) -> NodeProxy:
        if not 0 <= node_id < self._num_nodes:
            raise NodeNotFoundError(
                f"node {node_id} not in cluster of {self._num_nodes}"
            )
        return self.node_proxies[node_id]

    def node_storage_usage(self, node_id: int) -> int:
        header, _frames = self._proxy(node_id).call("usage")
        return int(header["value"])

    def resemblance_query(self, node_id: int, handprint: Handprint) -> int:
        blob, lengths = wire.pack_bytes_seq(
            list(handprint.representative_fingerprints)
        )
        header, _frames = self._proxy(node_id).call(
            "resemblance", frames=[blob, lengths]
        )
        return int(header["value"])

    def sample_match_count(self, node_id: int, fingerprints: Sequence[bytes]) -> int:
        blob, lengths = wire.pack_bytes_seq(list(fingerprints))
        header, _frames = self._proxy(node_id).call("sample", frames=[blob, lengths])
        return int(header["value"])

    def routing_probe(
        self, candidate_nodes: Sequence[int], handprint: Handprint
    ) -> Tuple[List[int], List[int]]:
        """One pipelined burst per node instead of one round-trip per query.

        The serial :class:`~repro.routing.base.ClusterView` default costs
        ``candidates + num_nodes`` blocking round-trips per super-chunk --
        the per-connection dispatch overhead that made *more* workers
        *slower* at a fixed front-end rate.  Here every candidate gets a
        single ``probe`` request (resemblance + usage in one response),
        every other node a ``usage`` request, all sent before any response
        is awaited: the whole routing round costs one round-trip time.
        Worker-side evaluation order per node is unchanged (resemblance
        before the usage read), so node statistics stay byte-identical.
        """
        blob, lengths = wire.pack_bytes_seq(
            list(handprint.representative_fingerprints)
        )
        candidates = list(candidate_nodes)
        candidate_set = set(candidates)
        probe_calls = [
            (node_id, self._proxy(node_id).send("probe", frames=[blob, lengths]))
            for node_id in candidates
        ]
        usage_calls = [
            (node_id, self._proxy(node_id).send("usage"))
            for node_id in range(self._num_nodes)
            if node_id not in candidate_set
        ]
        usages = [0] * self._num_nodes
        resemblance_by_node: Dict[int, int] = {}
        for node_id, call in probe_calls:
            header, _frames = call.result()
            resemblance_by_node[node_id] = int(header["resemblance"])
            usages[node_id] = int(header["usage"])
        for node_id, call in usage_calls:
            usages[node_id] = int(call.result()[0]["value"])
        return [resemblance_by_node[node_id] for node_id in candidates], usages

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
    ) -> PendingBackup:
        """Ship one super-chunk to its target without waiting for the store.

        The pipelined data plane: the request is on the wire (or staged at
        the head of the connection's next burst) when this returns, so the
        caller may route the *next* super-chunk (whose queries to the same
        worker will be answered after this store, FIFO) while the worker
        deduplicates this one.

        Coalescing: under a routing scheme that never queries node state,
        consecutive stores bound for one worker are staged and collapse into
        a single ``sendmsg`` burst when the client settles its window.  With
        a cluster-querying scheme (sigma, stateful) the train is sent
        eagerly instead -- staging it would park the store behind the next
        routing round and stall that round's lookups behind the store,
        serialising exactly what the pipeline exists to overlap.  Zero-copy
        slab-view frames are always sent eagerly (the kernel must own the
        bytes before the lane slab region is reused).
        """
        if decision is None:
            decision = self.route_superchunk(superchunk)
        self.messages.record(MessageType.AFTER_ROUTING, superchunk.chunk_count)
        header, frames = wire.encode_superchunk_frames(
            superchunk.chunks, superchunk.handprint.representative_fingerprints
        )
        header["stream_id"] = superchunk.stream_id
        header["sequence_number"] = superchunk.sequence_number
        coalesce = (
            not self.routing_scheme.queries_cluster
            and wire.frames_immutable(frames)
        )
        call = self._proxy(decision.target_node).send(
            "backup", header, frames, coalesce=coalesce
        )
        return PendingBackup(self, decision, call)

    def backup_superchunk(
        self, superchunk: SuperChunk, decision: Optional[RoutingDecision] = None
    ) -> SuperChunkBackupResult:
        """Route (if needed) and back up one super-chunk (eager)."""
        return self.backup_superchunk_send(superchunk, decision).result()

    def flush(self) -> None:
        """Seal open containers on every node (end of a backup session)."""
        pending = [proxy.send("flush") for proxy in self.node_proxies]
        for call in pending:
            call.result()
        replication = self.replication
        if replication is not None:
            replication.sync()

    # ------------------------------------------------------------------ #
    # availability & recovery
    # ------------------------------------------------------------------ #

    def mark_node_down(self, node_id: int) -> None:
        """Mark one node unavailable; restore reads fail over to replicas."""
        proxy = self._proxy(node_id)
        proxy.down = True
        if proxy.connected:
            try:
                proxy.call("mark_down")
            except NodeUnavailableError:
                pass

    def mark_node_up(self, node_id: int) -> None:
        proxy = self._proxy(node_id)
        proxy.down = False
        if proxy.connected:
            try:
                proxy.call("mark_up")
            except NodeUnavailableError:
                pass

    def recover_storage(
        self,
        handprint_size: int = DEFAULT_HANDPRINT_SIZE,
        verify_data: bool = True,
    ) -> List[Dict[str, int]]:
        """Replay every worker's manifest journal and rebuild its indexes.

        The whole-cluster disaster path over the transport: each worker
        recovers its own spill tree in-process and reports a summary; the
        replication plane then re-mirrors every recovered seal.
        """
        pending = [
            proxy.send(
                "recover",
                {"handprint_size": handprint_size, "verify_data": verify_data},
            )
            for proxy in self.node_proxies
        ]
        summaries = [dict(call.result()[0].get("summary", {})) for call in pending]
        replication = self.replication
        if replication is not None:
            replication.sync()
        return summaries

    # ------------------------------------------------------------------ #
    # restore path
    # ------------------------------------------------------------------ #

    def read_chunk(
        self, node_id: int, fingerprint: bytes, container_id: Optional[int] = None
    ) -> bytes:
        """Restore-read one chunk, with transparent retry + replica failover."""
        return self.read_chunks(node_id, [(fingerprint, container_id)])[0]

    def read_chunks(
        self, node_id: int, requests: "Sequence[tuple[bytes, Optional[int]]]"
    ) -> List[bytes]:
        """Bulk restore reads with the same failover semantics as the
        in-process cluster, plus transport-specific transients: a lost
        connection means the worker died (straight to failover), an injected
        RPC drop retries under the same bounded backoff as a faulty spill
        read."""
        if self._node_dark(node_id):
            return self._failover_read(node_id, requests, cause=None)
        delays = self.failover_policy.delays()
        last_error: Optional[StorageError] = None
        for _attempt in range(self.failover_policy.max_retries + 1):
            try:
                return self._read_direct(node_id, requests)
            except NodeUnavailableError as exc:
                return self._failover_read(node_id, requests, cause=exc)
            except TRANSPORT_RETRYABLE_READ_ERRORS as exc:
                last_error = exc
                delay = next(delays, None)
                if delay is not None and delay > 0:
                    time.sleep(delay)
        return self._failover_read(node_id, requests, cause=last_error)

    def _read_direct(
        self, node_id: int, requests: "Sequence[tuple[bytes, Optional[int]]]"
    ) -> List[bytes]:
        self._consult_rpc_fault(node_id, "read")
        blob, lengths = wire.pack_bytes_seq([fp for fp, _cid in requests])
        header = {
            "container_ids": [cid for _fp, cid in requests],
        }
        _header, frames = self._proxy(node_id).call(
            "read", header, frames=[blob, lengths]
        )
        return [bytes(frame) for frame in frames]

    def _failover_read(
        self,
        node_id: int,
        requests: "Sequence[tuple[bytes, Optional[int]]]",
        cause: Optional[Exception],
    ) -> List[bytes]:
        replication = self.replication
        if replication is None:
            if cause is not None:
                raise cause
            raise NodeUnavailableError(
                f"node {node_id} is unavailable and the cluster has no "
                f"replicas to fail over to (replication_factor=1)"
            )
        if cause is None:
            return replication.read_chunks_failover(node_id, requests)
        try:
            return replication.read_chunks_failover(node_id, requests)
        except NodeUnavailableError as exc:
            raise exc from cause

    # ------------------------------------------------------------------ #
    # cluster-wide statistics
    # ------------------------------------------------------------------ #

    def node_describes(self) -> List[Dict[str, float]]:
        """Per-node describe dicts (the transport twin of iterating
        ``cluster.nodes`` in-process; equivalence suites diff these)."""
        pending = [proxy.send("describe") for proxy in self.node_proxies]
        return [dict(call.result()[0]["describe"]) for call in pending]

    def storage_usages(self) -> List[int]:
        pending = [proxy.send("usage") for proxy in self.node_proxies]
        return [int(call.result()[0]["value"]) for call in pending]

    def storage_usage_mean(self) -> float:
        return mean(self.storage_usages())

    def storage_usage_stddev(self) -> float:
        return population_stddev(self.storage_usages())

    @property
    def logical_bytes(self) -> int:
        return sum(int(entry["logical_bytes"]) for entry in self.node_describes())

    @property
    def physical_bytes(self) -> int:
        return sum(int(entry["physical_bytes"]) for entry in self.node_describes())

    @property
    def cluster_deduplication_ratio(self) -> float:
        describes = self.node_describes()
        logical = sum(int(entry["logical_bytes"]) for entry in describes)
        physical = sum(int(entry["physical_bytes"]) for entry in describes)
        if physical == 0:
            return 1.0 if logical == 0 else float("inf")
        return logical / physical

    def describe(self) -> Dict[str, float]:
        """Cluster-wide summary: the in-process fields plus wire accounting."""
        describes = self.node_describes()
        usages = self.storage_usages()
        summary: Dict[str, float] = {
            "num_nodes": self.num_nodes,
            "routing_scheme": self.routing_scheme.name,
            "logical_bytes": sum(int(entry["logical_bytes"]) for entry in describes),
            "physical_bytes": sum(int(entry["physical_bytes"]) for entry in describes),
            "storage_mean_bytes": mean(usages),
            "storage_stddev_bytes": population_stddev(usages),
            "pre_routing_messages": self.messages.pre_routing,
            "after_routing_messages": self.messages.after_routing,
            "intra_node_messages": self.messages.intra_node,
        }
        logical = summary["logical_bytes"]
        physical = summary["physical_bytes"]
        if physical == 0:
            summary["cluster_deduplication_ratio"] = 1.0 if logical == 0 else float("inf")
        else:
            summary["cluster_deduplication_ratio"] = logical / physical
        replication = self.replication
        if replication is not None:
            summary.update(replication.describe())
        return summary


class TransportReplication:
    """Parent-driven ring mirroring over the transport.

    Sealed containers are drained from their origin worker
    (``drain_sealed``), exported once (``export_container``) and pushed to
    each ring successor (``store_replica``).  The two ops are the RPC form of
    :meth:`DedupeNode.export_container <repro.node.dedupe_node.DedupeNode.export_container>`
    and :meth:`~repro.node.dedupe_node.DedupeNode.store_replica` -- the seam
    the in-process :class:`~repro.cluster.replication.ReplicationManager`
    calls directly -- and what crosses the wire is one
    :class:`~repro.storage.container.StoredSection`: a header with capacity,
    stream id, codec and the CRC recorded at seal time, and four frames
    (fingerprint blob, fingerprint lengths, chunk lengths, and the data
    section *as the origin stores it* in a single frame).  On a compressed
    file backend that frame is the spill file's bytes, so replication traffic
    shrinks by the compression ratio and neither worker runs the codec.  The
    parent forwards header and frames verbatim, so a container's stored bytes
    cross each hop exactly once.
    """

    def __init__(self, cluster: TransportCluster, factor: int):
        self.cluster = cluster
        self.factor = factor
        self._lock: GuardLock = guarded_lock("TransportReplication._lock")
        self.failover_reads = 0  # guarded-by: _lock

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
        """Export one container from ``node_id`` and push it to ``targets``."""
        proxy = self.cluster._proxy(node_id)
        header, frames = proxy.call("export_container", {"container_id": container_id})
        push = {
            "origin": node_id,
            "container_id": container_id,
            "section": header["section"],
        }
        pending = [
            self.cluster._proxy(target_id).send("store_replica", push, frames)
            for target_id in targets
        ]
        for call in pending:
            call.result()

    def sync_node(self, node_id: int) -> int:
        """Mirror every container sealed on ``node_id`` since the last sync."""
        header, _frames = self.cluster._proxy(node_id).call("drain_sealed")
        sealed = [int(container_id) for container_id in header.get("sealed", [])]
        successors = self.successors(node_id)
        for container_id in sealed:
            self._mirror_container(node_id, container_id, successors)
        return len(sealed)

    def sync(self) -> int:
        """Mirror pending seals on every node (end-of-session flush)."""
        return sum(
            self.sync_node(node_id) for node_id in range(self.cluster.num_nodes)
        )

    def resync_into(self, target_id: int) -> int:
        """Re-push every predecessor container a restarted ``target_id``
        should shadow (its replica plane was wiped with the old process) --
        to ``target_id`` alone: the origins' other successors never lost
        their copies."""
        pushed = 0
        for origin_id in range(self.cluster.num_nodes):
            if origin_id == target_id:
                continue
            if target_id not in self.successors(origin_id):
                continue
            header, _frames = self.cluster._proxy(origin_id).call("sealed_ids")
            for container_id in header.get("ids", []):
                self._mirror_container(origin_id, int(container_id), [target_id])
                pushed += 1
        return pushed

    # ------------------------------------------------------------------ #
    # failover reads
    # ------------------------------------------------------------------ #

    def read_chunks_failover(
        self, node_id: int, requests: Sequence[Tuple[bytes, Optional[int]]]
    ) -> List[bytes]:
        """Serve a failed primary's restore batch from its replica chain.

        Same contract as the in-process
        :meth:`~repro.cluster.replication.ReplicationManager.read_chunks_failover`;
        dead or down successors are skipped (a lost connection to a replica
        holder is just another unavailable link in the chain).
        """
        resolved: List[Tuple[bytes, int]] = []
        for fingerprint, container_id in requests:
            if container_id is None:
                raise NodeUnavailableError(
                    f"node {node_id} is unavailable and chunk "
                    f"{fingerprint.hex()} has no recipe container id to "
                    f"locate a replica with"
                )
            resolved.append((fingerprint, container_id))
        results: List[Optional[bytes]] = [None] * len(resolved)
        pending = list(range(len(resolved)))
        for successor_id in self.successors(node_id):
            if not pending:
                break
            proxy = self.cluster._proxy(successor_id)
            if proxy.down or not proxy.connected:
                continue
            try:
                self.cluster._consult_rpc_fault(successor_id, "replica_read")
                wanted = [resolved[position] for position in pending]
                blob, lengths = wire.pack_bytes_seq([fp for fp, _cid in wanted])
                header, frames = proxy.call(
                    "replica_read",
                    {
                        "origin": node_id,
                        "container_ids": [cid for _fp, cid in wanted],
                    },
                    frames=[blob, lengths],
                )
            except (NodeUnavailableError, RpcDroppedError):
                continue
            missing = {int(index) for index in header.get("missing", [])}
            frame_cursor = 0
            still_pending: List[int] = []
            for offset, position in enumerate(pending):
                if offset in missing:
                    still_pending.append(position)
                else:
                    results[position] = bytes(frames[frame_cursor])
                    frame_cursor += 1
            pending = still_pending
        if pending:
            fingerprint, container_id = resolved[pending[0]]
            raise NodeUnavailableError(
                f"node {node_id} is unavailable and no replica of container "
                f"{container_id} (chunk {fingerprint.hex()}, "
                f"{len(pending)} of {len(resolved)} reads unresolved) "
                f"survives on its successors"
            )
        with self._lock:
            self.failover_reads += len(resolved)
        return [chunk for chunk in results if chunk is not None]

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    def describe(self) -> Dict[str, int]:
        containers = 0
        nbytes = 0
        for proxy in self.cluster.node_proxies:
            if not proxy.connected:
                continue
            try:
                header, _frames = proxy.call("replica_stats")
            except NodeUnavailableError:
                continue
            containers += int(header["containers"])
            nbytes += int(header["bytes"])
        with self._lock:
            return {
                "replication_factor": self.factor,
                "replicated_containers": containers,
                "replicated_bytes": nbytes,
                "failover_reads": self.failover_reads,
            }
