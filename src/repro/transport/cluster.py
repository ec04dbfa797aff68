"""`TransportCluster`: the dedupe cluster over one worker process per node.

:class:`~repro.cluster.cluster.DedupeCluster` opened over
:class:`~repro.transport.proxy.NodeProxy` handles instead of in-process
nodes.  The cluster logic is inherited unchanged; what lives here only
exists with processes: spawning, restarting and reaping workers, the runtime
directory, RPC fault injection, and answering a routing round in one
pipelined burst.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import socket
import tempfile
import time
from dataclasses import replace
from typing import Any, Dict, List, Sequence, Tuple

from repro.analysis.runtime import GuardLock, guarded_lock
from repro.cluster.cluster import RETRYABLE_READ_ERRORS, DedupeCluster
from repro.errors import RpcDroppedError, TransportError
from repro.fingerprint.handprint import DEFAULT_HANDPRINT_SIZE, Handprint
from repro.node.dedupe_node import NodeConfig, resolve_container_backend
from repro.transport.proxy import NodeProxy, PendingBackup, PendingCall, pack_handprint
from repro.transport.worker import WorkerSpec, node_worker_main

__all__ = [
    "NodeProxy",
    "PendingBackup",
    "PendingCall",
    "TransportCluster",
]

START_METHOD = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
"""How workers start: ``fork`` where the platform has it, else ``spawn``."""

REAP_TIMEOUT_SECONDS = 5.0
"""How long each step of reaping a worker (exit, SIGTERM, SIGKILL) may take."""


def _reap(process: Any) -> None:
    """Wait for a worker to exit (it does on EOF), then escalate."""
    process.join(timeout=REAP_TIMEOUT_SECONDS)
    if process.is_alive():
        process.terminate()
        process.join(timeout=REAP_TIMEOUT_SECONDS)
    if process.is_alive():  # pragma: no cover - terminate suffices
        process.kill()
        process.join(timeout=REAP_TIMEOUT_SECONDS)


class TransportCluster(DedupeCluster):
    """A dedupe cluster whose nodes are worker processes behind real RPC.

    Accepts the configuration surface of
    :class:`~repro.cluster.cluster.DedupeCluster`; construction spawns one
    worker per node, each holding one end of a socket pair, and wraps the
    other end in a :class:`NodeProxy`.
    """

    transport = "process"

    retains_payloads = False
    """The synchronous wire send guarantees the kernel owns the bytes before
    any slab region is reused, so lanes may hand over zero-copy slab views."""

    retryable_read_errors = RETRYABLE_READ_ERRORS + (RpcDroppedError,)
    """The in-process retryables plus injected RPC drops: a dropped read
    request is retried under the same bounded-backoff policy as a faulty
    spill read."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        # DedupeCluster's parameters, passed through unchanged.  Defined here
        # rather than inherited so worker spawn-up can be timed on its own.
        self._mp_context = multiprocessing.get_context(START_METHOD)
        self._lock: GuardLock = guarded_lock("TransportCluster._lock")
        self._closed = False  # guarded-by: _lock
        self._runtime_dir: str  # claimed by _open_nodes, once the config is valid
        self.node_proxies: List[NodeProxy] = []
        self._workers: Dict[int, Any] = {}  # node id -> its multiprocessing.Process
        super().__init__(*args, **kwargs)

    # ------------------------------------------------------------------ #
    # worker lifecycle
    # ------------------------------------------------------------------ #

    def _open_nodes(self, num_nodes: int, config: NodeConfig, replicate: bool) -> None:
        # Runs after validation, so a rejected configuration leaks nothing.
        self._runtime_dir = tempfile.mkdtemp(prefix="repro-transport-")
        if config.storage_dir is None and resolve_container_backend(config) == "file":
            # File-backed workers need a directory that outlives a worker
            # restart; claim one inside the runtime dir (removed on close).
            config = replace(
                config, storage_dir=os.path.join(self._runtime_dir, "storage")
            )
        self._node_config = config
        self._replicate = replicate
        self._handles = self.node_proxies
        try:
            for node_id in range(num_nodes):
                self.node_proxies.append(self._spawn_worker(node_id))
        except BaseException:
            self.close()
            raise

    def _spawn_worker(self, node_id: int) -> NodeProxy:
        spec = WorkerSpec(
            node_id=node_id, node_config=self._node_config, replicate=self._replicate
        )
        parent_end, child_end = socket.socketpair()
        try:
            process = self._mp_context.Process(
                target=node_worker_main, args=(spec, child_end, parent_end),
                daemon=True, name=f"repro-node-worker-{node_id}",
            )
            process.start()
        except BaseException:
            parent_end.close()
            raise
        finally:
            child_end.close()
        self._workers[node_id] = process
        try:
            return NodeProxy(
                node_id, parent_end, self.messages, consult_fault=self._consult_rpc_fault
            )
        except TransportError:
            process.terminate()  # it never answered: no graceful exit to wait for
            raise

    def _proxy(self, node_id: int) -> NodeProxy:
        self.handle(node_id)  # bounds check
        return self.node_proxies[node_id]

    def worker_process(self, node_id: int) -> Any:
        """The worker's ``multiprocessing.Process`` (tests SIGKILL it)."""
        self.handle(node_id)  # bounds check
        return self._workers[node_id]

    def restart_node(self, node_id: int, recover: bool = True) -> Dict[str, int]:
        """Respawn a dead (or killed) worker over the same storage directory.

        With ``recover=True`` (file-backed nodes) the fresh worker replays
        its manifest journal and rebuilds its indexes before rejoining; the
        replication plane then re-mirrors its recovered seals and re-pushes
        its predecessors' containers into its (wiped) replica store.
        """
        self._proxy(node_id).close()
        _reap(self._workers[node_id])
        proxy = self._spawn_worker(node_id)
        self.node_proxies[node_id] = proxy
        summary: Dict[str, int] = {}
        if recover:
            summary = proxy.recover(DEFAULT_HANDPRINT_SIZE, True).result()
        replication = self.replication
        if replication is not None:
            replication.sync_node(node_id)
            replication.resync_into(node_id)
        return summary

    def close(self) -> None:
        """Close every proxy (each worker exits on the EOF), reap the
        processes, remove the runtime dir."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for proxy in self.node_proxies:
            proxy.close()
        for process in self._workers.values():
            _reap(process)
        shutil.rmtree(self._runtime_dir, ignore_errors=True)

    def _consult_rpc_fault(self, node_id: int, op: str) -> None:
        """Tick the installed plan's RPC clock for one read-plane request: the
        plan may delay the send or drop it (``RpcDroppedError``)."""
        fault = getattr(self._fault_hook, "rpc_fault", None)
        if fault is None:
            return
        delay = fault(node_id, op)
        if delay > 0:
            time.sleep(delay)

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
        frames = pack_handprint(handprint)
        candidates = list(candidate_nodes)
        probes = [
            (node_id, self._proxy(node_id).send("probe", frames=frames))
            for node_id in candidates
        ]
        candidate_set = set(candidates)
        usage_calls = [
            (proxy.node_id, proxy.send("usage"))
            for proxy in self.node_proxies
            if proxy.node_id not in candidate_set
        ]
        usages = [0] * self.num_nodes
        resemblances: List[int] = []
        for node_id, call in probes:
            header, _frames = call.response()
            resemblances.append(int(header["resemblance"]))
            usages[node_id] = int(header["usage"])
        for node_id, call in usage_calls:
            usages[node_id] = int(call.response()[0]["value"])
        return resemblances, usages
