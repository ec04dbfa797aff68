"""Pluggable node-plane transports for the dedupe cluster.

The cluster core (:class:`~repro.cluster.cluster.DedupeCluster`) reaches every
node through a :class:`~repro.cluster.handle.NodeHandle`; by default the
handles call :class:`~repro.node.dedupe_node.DedupeNode` objects in this
process.  This package adds the ``process`` transport: each node in its own
OS process behind a length-prefixed binary RPC protocol, reached through an
RPC handle:

* :mod:`repro.transport.wire` -- the wire format (JSON header + out-of-band
  payload frames) and the one encoder, sender and receiver both ends use.
* :mod:`repro.transport.worker` -- the per-node worker process: one
  :class:`~repro.node.dedupe_node.DedupeNode` serving its end of a socket
  pair in a blocking loop, strictly in arrival order.
* :mod:`repro.transport.proxy` -- :class:`~repro.transport.proxy.NodeProxy`,
  the RPC node handle over any connected stream socket: one pipelined
  connection to one worker; every request goes on the wire when it is sent.
* :mod:`repro.transport.cluster` --
  :class:`~repro.transport.cluster.TransportCluster`, the ``DedupeCluster``
  subclass that hands each worker one end of a ``socket.socketpair()``,
  wraps the other end in a proxy and owns the workers' lifecycle.

Select with ``SigmaDedupe(transport="process")``; results are
byte-identical to the in-process default (see
``tests/test_transport_properties.py``).
"""

from repro.transport.cluster import TransportCluster
from repro.transport.proxy import NodeProxy, PendingBackup, PendingCall
from repro.transport.worker import NodeWorker, WorkerSpec, node_worker_main

__all__ = [
    "NodeProxy",
    "NodeWorker",
    "PendingBackup",
    "PendingCall",
    "TransportCluster",
    "WorkerSpec",
    "node_worker_main",
]
