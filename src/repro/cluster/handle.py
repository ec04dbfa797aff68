"""The node-handle seam: what the cluster core asks of one node, wherever it runs.

The cluster core is written once, against :class:`NodeHandle`.
:class:`LocalNodeHandle` calls a :class:`~repro.node.dedupe_node.DedupeNode`
in this process; :class:`~repro.transport.proxy.NodeProxy` makes the same
calls as RPCs to a worker process.  Queries and reads return their value; the
operations a caller overlaps return a :class:`Pending` -- already
:class:`Completed` in-process, sent but not yet answered over RPC.
"""

from __future__ import annotations

from typing import Any, Dict, Generic, List, Optional, Protocol, Sequence, Tuple, TypeVar, Union

from repro.core.superchunk import SuperChunk
from repro.fingerprint.handprint import Handprint
from repro.node.dedupe_node import DedupeNode, SuperChunkBackupResult
from repro.storage.backends import SpillRecovery

T = TypeVar("T")
T_co = TypeVar("T_co", covariant=True)
ReadRequests = Sequence[Tuple[bytes, Optional[int]]]
ReplicaRequests = Sequence[Tuple[bytes, int]]
NodeRecovery = Union[SpillRecovery, Dict[str, int]]
"""A node's recovery outcome: the full :class:`SpillRecovery` from a node in
this process, a flat summary of it from a worker (the details stay there)."""


class Pending(Protocol[T_co]):
    """The outcome of an operation that may still be executing."""

    @property
    def done(self) -> bool:
        """Whether ``result()`` returns without waiting on the node."""

    def result(self) -> T_co: ...


class Completed(Generic[T]):
    """A :class:`Pending` whose operation ran before it was returned."""

    __slots__ = ("_value",)
    done = True

    def __init__(self, value: T) -> None:
        self._value = value

    def result(self) -> T:
        return self._value


class NodeHandle(Protocol):
    """One node of the cluster, as its core sees it."""

    node_id: int

    @property
    def local_node(self) -> Optional[DedupeNode]:
        """The node itself when it lives in this process, else ``None``."""

    @property
    def storage_usage(self) -> int: ...
    @property
    def is_down(self) -> bool:
        """Whether reads should skip this node without trying it."""

    def resemblance_query(self, handprint: Handprint) -> int: ...
    def sample_match_count(self, fingerprints: Sequence[bytes]) -> int: ...
    def read_chunks(self, requests: ReadRequests) -> List[bytes]: ...
    def replica_read(self, origin: int, requests: ReplicaRequests) -> List[Optional[bytes]]: ...
    def export_container(self, container_id: int) -> Any:
        """A sealed container in its stored form.  Opaque to the core: it is
        only ever passed, unchanged, to another handle's ``store_replica``."""

    def drain_sealed(self) -> List[int]: ...
    def sealed_ids(self) -> List[int]: ...
    def replica_stats(self) -> Tuple[int, int]: ...
    def mark_down(self) -> None: ...
    def mark_up(self) -> None: ...
    def close(self) -> None: ...

    # What a caller overlaps with other work:
    def backup(self, superchunk: SuperChunk) -> Pending[SuperChunkBackupResult]: ...
    def flush(self) -> Pending[None]: ...
    def recover(self, handprint_size: int, verify_data: bool) -> Pending[NodeRecovery]: ...
    def describe(self) -> Pending[Dict[str, float]]: ...
    def store_replica(self, origin: int, container_id: int, exported: Any) -> Pending[None]: ...


class LocalNodeHandle:
    """The in-process handle: every call is a direct call into the node."""

    __slots__ = ("node_id", "local_node")

    def __init__(self, node: DedupeNode) -> None:
        self.node_id = node.node_id
        self.local_node = node

    @property
    def storage_usage(self) -> int:
        return self.local_node.storage_usage

    @property
    def is_down(self) -> bool:
        return self.local_node.is_down

    def resemblance_query(self, handprint: Handprint) -> int:
        return self.local_node.resemblance_query(handprint)

    def sample_match_count(self, fingerprints: Sequence[bytes]) -> int:
        return self.local_node.sample_match_count(fingerprints)

    def read_chunks(self, requests: ReadRequests) -> List[bytes]:
        return self.local_node.read_chunks(requests)

    def replica_read(self, origin: int, requests: ReplicaRequests) -> List[Optional[bytes]]:
        return self.local_node.replica_read(origin, requests)

    def export_container(self, container_id: int) -> Any:
        return self.local_node.export_container(container_id)

    def drain_sealed(self) -> List[int]:
        return self.local_node.container_store.drain_sealed()

    def sealed_ids(self) -> List[int]:
        return self.local_node.sealed_container_ids()

    def replica_stats(self) -> Tuple[int, int]:
        return self.local_node.replica_stats()

    def mark_down(self) -> None:
        self.local_node.mark_down()

    def mark_up(self) -> None:
        self.local_node.mark_up()

    def close(self) -> None:
        self.local_node.close()

    def backup(self, superchunk: SuperChunk) -> Completed[SuperChunkBackupResult]:
        return Completed(self.local_node.backup_superchunk(superchunk))

    def flush(self) -> Completed[None]:
        self.local_node.flush()
        return Completed(None)

    def recover(self, handprint_size: int, verify_data: bool) -> Completed[NodeRecovery]:
        return Completed(self.local_node.recover_storage(handprint_size, verify_data))

    def describe(self) -> Completed[Dict[str, float]]:
        return Completed(self.local_node.describe())

    def store_replica(self, origin: int, container_id: int, exported: Any) -> Completed[None]:
        self.local_node.store_replica(origin, container_id, exported)
        return Completed(None)
