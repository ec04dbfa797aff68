"""Exception hierarchy for the repro (Sigma-Dedupe reproduction) library.

All library-specific exceptions derive from :class:`ReproError` so callers can
catch a single base class.  Subsystems raise the most specific subclass that
applies.  Plain argument validation raises :class:`ValidationError`, which is
*also* a ``ValueError`` so call sites keep the conventional contract -- but it
still lands under :class:`ReproError`, and the error-taxonomy checker
(``tests/repo_checks/taxonomy.py``) enforces that every ``raise`` in the
library constructs a member of this hierarchy.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ValidationError(ReproError, ValueError):
    """Raised for invalid argument or configuration values.

    Doubly derived: callers that catch ``ValueError`` for plain argument
    validation keep working, while ``except ReproError`` still catches
    everything the library raises."""


class ChunkingError(ReproError):
    """Raised when a chunker is misconfigured or fed invalid data."""


class FingerprintError(ReproError):
    """Raised for fingerprinting problems (unknown algorithm, bad digest)."""


class ParallelLaneError(ReproError):
    """Raised when a parallel ingest lane (thread or process) fails
    structurally: a lane process died mid-file, a shared-memory slab could
    not be created, or a lane returned a malformed reply."""


class StorageError(ReproError):
    """Base class for errors in the storage substrate (containers, indexes)."""


class ContainerFullError(StorageError):
    """Raised when a chunk is appended to a container that cannot hold it."""


class ContainerNotFoundError(StorageError):
    """Raised when a container id is not present in a container store."""


class CompressionError(StorageError):
    """Raised for spill-plane compression problems: an unknown or unavailable
    codec at configuration time, or a blob that cannot be decompressed.

    The spill read path never lets this (or a raw ``zlib.error``) escape to
    restore callers: a spill file that fails decompression surfaces as
    :class:`ContainerNotFoundError` with this error as its cause."""


class ChunkNotFoundError(StorageError):
    """Raised when a chunk fingerprint cannot be resolved during restore."""


class RestoreIntegrityError(StorageError):
    """Raised when a restored chunk payload disagrees with its file recipe.

    Distinct from :class:`ChunkNotFoundError`: the chunk *was* found and read
    back, but its content does not match what the recipe recorded (e.g. a
    length mismatch from a corrupted container).  Chunks that fail integrity
    verification are never counted as restored."""


class RecoveryError(StorageError):
    """Raised when crash recovery itself cannot proceed: replaying a manifest
    journal with a mismatched codec, recovering into a non-empty store, or
    asking a backend without a journal to replay one.

    Deliberately *not* raised for torn journal tails, orphaned spill files or
    truncated data sections -- those are the expected debris of a hard kill
    and recovery silently discards them (prefix consistency), reporting counts
    in the recovery record instead."""


class RoutingError(ReproError):
    """Raised when a data-routing scheme cannot produce a target node."""


class ClusterError(ReproError):
    """Raised for cluster-level configuration or protocol problems."""


class NodeNotFoundError(ClusterError):
    """Raised when a node id does not exist in the cluster."""


class NodeUnavailableError(ClusterError):
    """Raised when a node (or every replica holding its data) cannot serve a
    request: the node is marked down, a fault-injection window has it dark, or
    failover exhausted the replica chain without resolving the read.

    Distinct from :class:`NodeNotFoundError` (a node id outside the cluster,
    a caller bug): an unavailable node *exists* and may come back."""


class TransportError(ClusterError):
    """Base class for node-plane transport problems: wire-protocol framing
    violations, worker handshake failures, or remote errors that do not map
    back onto a known repro exception class."""


class WireProtocolError(TransportError):
    """Raised when a wire message violates the length-prefixed framing
    contract (oversized header, impossible frame count, short read mid-frame).
    Always a bug or a corrupted stream, never a retryable condition."""


class ConnectionLostError(TransportError):
    """Raised when the byte stream to a node worker ends mid-conversation
    (EOF, broken pipe, reset).  The proxy layer converts this into
    :class:`NodeUnavailableError` -- a lost connection means the worker
    process is gone, which is exactly the down-node failure model."""


class RecipeError(ReproError):
    """Raised when a file recipe is missing or inconsistent."""


class WorkloadError(ReproError):
    """Raised when a workload generator is misconfigured."""


class SimulationError(ReproError):
    """Raised when a simulation experiment is misconfigured."""


class LockOwnershipError(ReproError):
    """Raised by the ``REPRO_LOCK_ASSERTS=1`` debug mode when a method that
    requires a lock executes on a thread that does not hold it."""


class FaultInjectionError(ReproError):
    """Base class for errors raised *on purpose* by the deterministic
    fault-injection harness (:mod:`repro.faults`).  Nothing in the library
    raises these outside an installed :class:`~repro.faults.FaultPlan`."""


class SimulatedCrashError(FaultInjectionError):
    """Raised by a fault plan to simulate a hard kill at a planned point
    (kill-at-spill-K, torn journal write).  Test harnesses treat the raising
    process as dead from that instant: the storage directory is left exactly
    as a SIGKILL would leave it."""


class InjectedReadError(FaultInjectionError, StorageError):
    """A probabilistic spill-read failure injected by a fault plan.

    Doubly derived from :class:`StorageError` because it models an I/O fault:
    the cluster failover path treats it exactly like a real unreadable spill
    file (bounded retry, then replica failover)."""


class RpcDroppedError(FaultInjectionError, TransportError):
    """A deterministically dropped RPC injected by a fault plan's
    ``drop_rpc`` schedule.

    Doubly derived from :class:`TransportError` because it models a lost
    message on the node-plane wire: the transport read path treats it as a
    retryable transient (bounded retry under the
    :class:`~repro.cluster.replication.FailoverPolicy`, then replica
    failover), exactly like a real dropped datagram would surface."""
