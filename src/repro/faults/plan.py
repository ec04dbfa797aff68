"""Seeded fault plans: crash-at-spill, torn journals, read faults, dark nodes.

A :class:`FaultPlan` is deterministic by construction: every probabilistic
decision draws from one ``random.Random(seed)``, the crash trigger counts
spill events, and node-down windows are expressed on the cluster's
read-operation clock -- so a plan replays identically given the same
workload, which is what lets crash/recovery tests assert exact outcomes.

The plan implements both hook protocols behind the framework's zero-cost
guards (:class:`~repro.storage.backends.SpillFaultHook` for the spill plane,
:class:`~repro.cluster.cluster.ClusterFaultHook` for the read plane).  The
four kill phases map one-to-one onto the crash points of the
data-first/journal-second seal ordering:

``before-data``
    Crash before the spill file is written: nothing of the seal survives.
``mid-data``
    Crash mid-``write``: a truncated ``.cdata`` with no journal record --
    recovery unlinks it as an orphan.
``after-data``
    Crash between the data write and the journal append: an intact but
    unreferenced ``.cdata`` -- still an orphan, still unlinked.
``torn-journal``
    Crash mid journal ``write``: a checksummed record prefix -- replay
    discards the torn line and unlinks the file it referenced.

In every phase the container was never acknowledged to the client, so
recovery dropping it is correctness, not loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    FaultInjectionError,
    InjectedReadError,
    RpcDroppedError,
    SimulatedCrashError,
    ValidationError,
)
from repro.storage.backends import FileContainerBackend
from repro.utils.guarded_lock import GuardLock, guarded_lock

if TYPE_CHECKING:
    from repro.storage.container import Container, SectionBuffer

KILL_PHASES = ("before-data", "mid-data", "after-data", "torn-journal")
"""Crash points of the seal's data-first/journal-second write ordering."""


@dataclass(frozen=True)
class NodeDownWindow:
    """One node dark for ``[start_op, end_op)`` of the read-operation clock.

    The clock ticks once per cluster read operation (each
    ``DedupeCluster.read_chunks`` batch consults the plan exactly once), so
    windows are deterministic for a given restore workload.
    """

    node_id: int
    start_op: int
    end_op: int

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ValidationError("node_id must be non-negative")
        if not 0 <= self.start_op <= self.end_op:
            raise ValidationError(
                f"node-down window must satisfy 0 <= start_op <= end_op, "
                f"got [{self.start_op}, {self.end_op})"
            )

    def contains(self, op: int) -> bool:
        return self.start_op <= op < self.end_op


@dataclass
class FaultPlan:
    """A deterministic, installable plan of storage and availability faults.

    Parameters
    ----------
    seed:
        Seeds the private ``random.Random`` behind probabilistic faults.
    kill_at_spill:
        1-based index of the spill event (counted across every backend the
        plan is installed on) that crashes; ``None`` never crashes.  The
        crash fires once: the raised
        :class:`~repro.errors.SimulatedCrashError` stands in for the process
        dying, and the test harness catches it where a real kill would end
        the process.
    kill_phase:
        Which crash point of the seal ordering fires (see module docstring);
        one of :data:`KILL_PHASES`.
    torn_fraction:
        How much of the interrupted write survives, for the partial-write
        phases: the fraction of the spill blob written in ``mid-data``, or
        of the journal line in ``torn-journal``.  Clamped so the artifact is
        genuinely torn (never the complete write).
    read_error_probability:
        Per-spill-load probability of raising
        :class:`~repro.errors.InjectedReadError` -- a transient read fault
        the cluster's bounded-retry/failover plane must absorb.
    node_down_windows:
        :class:`NodeDownWindow` list consulted by the cluster read plane.
    drop_rpc:
        1-based indices on the transport RPC clock at which a read-plane RPC
        is dropped before it is sent: the proxy raises
        :class:`~repro.errors.RpcDroppedError`, a retryable transient the
        transport's bounded-retry/failover plane must absorb.  (Dropping an
        idempotent read request and dropping its response are equivalent to
        the caller, so one fault models both.)  The clock ticks once per
        consulted RPC, giving deterministic replay for a fixed workload.
    delay_rpc:
        ``(rpc_index, seconds)`` pairs injecting network latency before the
        indexed RPC is sent -- exercises the retry/backoff path's tolerance
        of slow links without nondeterminism.
    """

    seed: int = 0
    kill_at_spill: Optional[int] = None
    kill_phase: str = "torn-journal"
    torn_fraction: float = 0.5
    read_error_probability: float = 0.0
    node_down_windows: Sequence[NodeDownWindow] = field(default_factory=tuple)
    drop_rpc: Sequence[int] = field(default_factory=tuple)
    delay_rpc: Sequence[Tuple[int, float]] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.kill_phase not in KILL_PHASES:
            raise ValidationError(
                f"kill_phase must be one of {KILL_PHASES}, got {self.kill_phase!r}"
            )
        if self.kill_at_spill is not None and self.kill_at_spill < 1:
            raise ValidationError("kill_at_spill is 1-based and must be >= 1")
        if not 0.0 <= self.torn_fraction <= 1.0:
            raise ValidationError("torn_fraction must be within [0, 1]")
        if not 0.0 <= self.read_error_probability <= 1.0:
            raise ValidationError("read_error_probability must be within [0, 1]")
        if any(index < 1 for index in self.drop_rpc):
            raise ValidationError("drop_rpc indices are 1-based and must be >= 1")
        if any(index < 1 or seconds < 0 for index, seconds in self.delay_rpc):
            raise ValidationError(
                "delay_rpc entries need a 1-based index and a non-negative delay"
            )
        self._drop_rpc_set = frozenset(self.drop_rpc)
        self._delay_rpc_map = dict(self.delay_rpc)
        self._rng = Random(self.seed)
        self._lock: GuardLock = guarded_lock("FaultPlan._lock")
        self.spills_seen = 0  # guarded-by: _lock
        self.reads_seen = 0  # guarded-by: _lock
        self.ops_seen = 0  # guarded-by: _lock
        self.rpcs_seen = 0  # guarded-by: _lock
        self.injected_read_errors = 0  # guarded-by: _lock
        self.dropped_rpcs = 0  # guarded-by: _lock
        self.crashed = False  # guarded-by: _lock

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #

    def install(self, target: Any) -> int:
        """Arm this plan on ``target``; returns how many hooks were installed.

        Duck-dispatches on shape: a framework facade (anything with a
        ``.cluster``) installs on its cluster; a cluster installs the
        node-down (and RPC drop/delay) hook on itself and the spill hook on
        the primary file backend of every node it hosts in this process --
        worker processes' spill planes are out of this plan's reach; a node
        installs on its primary backend; a
        :class:`~repro.storage.backends.FileContainerBackend` installs
        directly.  Replica backends are deliberately left uninstrumented:
        faults model the primary plane failing, and the failover path must
        stay readable for the tests to mean anything.
        """
        cluster = getattr(target, "cluster", None)
        if cluster is not None:
            target = cluster
        installed = 0
        if hasattr(target, "nodes") and hasattr(target, "install_fault_hook"):
            target.install_fault_hook(self)
            installed += 1
            for node in target.nodes:
                installed += self._install_backend(node.container_backend)
            return installed
        backend = getattr(target, "container_backend", None)
        if backend is not None:
            return self._install_backend(backend)
        if isinstance(target, FileContainerBackend):
            return self._install_backend(target)
        raise FaultInjectionError(
            f"cannot install a fault plan on {type(target).__name__}: expected "
            f"a framework, cluster, node, or file container backend"
        )

    def _install_backend(self, backend: Any) -> int:
        if isinstance(backend, FileContainerBackend):
            backend.install_fault_hook(self)
            return 1
        return 0

    # ------------------------------------------------------------------ #
    # SpillFaultHook protocol
    # ------------------------------------------------------------------ #

    def on_spill(
        self,
        backend: FileContainerBackend,
        container: "Container",
        blob: "SectionBuffer",
    ) -> None:
        with self._lock:
            self.spills_seen += 1
            if not self._kill_due_locked():
                return
            if self.kill_phase not in ("before-data", "mid-data"):
                return
            self.crashed = True
            phase = self.kill_phase
        if phase == "mid-data":
            torn = self._torn_length(len(blob))
            backend._write_spill_file(  # noqa: SLF001 - the hook is part of the backend's seal path
                backend.spill_path(container.container_id), blob[:torn]
            )
            raise SimulatedCrashError(
                f"injected crash mid-data-write for container "
                f"{container.container_id} ({torn}/{len(blob)} bytes written)"
            )
        raise SimulatedCrashError(
            f"injected crash before the data write for container "
            f"{container.container_id}"
        )

    def journal_tear(
        self, backend: FileContainerBackend, encoded: bytes
    ) -> Optional[int]:
        with self._lock:
            if not self._kill_due_locked():
                return None
            if self.kill_phase not in ("after-data", "torn-journal"):
                return None
            self.crashed = True
            phase = self.kill_phase
        if phase == "torn-journal":
            # The backend appends this prefix and raises SimulatedCrashError.
            return self._torn_length(len(encoded))
        raise SimulatedCrashError(
            "injected crash between the data write and the journal append"
        )

    def on_spill_read(
        self, backend: FileContainerBackend, container: "Container"
    ) -> None:
        if self.read_error_probability <= 0.0:
            return
        with self._lock:
            self.reads_seen += 1
            faulty = self._rng.random() < self.read_error_probability
            if faulty:
                self.injected_read_errors += 1
        if faulty:
            raise InjectedReadError(
                f"injected transient read fault for container "
                f"{container.container_id} "
                f"({backend.spill_path(container.container_id)})"
            )

    # ------------------------------------------------------------------ #
    # ClusterFaultHook protocol
    # ------------------------------------------------------------------ #

    def node_is_down(self, node_id: int) -> bool:
        with self._lock:
            op = self.ops_seen
            self.ops_seen += 1
            return any(
                window.node_id == node_id and window.contains(op)
                for window in self.node_down_windows
            )

    def rpc_fault(self, node_id: int, op: str) -> float:
        """Tick the RPC clock for one read-plane RPC; returns the injected
        send delay in seconds, raising :class:`~repro.errors.RpcDroppedError`
        when this tick is on the drop schedule."""
        with self._lock:
            self.rpcs_seen += 1
            rpc = self.rpcs_seen
            dropped = rpc in self._drop_rpc_set
            if dropped:
                self.dropped_rpcs += 1
            delay = self._delay_rpc_map.get(rpc, 0.0)
        if dropped:
            raise RpcDroppedError(
                f"injected rpc drop at rpc {rpc} (node {node_id}, op {op!r})"  # unguarded-ok: snapshot of the ordinal taken under the lock
            )
        return delay

    # ------------------------------------------------------------------ #
    # internals & reporting
    # ------------------------------------------------------------------ #

    def _kill_due_locked(self) -> bool:  # holds-lock: _lock
        """Whether the current spill is the (not yet fired) crash target."""
        return (
            self.kill_at_spill is not None
            and not self.crashed
            and self.spills_seen >= self.kill_at_spill
        )

    def _torn_length(self, full_length: int) -> int:
        """Bytes of an interrupted write that survive: strictly fewer than
        ``full_length`` (a complete write would not be a tear)."""
        if full_length <= 0:
            return 0
        torn = int(full_length * self.torn_fraction)
        return min(torn, full_length - 1)

    def describe(self) -> Dict[str, int]:
        """Counters snapshot for tests and the recovery bench stage."""
        with self._lock:
            return {
                "spills_seen": self.spills_seen,
                "reads_seen": self.reads_seen,
                "ops_seen": self.ops_seen,
                "rpcs_seen": self.rpcs_seen,
                "injected_read_errors": self.injected_read_errors,
                "dropped_rpcs": self.dropped_rpcs,
                "crashed": int(self.crashed),
            }
