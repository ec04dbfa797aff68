"""Fingerprint-lookup message accounting.

"Number of fingerprint index lookup messages: An important metric for system
overhead in cluster deduplication, which significantly affects the cluster
system scalability.  It includes inter-node messages and intra-node messages
for chunk fingerprint lookup." (paper Section 4.2)

Messages are counted in units of fingerprint-lookup requests, which is how the
paper derives its "1.25x the stateless overhead" bound for Sigma-Dedupe (the
pre-routing component is 8 candidates x 8 RFPs = 1/4 of the 256 chunk
fingerprints of a 1 MB / 4 KB super-chunk).

Two independent dimensions live in one counter:

* **Logical counts** (``record`` / ``counts``) are the paper's metric: one
  unit per fingerprint-lookup request, identical whether nodes run in-process
  or behind the process transport -- which is what keeps the transport
  byte-identical to the in-process path in every report.
* **Wire accounting** (``record_wire`` / ``wire_messages`` /
  ``bytes_by_type``) measures the *actual* transport: one wire message per
  request or response train crossing a process boundary, plus the bytes it
  carried.  In-process clusters never record here, so the dimension doubles
  as a "did real RPC happen" probe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict
from repro.analysis.runtime import GuardLock, guarded_lock
from repro.errors import ValidationError


class MessageType(Enum):
    """Categories of fingerprint-lookup traffic."""

    PRE_ROUTING = "pre_routing"
    """Inter-node lookups issued while choosing the target node."""

    AFTER_ROUTING = "after_routing"
    """Chunk-fingerprint lookups sent to the chosen target node (the batched
    duplicate-or-unique query of source deduplication)."""

    INTRA_NODE = "intra_node"
    """Lookups the target node performs internally (cache / disk index)."""

    RESTORE = "restore"
    """Restore-plane traffic (bulk chunk reads, replica failover reads).
    Wire-only: the logical lookup metric of the paper never counts restores,
    so in-process clusters record nothing here."""

    CONTROL = "control"
    """Lifecycle and replication-plane traffic (flush, drain/export/store of
    replicas, recovery, shutdown).  Wire-only, like :data:`RESTORE`."""


@dataclass
class MessageCounter:
    """Accumulates fingerprint-lookup message counts by category.

    Recording is thread-safe: concurrent backup sessions and parallel ingest
    consumers account their traffic against one shared counter.
    """

    counts: Dict[MessageType, int] = field(default_factory=dict)  # guarded-by: _lock
    wire_messages: Dict[MessageType, int] = field(default_factory=dict)  # guarded-by: _lock
    bytes_by_type: Dict[MessageType, int] = field(default_factory=dict)  # guarded-by: _lock
    _lock: GuardLock = field(
        default_factory=lambda: guarded_lock("MessageCounter._lock"),
        init=False,
        repr=False,
        compare=False,
    )

    def record(self, message_type: MessageType, count: int = 1) -> None:
        if count < 0:
            raise ValidationError("message count cannot be negative")
        with self._lock:
            self.counts[message_type] = self.counts.get(message_type, 0) + count

    def record_wire(
        self, message_type: MessageType, messages: int = 1, nbytes: int = 0
    ) -> None:
        """Account real transport traffic: ``messages`` wire messages (one per
        request or response train) carrying ``nbytes`` bytes of framing,
        headers and payload frames for ``message_type``."""
        if messages < 0 or nbytes < 0:
            raise ValidationError("wire message and byte counts cannot be negative")
        with self._lock:
            self.wire_messages[message_type] = (
                self.wire_messages.get(message_type, 0) + messages
            )
            self.bytes_by_type[message_type] = (
                self.bytes_by_type.get(message_type, 0) + nbytes
            )

    def get(self, message_type: MessageType) -> int:
        with self._lock:
            return self.counts.get(message_type, 0)

    def wire_bytes(self, message_type: MessageType) -> int:
        with self._lock:
            return self.bytes_by_type.get(message_type, 0)

    @property
    def pre_routing(self) -> int:
        return self.get(MessageType.PRE_ROUTING)

    @property
    def after_routing(self) -> int:
        return self.get(MessageType.AFTER_ROUTING)

    @property
    def intra_node(self) -> int:
        return self.get(MessageType.INTRA_NODE)

    @property
    def inter_node_total(self) -> int:
        """Total inter-node fingerprint-lookup messages (pre + after routing)."""
        return self.pre_routing + self.after_routing

    @property
    def total(self) -> int:
        with self._lock:
            return sum(self.counts.values())

    @property
    def total_wire_messages(self) -> int:
        with self._lock:
            return sum(self.wire_messages.values())

    @property
    def total_wire_bytes(self) -> int:
        with self._lock:
            return sum(self.bytes_by_type.values())

    def merge(self, other: "MessageCounter") -> "MessageCounter":
        # The two locks are taken one after the other, never nested, so two
        # threads merging in opposite directions cannot deadlock.
        with self._lock:
            merged_counts = dict(self.counts)
            merged_wire = dict(self.wire_messages)
            merged_bytes = dict(self.bytes_by_type)
        with other._lock:
            other_counts = dict(other.counts)
            other_wire = dict(other.wire_messages)
            other_bytes = dict(other.bytes_by_type)
        for message_type, count in other_counts.items():
            merged_counts[message_type] = merged_counts.get(message_type, 0) + count
        for message_type, count in other_wire.items():
            merged_wire[message_type] = merged_wire.get(message_type, 0) + count
        for message_type, count in other_bytes.items():
            merged_bytes[message_type] = merged_bytes.get(message_type, 0) + count
        return MessageCounter(
            counts=merged_counts,
            wire_messages=merged_wire,
            bytes_by_type=merged_bytes,
        )

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            return {message_type.value: count for message_type, count in self.counts.items()}

    def wire_as_dict(self) -> Dict[str, Dict[str, int]]:
        """The wire dimension for reports: per-type message and byte totals."""
        with self._lock:
            return {
                "messages": {
                    message_type.value: count
                    for message_type, count in self.wire_messages.items()
                },
                "bytes": {
                    message_type.value: count
                    for message_type, count in self.bytes_by_type.items()
                },
            }
