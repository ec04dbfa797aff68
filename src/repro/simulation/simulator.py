"""The trace-driven cluster deduplication simulator.

Each simulated node is "a series of independent fingerprint lookup data
structures" (paper Section 4.4): an exact chunk-fingerprint set for intra-node
deduplication, a similarity index of representative fingerprints for the
stateful routing schemes, and capacity counters.  The simulator partitions a
materialised trace into routing units matching the scheme's granularity
(super-chunks, files or chunks), routes every unit with the scheme under test,
deduplicates it at the target node and accounts storage and message overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.cluster.message import MessageCounter, MessageType
from repro.core.superchunk import DEFAULT_SUPERCHUNK_SIZE, SuperChunk
from repro.errors import SimulationError
from repro.fingerprint.fingerprinter import ChunkRecord
from repro.fingerprint.handprint import DEFAULT_HANDPRINT_SIZE
from repro.metrics.dedup import (
    effective_deduplication_ratio,
    normalized_effective_deduplication_ratio,
)
from repro.metrics.skew import StorageSkew, storage_skew
from repro.routing.base import ClusterView, RoutingScheme
from repro.utils.stats import count_matched_occurrences
from repro.workloads.trace import TraceChunk, TraceSnapshot


class SimulatedNode:
    """Lightweight stand-in for a deduplication server in cluster simulations."""

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.chunk_fingerprints: set = set()
        self.similarity_fingerprints: set = set()
        # Extreme-Binning-style bins: representative fingerprint -> set of
        # chunk fingerprints deduplicated within that bin only.
        self.bins: Dict[bytes, set] = {}
        self.logical_bytes = 0
        self.physical_bytes = 0
        self.units_received = 0

    def resemblance_count(self, handprint) -> int:
        """How many representative fingerprints of ``handprint`` this node knows."""
        return sum(1 for fp in handprint if fp in self.similarity_fingerprints)

    def sample_match_count(self, fingerprints: Sequence[bytes]) -> int:
        """How many of the sampled chunk fingerprints this node already stores.

        A set intersection rather than a per-fingerprint probe; duplicate
        occurrences in the sample still each count, as before.
        """
        if not isinstance(fingerprints, (list, tuple)):
            fingerprints = list(fingerprints)
        distinct = set(fingerprints)
        return count_matched_occurrences(
            fingerprints, distinct, distinct & self.chunk_fingerprints
        )

    def backup_unit(self, chunks: Iterable[TraceChunk], handprint=None) -> None:
        """Exact intra-node deduplication of one routed unit."""
        self.units_received += 1
        for chunk in chunks:
            self.logical_bytes += chunk.length
            if chunk.fingerprint not in self.chunk_fingerprints:
                self.chunk_fingerprints.add(chunk.fingerprint)
                self.physical_bytes += chunk.length
        if handprint is not None:
            self.similarity_fingerprints.update(handprint)

    def backup_unit_binned(self, chunks: Iterable[TraceChunk], representative: bytes) -> None:
        """Bin-scoped deduplication (Extreme Binning's intra-node model).

        The unit is deduplicated only against the bin addressed by its
        representative fingerprint; identical chunks living in other bins of
        the same node are stored again, which is what limits Extreme Binning's
        deduplication effectiveness relative to exact deduplication.
        """
        self.units_received += 1
        bin_fingerprints = self.bins.setdefault(representative, set())
        for chunk in chunks:
            self.logical_bytes += chunk.length
            if chunk.fingerprint not in bin_fingerprints:
                bin_fingerprints.add(chunk.fingerprint)
                self.physical_bytes += chunk.length
                self.chunk_fingerprints.add(chunk.fingerprint)


@dataclass
class SimulationResult:
    """Everything one (scheme, cluster size, workload) simulation produced."""

    scheme: str
    num_nodes: int
    logical_bytes: int
    physical_bytes: int
    node_physical_bytes: List[int]
    units_routed: int
    chunk_count: int
    messages: MessageCounter
    single_node_deduplication_ratio: Optional[float] = None
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def cluster_deduplication_ratio(self) -> float:
        if self.physical_bytes == 0:
            return 1.0 if self.logical_bytes == 0 else float("inf")
        return self.logical_bytes / self.physical_bytes

    @property
    def skew(self) -> StorageSkew:
        return storage_skew(self.node_physical_bytes)

    @property
    def effective_deduplication_ratio(self) -> float:
        """CDR discounted by storage imbalance (not normalised)."""
        return effective_deduplication_ratio(
            self.cluster_deduplication_ratio, self.node_physical_bytes
        )

    @property
    def normalized_deduplication_ratio(self) -> Optional[float]:
        if not self.single_node_deduplication_ratio:
            return None
        return self.cluster_deduplication_ratio / self.single_node_deduplication_ratio

    @property
    def normalized_effective_deduplication_ratio(self) -> Optional[float]:
        """NEDR (Eq. 7) -- requires the single-node exact DR to be known."""
        if not self.single_node_deduplication_ratio:
            return None
        return normalized_effective_deduplication_ratio(
            self.cluster_deduplication_ratio,
            self.single_node_deduplication_ratio,
            self.node_physical_bytes,
        )

    @property
    def fingerprint_lookup_messages(self) -> int:
        """Inter-node fingerprint-lookup message count (Figure 7's metric)."""
        return self.messages.inter_node_total

    def as_dict(self) -> Dict[str, float]:
        row = {
            "scheme": self.scheme,
            "num_nodes": self.num_nodes,
            "logical_bytes": self.logical_bytes,
            "physical_bytes": self.physical_bytes,
            "cluster_dedup_ratio": self.cluster_deduplication_ratio,
            "effective_dedup_ratio": self.effective_deduplication_ratio,
            "storage_cv": self.skew.coefficient_of_variation,
            "pre_routing_messages": self.messages.pre_routing,
            "after_routing_messages": self.messages.after_routing,
            "lookup_messages": self.fingerprint_lookup_messages,
            "units_routed": self.units_routed,
        }
        if self.single_node_deduplication_ratio:
            row["normalized_dedup_ratio"] = self.normalized_deduplication_ratio
            row["normalized_edr"] = self.normalized_effective_deduplication_ratio
        row.update(self.extra)
        return row


class ClusterSimulator(ClusterView):
    """Simulate one routing scheme over one materialised trace.

    Simulated nodes are fingerprint-only (no chunk payloads, hence no
    container store): container backend selection does not apply here, and
    routing probes (:meth:`sample_match_count`) run as set intersections
    against each node's fingerprint set, mirroring the full cluster's batched
    data plane.

    Parameters
    ----------
    num_nodes:
        Cluster size.
    routing_scheme:
        Any :class:`~repro.routing.base.RoutingScheme`.
    superchunk_size:
        Routing-unit size for super-chunk granularity schemes (paper: 1 MB).
    handprint_size:
        Representative fingerprints per handprint (paper: 8).
    """

    def __init__(
        self,
        num_nodes: int,
        routing_scheme: RoutingScheme,
        superchunk_size: int = DEFAULT_SUPERCHUNK_SIZE,
        handprint_size: int = DEFAULT_HANDPRINT_SIZE,
    ):
        if num_nodes < 1:
            raise SimulationError("num_nodes must be >= 1")
        self._nodes = [SimulatedNode(node_id) for node_id in range(num_nodes)]
        self.routing_scheme = routing_scheme
        self.superchunk_size = superchunk_size
        self.handprint_size = handprint_size
        self.messages = MessageCounter()
        self.units_routed = 0
        self.chunk_count = 0
        self._logical_bytes = 0

    # ------------------------------------------------------------------ #
    # ClusterView interface
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def nodes(self) -> List[SimulatedNode]:
        return list(self._nodes)

    def node_storage_usage(self, node_id: int) -> int:
        return self._nodes[node_id].physical_bytes

    def resemblance_query(self, node_id: int, handprint) -> int:
        return self._nodes[node_id].resemblance_count(handprint)

    def sample_match_count(self, node_id: int, fingerprints: Sequence[bytes]) -> int:
        return self._nodes[node_id].sample_match_count(fingerprints)

    # ------------------------------------------------------------------ #
    # unit construction
    # ------------------------------------------------------------------ #

    def _units_for_snapshot(self, snapshot: TraceSnapshot) -> Iterable[List[TraceChunk]]:
        granularity = self.routing_scheme.granularity
        if granularity == "file":
            if not snapshot.has_file_metadata:
                raise SimulationError(
                    f"routing scheme {self.routing_scheme.name!r} needs file metadata, "
                    f"but snapshot {snapshot.label!r} is a fingerprint-only trace"
                )
            for file in snapshot.files:
                if file.chunks:
                    yield list(file.chunks)
            return
        if granularity == "chunk":
            for chunk in snapshot.all_chunks():
                yield [chunk]
            return
        # Default: super-chunk granularity over the whole snapshot stream.
        pending: List[TraceChunk] = []
        pending_bytes = 0
        for chunk in snapshot.all_chunks():
            pending.append(chunk)
            pending_bytes += chunk.length
            if pending_bytes >= self.superchunk_size:
                yield pending
                pending = []
                pending_bytes = 0
        if pending:
            yield pending

    def _make_superchunk(self, chunks: List[TraceChunk], sequence: int) -> SuperChunk:
        records = [
            ChunkRecord(fingerprint=chunk.fingerprint, length=chunk.length, data=None)
            for chunk in chunks
        ]
        return SuperChunk.from_chunks(
            records, handprint_size=self.handprint_size, sequence_number=sequence
        )

    # ------------------------------------------------------------------ #
    # running
    # ------------------------------------------------------------------ #

    def backup_snapshot(self, snapshot: TraceSnapshot) -> None:
        """Route and deduplicate every unit of one backup snapshot."""
        for chunks in self._units_for_snapshot(snapshot):
            superchunk = self._make_superchunk(chunks, self.units_routed)
            decision = self.routing_scheme.route(superchunk, self)
            self.messages.record(
                MessageType.PRE_ROUTING, decision.pre_routing_lookup_messages
            )
            self.messages.record(MessageType.AFTER_ROUTING, len(chunks))
            node = self._nodes[decision.target_node]
            if getattr(self.routing_scheme, "intra_node_dedup", "exact") == "bin":
                node.backup_unit_binned(chunks, representative=superchunk.handprint.champion)
            else:
                node.backup_unit(chunks, handprint=superchunk.handprint)
            self.units_routed += 1
            self.chunk_count += len(chunks)
            self._logical_bytes += superchunk.logical_size

    def run(
        self,
        snapshots: Iterable[TraceSnapshot],
        single_node_deduplication_ratio: Optional[float] = None,
    ) -> SimulationResult:
        """Replay every snapshot and return the aggregated result.

        ``snapshots`` may be any iterable -- in particular a lazy
        :func:`~repro.workloads.trace.iter_trace_snapshots` generator -- and
        is consumed one generation at a time, so a trace never needs to be
        materialised to be simulated.
        """
        for snapshot in snapshots:
            self.backup_snapshot(snapshot)
        return SimulationResult(
            scheme=self.routing_scheme.name,
            num_nodes=self.num_nodes,
            logical_bytes=self._logical_bytes,
            physical_bytes=sum(node.physical_bytes for node in self._nodes),
            node_physical_bytes=[node.physical_bytes for node in self._nodes],
            units_routed=self.units_routed,
            chunk_count=self.chunk_count,
            messages=self.messages,
            single_node_deduplication_ratio=single_node_deduplication_ratio,
        )
