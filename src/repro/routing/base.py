"""Routing scheme interface and the cluster view it operates against."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import List, Sequence

from repro.core.superchunk import SuperChunk
from repro.errors import RoutingError


class ClusterView(ABC):
    """The minimal cluster state a routing scheme may consult.

    Both the full :class:`repro.cluster.cluster.DedupeCluster` and the
    lightweight trace-driven simulator implement this interface, so every
    routing scheme runs unchanged against either backend.
    """

    @property
    @abstractmethod
    def num_nodes(self) -> int:
        """Number of deduplication nodes in the cluster."""

    @abstractmethod
    def node_storage_usage(self, node_id: int) -> int:
        """Physical bytes currently stored on ``node_id``."""

    @abstractmethod
    def resemblance_query(self, node_id: int, handprint) -> int:
        """Ask ``node_id`` how many representative fingerprints of ``handprint``
        it already has in its similarity index (Algorithm 1, step 2)."""

    @abstractmethod
    def sample_match_count(self, node_id: int, fingerprints: Sequence[bytes]) -> int:
        """Ask ``node_id`` how many of ``fingerprints`` it already stores.

        Used by the stateful (broadcast) baseline, which samples the chunk
        fingerprints of a super-chunk and queries every node.
        """

    def routing_probe(
        self, candidate_nodes: Sequence[int], handprint
    ) -> "tuple[List[int], List[int]]":
        """One routing round's worth of node state, fetched together.

        Returns ``(resemblances, usages)``: the resemblance count of each
        candidate (aligned with ``candidate_nodes``) and the storage usage of
        *every* node (indexed by node id).  Batching the round behind one
        call lets RPC-backed views answer it in a single pipelined burst per
        node instead of one blocking round-trip per query; this default keeps
        the serial call order, so in-process statistics are unchanged.
        """
        resemblances = [
            self.resemblance_query(node_id, handprint) for node_id in candidate_nodes
        ]
        usages = [self.node_storage_usage(node_id) for node_id in range(self.num_nodes)]
        return resemblances, usages


@dataclass
class RoutingDecision:
    """The outcome of routing one unit (super-chunk, file or chunk).

    Attributes
    ----------
    target_node:
        The node the unit will be backed up to.
    pre_routing_lookup_messages:
        Number of fingerprint-lookup requests sent before routing (the
        inter-node overhead component of Figure 7).
    candidate_nodes:
        The nodes that were consulted while making the decision.
    resemblances:
        The raw resemblance counts returned by the consulted nodes (for
        diagnostics and tests), aligned with ``candidate_nodes``.
    """

    target_node: int
    pre_routing_lookup_messages: int = 0
    candidate_nodes: List[int] = field(default_factory=list)
    resemblances: List[float] = field(default_factory=list)


class RoutingScheme(ABC):
    """Base class for inter-node data routing schemes.

    Attributes
    ----------
    name:
        Short machine-friendly identifier used by reports and benchmarks.
    granularity:
        The unit the scheme routes: ``"superchunk"``, ``"file"`` or
        ``"chunk"``.  The simulator partitions the backup stream accordingly.
    requires_file_metadata:
        ``True`` for file-granularity schemes (Extreme Binning), which cannot
        run on fingerprint-only traces lacking file boundaries -- exactly why
        the paper omits Extreme Binning on the Mail and Web traces.
    """

    name: str = "base"
    granularity: str = "superchunk"
    requires_file_metadata: bool = False
    is_stateful: bool = False

    #: How the target node deduplicates a routed unit: ``"exact"`` (against the
    #: node's full chunk index) or ``"bin"`` (only against the bin addressed by
    #: the unit's representative fingerprint, as Extreme Binning does).
    intra_node_dedup: str = "exact"

    @abstractmethod
    def route(self, superchunk: SuperChunk, cluster: ClusterView) -> RoutingDecision:
        """Choose the target node for ``superchunk`` in ``cluster``."""

    def _check_cluster(self, cluster: ClusterView) -> None:
        if cluster.num_nodes < 1:
            raise RoutingError("cannot route in a cluster with no nodes")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
