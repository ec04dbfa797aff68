"""Extreme Binning: file-similarity based stateless routing.

"Extreme Binning [8] is a file-similarity based cluster deduplication scheme.
It can easily route similar data to the same deduplication node by extracting
similarity characteristics in backup streams, but often suffers from low
duplicate elimination ratio when data streams lack detectable similarity.  It
also has high data skew for the stateless routing due to the skew of file size
distribution." (paper Section 2.1)

Extreme Binning's representative feature is the *minimum chunk fingerprint of
the whole file*; the file is routed to ``min_fp mod N`` and deduplicated
against the bin indexed by that representative fingerprint on the target node.
Because the routing unit is the file, the scheme needs file boundaries and is
therefore unavailable on fingerprint-only traces (Mail, Web), exactly as in
the paper's evaluation.
"""

from __future__ import annotations

from repro.core.superchunk import SuperChunk
from repro.routing.base import ClusterView, RoutingDecision, RoutingScheme
from repro.utils.hashing import fingerprint_mod


class ExtremeBinningRouting(RoutingScheme):
    """Route whole files by their minimum chunk fingerprint.

    Intra-node deduplication in Extreme Binning is *bin-scoped*: an incoming
    file is only deduplicated against the bin addressed by its representative
    (minimum) fingerprint, never against the node's whole chunk index.  The
    simulator honours this through ``intra_node_dedup = "bin"``, which is what
    caps Extreme Binning's deduplication ratio below exact deduplication.
    """

    name = "extreme_binning"
    granularity = "file"
    requires_file_metadata = True
    is_stateful = False
    intra_node_dedup = "bin"

    def route(self, superchunk: SuperChunk, cluster: ClusterView) -> RoutingDecision:
        # The simulator presents each file as one routing unit (a SuperChunk
        # built from exactly the file's chunks), so the champion fingerprint
        # of the unit *is* the file's minimum chunk fingerprint.
        self._check_cluster(cluster)
        representative = superchunk.handprint.champion
        target = fingerprint_mod(representative, cluster.num_nodes)
        return RoutingDecision(
            target_node=target,
            pre_routing_lookup_messages=0,
            candidate_nodes=[target],
            resemblances=[],
        )
