"""EMC-style stateless super-chunk routing.

"Stateless routing is also based on DHT with low overhead and can effectively
balance workload in small clusters, but suffers from severe load imbalance in
large clusters." (paper Section 2.1)

The scheme hashes one representative feature of the super-chunk (here: its
minimum chunk fingerprint, i.e. the handprint champion) and maps it onto a
node with a modulo operation.  No node state is consulted, so there are no
pre-routing fingerprint-lookup messages.
"""

from __future__ import annotations

from repro.core.superchunk import SuperChunk
from repro.routing.base import ClusterView, RoutingDecision, RoutingScheme
from repro.utils.hashing import fingerprint_mod


class StatelessRouting(RoutingScheme):
    """Route a super-chunk to ``min_fingerprint mod N``."""

    name = "stateless"
    granularity = "superchunk"
    requires_file_metadata = False
    is_stateful = False

    def route(self, superchunk: SuperChunk, cluster: ClusterView) -> RoutingDecision:
        self._check_cluster(cluster)
        champion = superchunk.handprint.champion
        target = fingerprint_mod(champion, cluster.num_nodes)
        return RoutingDecision(
            target_node=target,
            pre_routing_lookup_messages=0,
            candidate_nodes=[target],
            resemblances=[],
        )
