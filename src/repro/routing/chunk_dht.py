"""HYDRAstor-style chunk-level DHT routing.

"HYDRAstor [9] performs deduplication at a large-chunk (64KB) granularity
without data sharing among the nodes, and distributes data at the chunk level
using distributed hash table (DHT)." (paper Section 2.1)

Every chunk is routed independently to ``fingerprint mod N``.  Cross-node
redundancy is zero by construction (identical chunks always land on the same
node) but locality is destroyed and, with the large chunk sizes the scheme
needs to stay efficient, intra-node duplicate detection suffers.
"""

from __future__ import annotations

from repro.core.superchunk import SuperChunk
from repro.routing.base import ClusterView, RoutingDecision, RoutingScheme
from repro.utils.hashing import fingerprint_mod

#: The large chunk size HYDRAstor uses (64 KB).
HYDRASTOR_CHUNK_SIZE = 64 * 1024


class ChunkDHTRouting(RoutingScheme):
    """Route each chunk independently by its own fingerprint."""

    name = "chunk_dht"
    granularity = "chunk"
    requires_file_metadata = False
    is_stateful = False

    def route(self, superchunk: SuperChunk, cluster: ClusterView) -> RoutingDecision:
        # The simulator presents each chunk as its own routing unit (a
        # single-chunk SuperChunk); its champion is the chunk fingerprint.
        self._check_cluster(cluster)
        fingerprint = superchunk.handprint.champion
        target = fingerprint_mod(fingerprint, cluster.num_nodes)
        return RoutingDecision(
            target_node=target,
            pre_routing_lookup_messages=0,
            candidate_nodes=[target],
            resemblances=[],
        )
