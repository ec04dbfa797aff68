"""Per-node statistics used by the evaluation metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class NodeStats:
    """Counters accumulated by one deduplication node.

    Attributes
    ----------
    logical_bytes:
        Total bytes presented to the node for backup (before deduplication).
    physical_bytes:
        Bytes actually stored (unique chunks only).
    duplicate_chunks / unique_chunks:
        Chunk-level classification counts.
    superchunks_received:
        Number of super-chunks routed to this node.
    intra_node_lookup_messages:
        Chunk-fingerprint lookup messages handled inside the node (cache,
        similarity-index and disk-index probes), the intra-node component of
        the Figure 7 message metric.
    """

    logical_bytes: int = 0
    physical_bytes: int = 0
    duplicate_chunks: int = 0
    unique_chunks: int = 0
    duplicate_bytes: int = 0
    superchunks_received: int = 0
    resemblance_queries: int = 0
    intra_node_lookup_messages: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    disk_index_lookups: int = 0
    disk_index_hits: int = 0
    container_prefetches: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def deduplication_ratio(self) -> float:
        """Logical size divided by physical size (1.0 if nothing stored)."""
        if self.physical_bytes == 0:
            return 1.0 if self.logical_bytes == 0 else float("inf")
        return self.logical_bytes / self.physical_bytes

    @property
    def total_chunks(self) -> int:
        return self.duplicate_chunks + self.unique_chunks

    def as_dict(self) -> Dict[str, float]:
        """Flatten to a plain dict for report tables."""
        return {
            "logical_bytes": self.logical_bytes,
            "physical_bytes": self.physical_bytes,
            "deduplication_ratio": self.deduplication_ratio,
            "duplicate_chunks": self.duplicate_chunks,
            "unique_chunks": self.unique_chunks,
            "duplicate_bytes": self.duplicate_bytes,
            "superchunks_received": self.superchunks_received,
            "resemblance_queries": self.resemblance_queries,
            "intra_node_lookup_messages": self.intra_node_lookup_messages,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "disk_index_lookups": self.disk_index_lookups,
            "disk_index_hits": self.disk_index_hits,
            "container_prefetches": self.container_prefetches,
        }
