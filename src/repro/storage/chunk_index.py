"""The traditional full chunk-fingerprint index (simulated on-disk).

"To support high deduplication effectiveness, we also maintain a traditional
hash-table based chunk fingerprint index on disk to support further comparison
after in-cache fingerprint lookup fails, but we consider it as a relatively
rare occurrence." (paper Section 3.3)

The index maps every stored chunk fingerprint to the container that holds the
chunk.  It lives in a Python dict, but every lookup and insert is counted so
callers can model the cost of on-disk index I/O -- the very bottleneck the
similarity index + fingerprint cache are designed to avoid.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple


class DiskChunkIndex:
    """Simulated on-disk full chunk index: fingerprint -> container id.

    The ``enabled`` flag supports the paper's "similarity-index-only" ablation
    (Figure 5(b)): when disabled, lookups always miss and inserts are dropped,
    so deduplication falls back to whatever the similarity index + cache find.
    """

    def __init__(self, enabled: bool = True, entry_size_bytes: int = 40):
        self.enabled = enabled
        self.entry_size_bytes = entry_size_bytes
        self._index: Dict[bytes, int] = {}
        self.lookups = 0
        self.lookup_hits = 0
        self.inserts = 0

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, fingerprint: bytes) -> bool:
        return self.enabled and fingerprint in self._index

    def lookup(self, fingerprint: bytes) -> Optional[int]:
        """Return the container id that stores ``fingerprint``, or ``None``.

        Counted as a (simulated) disk index I/O.
        """
        self.lookups += 1
        if not self.enabled:
            return None
        container_id = self._index.get(fingerprint)
        if container_id is not None:
            self.lookup_hits += 1
        return container_id

    def peek(self, fingerprint: bytes) -> Optional[int]:
        """Like :meth:`lookup` but without counting a simulated index I/O.

        For read-only probes (restores, routing samples) that must not
        pollute the lookup/hit statistics the backup path is measured by.
        """
        if not self.enabled:
            return None
        return self._index.get(fingerprint)

    def match_batch(self, fingerprints: Iterable[bytes]) -> Dict[bytes, int]:
        """Counter-free ``fingerprint -> container id`` map for batch execution.

        The batched node data plane resolves a wave's cache misses against
        this snapshot and then accounts the lookups it would have issued via
        :meth:`record_lookups`, keeping the simulated-I/O statistics identical
        to the per-chunk path.  One keys-view intersection: the usual answer
        (nothing the cache missed is on disk) never runs a Python loop.
        """
        if not self.enabled:
            return {}
        index = self._index
        return {fp: index[fp] for fp in index.keys() & fingerprints}

    def peek_many(self, fingerprints: Iterable[bytes]) -> Set[bytes]:
        """The subset of ``fingerprints`` present, as a set-intersection probe.

        Counter-free, like :meth:`peek`: routing samples and other read-only
        probes must not pollute the lookup/hit statistics.
        """
        if not self.enabled:
            return set()
        if not isinstance(fingerprints, (set, frozenset)):
            fingerprints = set(fingerprints)
        return self._index.keys() & fingerprints

    def record_lookups(self, lookups: int, hits: int) -> None:
        """Account a batch of simulated index lookups in bulk."""
        self.lookups += lookups
        self.lookup_hits += hits

    def insert(self, fingerprint: bytes, container_id: int) -> None:
        """Record that ``fingerprint`` is stored in ``container_id``."""
        if not self.enabled:
            return
        self.inserts += 1
        self._index[fingerprint] = container_id

    def insert_batch(self, items: Iterable[Tuple[bytes, int]]) -> None:
        """Insert many ``(fingerprint, container id)`` pairs in one dict update."""
        if not self.enabled:
            return
        pairs = items if isinstance(items, dict) else dict(items)
        self._index.update(pairs)
        self.inserts += len(pairs)

    @property
    def size_in_bytes(self) -> int:
        """RAM/disk footprint estimate at ``entry_size_bytes`` per entry."""
        return len(self._index) * self.entry_size_bytes

    @property
    def hit_ratio(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.lookup_hits / self.lookups
