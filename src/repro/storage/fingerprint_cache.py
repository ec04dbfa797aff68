"""Chunk fingerprint cache with container-granularity prefetching.

"The chunk fingerprint cache ... keeps the chunk fingerprints of recently
accessed containers in RAM.  Once a representative fingerprint is matched by a
lookup request in the similarity index, all the chunk fingerprints belonging
to the mapped container are prefetched into the chunk fingerprint cache ...
A reasonable cache replacement policy is Least-Recently-Used (LRU) on cached
chunk fingerprints." (paper Section 3.3)

The cache is keyed by container id; each entry is the set of fingerprints of
that container together with the container id, so a hit both confirms a chunk
is a duplicate and tells the node which container already stores it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.utils.lru import LRUCache

DEFAULT_CACHE_CAPACITY_CONTAINERS = 1024
"""Default capacity expressed in number of cached containers."""


class ChunkFingerprintCache:
    """LRU cache of per-container fingerprint sets.

    Parameters
    ----------
    capacity_containers:
        Number of containers whose fingerprints can be cached simultaneously.
    """

    def __init__(self, capacity_containers: int = DEFAULT_CACHE_CAPACITY_CONTAINERS):
        self._containers: LRUCache[int, Set[bytes]] = LRUCache(capacity_containers)
        # Reverse map fingerprint -> container id for O(1) duplicate checks.
        self._fingerprint_to_container: Dict[bytes, int] = {}
        self._containers._on_evict = self._handle_eviction
        self.prefetches = 0

    def _handle_eviction(self, container_id: int, fingerprints: Set[bytes]) -> None:
        for fingerprint in fingerprints:
            if self._fingerprint_to_container.get(fingerprint) == container_id:
                del self._fingerprint_to_container[fingerprint]

    # ------------------------------------------------------------------ #
    # population
    # ------------------------------------------------------------------ #

    def prefetch_container(self, container_id: int, fingerprints: Iterable[bytes]) -> None:
        """Load all fingerprints of ``container_id`` into the cache."""
        fingerprint_set = set(fingerprints)
        self._containers.put(container_id, fingerprint_set)
        self._fingerprint_to_container.update(dict.fromkeys(fingerprint_set, container_id))
        self.prefetches += 1

    def add_fingerprints(self, container_id: int, fingerprints: Sequence[bytes]) -> None:
        """Add a batch of fingerprints of one open container in bulk.

        Equivalent to adding them one at a time (``tests/oracles.py``): the
        container entry is created (inserted at most-recently-used, with
        the same eviction consequences) only if absent.
        """
        if not fingerprints:
            return
        existing = self._containers.peek(container_id)
        if existing is None:
            existing = set()
            self._containers.put(container_id, existing)
        existing.update(fingerprints)
        self._fingerprint_to_container.update(dict.fromkeys(fingerprints, container_id))

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #

    def lookup(self, fingerprint: bytes) -> Optional[int]:
        """Return the container id caching ``fingerprint`` (and refresh its recency)."""
        container_id = self._fingerprint_to_container.get(fingerprint)
        if container_id is None:
            # Count the miss on the LRU statistics without touching entries.
            self._containers.misses += 1
            return None
        # Touch the container entry to refresh LRU order and record the hit.
        if self._containers.get(container_id) is None:
            # The reverse map was stale (entry evicted); treat as a miss.
            del self._fingerprint_to_container[fingerprint]
            return None
        return container_id

    def probe_batch(
        self, fingerprints: Iterable[bytes]
    ) -> Tuple[Dict[bytes, int], List[bytes]]:
        """Counter-free snapshot classification of a batch of fingerprints.

        Returns ``(found, stale)``: ``found`` maps each cached fingerprint to
        its container id (insertion-ordered as ``fingerprints``), ``stale``
        lists fingerprints whose reverse-map entry points at an evicted
        container.  Neither statistics nor LRU order are touched; the caller
        replays those effects with :meth:`touch_many`, :meth:`drop_stale` and
        :meth:`commit_lookups` at the points its execution order dictates.
        """
        reverse = self._fingerprint_to_container
        if not reverse:
            return {}, []
        hits = list(filter(reverse.__contains__, fingerprints))
        if not hits:
            return {}, []
        found = dict(zip(hits, map(reverse.__getitem__, hits)))
        entries = self._containers
        # Validate per distinct container, not per fingerprint: stale entries
        # are the rare case, hits usually share a handful of containers.
        invalid = {
            container_id
            for container_id in set(found.values())
            if container_id not in entries
        }
        if not invalid:
            return found, []
        stale = [fp for fp, container_id in found.items() if container_id in invalid]
        for fingerprint in stale:
            del found[fingerprint]
        return found, stale

    def peek_many(self, fingerprints: Iterable[bytes]) -> Set[bytes]:
        """The subset of ``fingerprints`` currently cached, without side effects
        on statistics or LRU order (stale reverse entries are dropped quietly,
        as :meth:`peek` does)."""
        reverse = self._fingerprint_to_container
        candidates = reverse.keys() & (
            fingerprints if isinstance(fingerprints, (set, frozenset)) else set(fingerprints)
        )
        found: Set[bytes] = set()
        for fingerprint in candidates:
            if self._containers.peek(reverse[fingerprint]) is None:
                del reverse[fingerprint]
            else:
                found.add(fingerprint)
        return found

    def touch_many(self, container_ids: Iterable[int]) -> None:
        """Replay a run of hit-recency touches in order (no statistics).

        Only the *last* touch of each container determines the final LRU
        order, so repeated touches are collapsed to one per container,
        preserving last-occurrence order -- a run of hits within one
        prefetched container costs a single reorder.
        """
        ids = container_ids if isinstance(container_ids, list) else list(container_ids)
        if len(ids) > 1:
            ids = reversed(dict.fromkeys(reversed(ids)))
        touch = self._containers.touch
        for container_id in ids:
            touch(container_id)

    def drop_stale(self, fingerprint: bytes) -> None:
        """Drop a reverse-map entry found stale by :meth:`probe_batch`."""
        self._fingerprint_to_container.pop(fingerprint, None)

    def commit_lookups(self, hits: int, misses: int) -> None:
        """Account a batch of lookups in bulk on the LRU statistics."""
        self._containers.record(hits, misses)

    def peek(self, fingerprint: bytes) -> Optional[int]:
        """Return the container id caching ``fingerprint`` without side effects.

        Unlike :meth:`lookup`, neither the hit/miss statistics nor the LRU
        recency order are touched, so read-only probes (routing samples,
        restores) do not skew ``cache_hit_ratio`` or eviction order.
        """
        container_id = self._fingerprint_to_container.get(fingerprint)
        if container_id is None:
            return None
        if self._containers.peek(container_id) is None:
            # The reverse map was stale (entry evicted); drop it quietly.
            del self._fingerprint_to_container[fingerprint]
            return None
        return container_id

    def is_container_cached(self, container_id: int) -> bool:
        return self._containers.peek(container_id) is not None

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #

    @property
    def hits(self) -> int:
        return self._containers.hits

    @property
    def misses(self) -> int:
        return self._containers.misses

    @property
    def hit_ratio(self) -> float:
        return self._containers.hit_ratio

    @property
    def cached_containers(self) -> int:
        return len(self._containers)
