"""A small LRU cache used by the chunk fingerprint cache.

The paper describes the chunk fingerprint cache as "a key-value structure ...
constructed by a doubly linked list indexed by a hash table" with LRU
replacement (Section 3.3).  Python's ``OrderedDict`` provides exactly that
structure, so :class:`LRUCache` is a thin, explicit wrapper around it that adds
capacity enforcement, hit/miss statistics and an eviction callback so the
fingerprint cache can account for evicted containers.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Generic, Iterator, Optional, Tuple, TypeVar
from repro.errors import ValidationError

K = TypeVar("K")
V = TypeVar("V")


class LRUCache(Generic[K, V]):
    """A fixed-capacity least-recently-used mapping.

    Parameters
    ----------
    capacity:
        Maximum number of entries.  Must be at least 1.
    on_evict:
        Optional callback invoked with ``(key, value)`` for every entry evicted
        due to capacity pressure (not for explicit :meth:`remove` calls).
    """

    def __init__(self, capacity: int, on_evict: Optional[Callable[[K, V], None]] = None):
        if capacity < 1:
            raise ValidationError("LRUCache capacity must be >= 1")
        self._capacity = capacity
        self._entries: "OrderedDict[K, V]" = OrderedDict()
        self._on_evict = on_evict
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[K]:
        return iter(self._entries)

    def get(self, key: K) -> Optional[V]:
        """Return the cached value and mark it most-recently-used, or ``None``."""
        if key not in self._entries:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return self._entries[key]

    def peek(self, key: K) -> Optional[V]:
        """Return the cached value without updating recency or statistics."""
        return self._entries.get(key)

    def touch(self, key: K) -> bool:
        """Mark ``key`` most-recently-used without touching hit/miss statistics.

        Returns whether the key was present.  Batched lookups use this to
        replay the recency effects of a run of hits after counting them in
        bulk with :meth:`record`.
        """
        if key not in self._entries:
            return False
        self._entries.move_to_end(key)
        return True

    def record(self, hits: int, misses: int) -> None:
        """Account a batch of lookups in bulk (statistics only)."""
        self.hits += hits
        self.misses += misses

    def put(self, key: K, value: V) -> None:
        """Insert or update an entry, evicting the LRU entry if over capacity."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self._capacity:
            evicted_key, evicted_value = self._entries.popitem(last=False)
            self.evictions += 1
            if self._on_evict is not None:
                self._on_evict(evicted_key, evicted_value)

    def clear(self) -> None:
        """Drop all entries (statistics are preserved)."""
        self._entries.clear()

    def items(self) -> Iterator[Tuple[K, V]]:
        """Iterate entries from least- to most-recently used."""
        return iter(self._entries.items())

    @property
    def hit_ratio(self) -> float:
        """Fraction of :meth:`get` calls that hit, 0.0 before any lookup."""
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total
