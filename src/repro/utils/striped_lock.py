"""Striped locking for the parallel similarity index.

The paper controls concurrent similarity-index lookups "by allocating a lock
per hash bucket or for a constant number of consecutive hash buckets"
(Section 3.3) and studies the effect of the number of locks in Figure 4(b).
:class:`StripedLock` implements exactly that: a fixed array of locks, with a
key hashed to one stripe.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator
from repro.errors import ValidationError


def stripe_key(key: bytes) -> int:
    """The integer :meth:`StripedLock.stripe_for` stripes a ``bytes`` key by
    (its leading 64 bits).  A caller that probes the same key at many indexes
    converts it once and takes each lock through :meth:`StripedLock.lock_at`."""
    return int.from_bytes(key[:8] or b"\x00", "big")


class StripedLock:
    """A fixed-size array of locks indexed by hashing a key.

    Parameters
    ----------
    num_stripes:
        Number of independent locks.  One lock serialises everything; a larger
        number allows more concurrency at the cost of per-lock overhead (the
        trade-off Figure 4(b) of the paper measures).
    """

    def __init__(self, num_stripes: int = 1024):
        if num_stripes < 1:
            raise ValidationError("num_stripes must be >= 1")
        self._locks = [threading.Lock() for _ in range(num_stripes)]
        self.acquisitions = 0

    @property
    def num_stripes(self) -> int:
        return len(self._locks)

    def stripe_for(self, key: bytes) -> int:
        """Return the stripe index that guards ``key``."""
        if isinstance(key, bytes):
            value = int.from_bytes(key[:8] or b"\x00", "big")
        else:
            value = hash(key)
        return value % len(self._locks)

    def lock_for(self, key: bytes) -> threading.Lock:
        """The raw stripe lock guarding ``key``.

        Hot paths use ``with locks.lock_for(key):`` to get the C-level lock
        context manager instead of a generator-based one; the caller is
        responsible for bumping :attr:`acquisitions` inside the block.
        """
        return self._locks[self.stripe_for(key)]

    def lock_at(self, key: int) -> threading.Lock:
        """:meth:`lock_for` of the ``bytes`` key whose :func:`stripe_key` is
        ``key`` (same stripe, same caller duties)."""
        return self._locks[key % len(self._locks)]

    @contextmanager
    def locked(self, key: bytes) -> Iterator[None]:
        """Context manager acquiring the stripe lock that guards ``key``."""
        lock = self._locks[self.stripe_for(key)]
        lock.acquire()
        self.acquisitions += 1
        try:
            yield
        finally:
            lock.release()

    @contextmanager
    def locked_stripe(self, stripe: int) -> Iterator[None]:
        """Context manager acquiring a specific stripe by index."""
        lock = self._locks[stripe % len(self._locks)]
        lock.acquire()
        self.acquisitions += 1
        try:
            yield
        finally:
            lock.release()
