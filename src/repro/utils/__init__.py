"""Utility helpers shared across the repro library.

The submodules are intentionally small and dependency-free:

* :mod:`repro.utils.hashing` -- digest helpers and digest/integer conversions.
* :mod:`repro.utils.units` -- byte-size parsing and human-readable formatting.
* :mod:`repro.utils.stats` -- mean / standard deviation / skew helpers used by
  the load-balance metrics.
* :mod:`repro.utils.lru` -- a doubly-linked-list LRU used by the chunk
  fingerprint cache.
* :mod:`repro.utils.striped_lock` -- striped locking used by the parallel
  similarity index.
* :mod:`repro.utils.guarded_lock` -- the locks of ``# guarded-by`` classes,
  ownership-checked under ``REPRO_LOCK_ASSERTS=1``.
* :mod:`repro.utils.buffers` -- borrowing a buffer in place for a
  :mod:`ctypes` call (the gear kernel and the libdeflate codec).
"""

from repro.utils.hashing import digest_bytes, digest_to_int, fingerprint_mod
from repro.utils.lru import LRUCache
from repro.utils.striped_lock import StripedLock
from repro.utils.units import KiB, MiB, GiB, format_bytes
from repro.utils.stats import mean, population_stddev, coefficient_of_variation

__all__ = [
    "digest_bytes",
    "digest_to_int",
    "fingerprint_mod",
    "LRUCache",
    "StripedLock",
    "KiB",
    "MiB",
    "GiB",
    "format_bytes",
    "mean",
    "population_stddev",
    "coefficient_of_variation",
]
