"""The similarity index: representative fingerprint -> container id.

"Similarity index is a hash-table based memory data structure, with each of
its entry containing a mapping between a representative fingerprint (RFP) in a
super-chunk handprint and the container ID (CID) where it is stored.  To
support concurrent lookup operations in similarity index by multiple data
streams on multicore deduplication nodes, we adopt a parallel similarity index
lookup design and control the synchronization scheme by allocating a lock per
hash bucket or for a constant number of consecutive hash buckets."
(paper Section 3.3)

The index answers two questions:

* routing pre-query: *how many* representative fingerprints of an incoming
  super-chunk's handprint are already known here (its resemblance count,
  Algorithm 1 step 2), and
* dedup lookup: *which containers* hold the matched representative
  fingerprints, so their fingerprints can be prefetched into the chunk
  fingerprint cache.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

from repro.fingerprint.handprint import Handprint
from repro.utils.striped_lock import StripedLock

DEFAULT_ENTRY_SIZE_BYTES = 40
"""Per-entry RAM footprint assumed by the paper's RAM-usage estimate."""


class SimilarityIndex:
    """In-memory RFP -> CID mapping with striped-lock concurrency control.

    Parameters
    ----------
    num_locks:
        Number of lock stripes protecting the hash buckets (Figure 4(b) studies
        how this number affects parallel lookup throughput).
    entry_size_bytes:
        Assumed RAM footprint per entry, for the RAM-usage accounting.
    """

    def __init__(self, num_locks: int = 1024, entry_size_bytes: int = DEFAULT_ENTRY_SIZE_BYTES):
        self._entries: Dict[bytes, int] = {}  # guarded-by: _locks
        self._locks = StripedLock(num_locks)
        self.entry_size_bytes = entry_size_bytes
        # Approximate counters: each bump happens under some stripe lock, so
        # they are never torn mid-update, but bumps from different stripes may
        # still lose increments against each other.  They feed reports, not
        # control flow.
        self.lookups = 0  # guarded-by: _locks
        self.lookup_hits = 0  # guarded-by: _locks
        self.inserts = 0  # guarded-by: _locks

    def __len__(self) -> int:
        return len(self._entries)  # unguarded-ok: aggregate snapshot read for reporting

    def __contains__(self, representative_fingerprint: bytes) -> bool:
        return representative_fingerprint in self._entries  # unguarded-ok: stats-free membership probe, tolerates racing inserts

    @property
    def num_locks(self) -> int:
        return self._locks.num_stripes

    # ------------------------------------------------------------------ #
    # single-entry operations
    # ------------------------------------------------------------------ #

    def lookup(self, representative_fingerprint: bytes) -> Optional[int]:
        """Return the container id stored for an RFP, or ``None``."""
        with self._locks.lock_for(representative_fingerprint):
            self._locks.acquisitions += 1
            self.lookups += 1
            container_id = self._entries.get(representative_fingerprint)
            if container_id is not None:
                self.lookup_hits += 1
            return container_id

    def insert(self, representative_fingerprint: bytes, container_id: int) -> None:
        """Insert or update the container id for an RFP."""
        with self._locks.lock_for(representative_fingerprint):
            self._locks.acquisitions += 1
            self.inserts += 1
            self._entries[representative_fingerprint] = container_id

    # ------------------------------------------------------------------ #
    # handprint-level operations (stripes by ``Handprint.stripe_keys``)
    # ------------------------------------------------------------------ #

    def resemblance_count(self, handprint: Handprint) -> int:
        """Number of the handprint's RFPs already present in this index.

        This is the count ``r_i`` each candidate node returns during the
        pre-routing query of Algorithm 1 (step 2).
        """
        count = 0
        locks = self._locks
        entries = self._entries
        for fingerprint, key in zip(handprint, handprint.stripe_keys):
            with locks.lock_at(key):
                locks.acquisitions += 1
                self.lookups += 1
                if fingerprint in entries:
                    self.lookup_hits += 1
                    count += 1
        return count

    def lookup_handprint(self, handprint: Handprint) -> List[int]:
        """Container ids of every matched RFP of ``handprint`` (deduplicated,
        ordered); counters advance as one :meth:`lookup` per RFP would."""
        container_ids: Dict[int, None] = {}
        locks = self._locks
        entries = self._entries
        for fingerprint, key in zip(handprint, handprint.stripe_keys):
            with locks.lock_at(key):
                locks.acquisitions += 1
                self.lookups += 1
                container_id = entries.get(fingerprint)
                if container_id is not None:
                    self.lookup_hits += 1
                    container_ids[container_id] = None
        return list(container_ids)

    def index_handprint(self, handprint: Handprint, locations: Mapping[bytes, int]) -> None:
        """Point every RFP of ``handprint`` that ``locations`` places at the
        container holding it (RFPs it does not place are left alone).

        Each entry still takes its own stripe lock (entries hash to different
        stripes), with counters advancing exactly as per-entry inserts would.
        """
        locks = self._locks
        entries = self._entries
        for fingerprint, key in zip(handprint, handprint.stripe_keys):
            container_id = locations.get(fingerprint)
            if container_id is None:
                continue
            with locks.lock_at(key):
                locks.acquisitions += 1
                self.inserts += 1
                entries[fingerprint] = container_id

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #

    @property
    def size_in_bytes(self) -> int:
        """Estimated RAM footprint of the index."""
        return len(self._entries) * self.entry_size_bytes  # unguarded-ok: aggregate snapshot read for reporting

    @property
    def hit_ratio(self) -> float:
        if self.lookups == 0:  # unguarded-ok: approximate-counter snapshot for reporting
            return 0.0
        return self.lookup_hits / self.lookups  # unguarded-ok: approximate-counter snapshot for reporting

    def fingerprints(self) -> Iterable[bytes]:
        """Iterate the representative fingerprints currently indexed.

        A quiesced-index API: callers iterate between backup sessions, not
        while inserts are in flight.
        """
        return iter(self._entries.keys())  # unguarded-ok: quiesced-index iteration between sessions
