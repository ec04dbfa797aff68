"""The deduplication server node.

Implements the intra-node backup path described in Section 3.3 of the paper:

1. The node receives a super-chunk whose handprint has already been matched
   against its similarity index during routing.
2. For every matched representative fingerprint the mapped container's
   fingerprints are prefetched into the chunk fingerprint cache.
3. Each chunk fingerprint of the super-chunk is looked up first in the cache,
   then (on a miss) in the on-disk chunk index.
4. Chunks still unmatched are unique: they are appended to the stream's open
   container, the similarity index is updated with the super-chunk's handprint
   pointing at that container, and the disk index learns the new fingerprints.

The node runs the pipeline as one **batched data plane**: the whole
super-chunk goes through set/dict-view phases -- one intra-super-chunk dedupe
pass, a snapshot cache probe per prefetch wave, one counter-free disk-index
resolution, one batched container append and one batched index/cache/handprint
update.  Per-chunk Python calls survive only as plain dict operations, which
is what lifts the node out of the end-to-end ingest hot path.

The per-chunk execution of the same steps (one cache + disk-index call per
chunk) is the executable specification: it lives in ``tests/oracles.py``,
where the plane is tested against it for identical results, statistics and
message accounting.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import compress, count, filterfalse, groupby
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, cast

from repro.core.superchunk import SuperChunk
from repro.errors import (
    ChunkNotFoundError,
    NodeUnavailableError,
    RecoveryError,
    StorageError,
    ValidationError,
)
from repro.fingerprint.fingerprinter import ChunkRecord
from repro.fingerprint.handprint import (
    DEFAULT_HANDPRINT_SIZE,
    Handprint,
    smallest_fingerprints,
)
from repro.node.stats import NodeStats
from repro.storage.backends import (
    ENV_CONTAINER_BACKEND,
    FileContainerBackend,
    SpillRecovery,
    build_container_backend,
    container_backend_factory,
)
from repro.storage.chunk_index import DiskChunkIndex
from repro.storage.container import DEFAULT_CONTAINER_CAPACITY, StoredSection
from repro.storage.container_store import ContainerStore
from repro.storage.fingerprint_cache import (
    DEFAULT_CACHE_CAPACITY_CONTAINERS,
    ChunkFingerprintCache,
)
from repro.storage.similarity_index import SimilarityIndex
from repro.utils.guarded_lock import GuardLock, assert_owned, guarded_lock
from repro.utils.stats import count_matched_occurrences

if TYPE_CHECKING:
    from repro.cluster.replication import ReplicaStore

_LENGTH = attrgetter("length")


@dataclass(frozen=True)
class NodeConfig:
    """Configuration of a deduplication node.

    Attributes
    ----------
    container_capacity:
        Data-section capacity of each container.
    cache_capacity_containers:
        How many containers' fingerprints the chunk fingerprint cache holds.
    enable_disk_index:
        When ``False`` the node runs in "similarity-index-only" mode, the
        approximate-deduplication ablation of Figure 5(b).
    container_backend:
        Registered container backend name (``"memory"`` or ``"file"``);
        ``None`` leaves the choice to :func:`resolve_container_backend`.
    storage_dir:
        Directory for disk-backed container backends.  Each node uses its own
        ``node-<id>`` subdirectory so container files never collide; ``None``
        lets the backend create a private temporary directory.
    container_compression:
        Spill compression codec for disk-backed backends (``"none"`` or
        ``"zlib"``).  ``None`` defers to the ``REPRO_CONTAINER_COMPRESSION``
        environment variable, falling back to uncompressed spill files.
    """

    container_capacity: int = DEFAULT_CONTAINER_CAPACITY
    cache_capacity_containers: int = DEFAULT_CACHE_CAPACITY_CONTAINERS
    enable_disk_index: bool = True
    container_backend: Optional[str] = None
    storage_dir: Optional[str] = None
    container_compression: Optional[str] = None


def resolve_container_backend(config: NodeConfig) -> str:
    """The container backend a node built from ``config`` uses: the explicit
    ``container_backend``, else the ``REPRO_CONTAINER_BACKEND`` environment
    variable, else ``"file"`` when a ``storage_dir`` is set, else
    ``"memory"``.  An unregistered name raises
    :class:`~repro.errors.StorageError`."""
    name = (
        config.container_backend
        or os.environ.get(ENV_CONTAINER_BACKEND)
        or ("file" if config.storage_dir else "memory")
    )
    container_backend_factory(name)  # StorageError
    return name


@dataclass
class SuperChunkBackupResult:
    """Outcome of backing up one super-chunk at a node."""

    node_id: int
    unique_chunks: int
    duplicate_chunks: int
    unique_bytes: int
    duplicate_bytes: int
    chunk_locations: Dict[bytes, int]

    @property
    def total_chunks(self) -> int:
        return self.unique_chunks + self.duplicate_chunks

    @property
    def logical_bytes(self) -> int:
        return self.unique_bytes + self.duplicate_bytes


class DedupeNode:
    """One deduplication server of the cluster.

    Parameters
    ----------
    node_id:
        Identifier of this node within the cluster (0-based).
    config:
        Structural configuration; defaults follow the paper's choices.
    """

    def __init__(self, node_id: int, config: Optional[NodeConfig] = None):
        self.node_id = node_id
        self.config = config or NodeConfig()
        self.similarity_index = SimilarityIndex()
        self.fingerprint_cache = ChunkFingerprintCache(  # guarded-by: _plane_lock
            self.config.cache_capacity_containers
        )
        storage_dir = self.config.storage_dir
        if storage_dir is not None:
            storage_dir = os.path.join(storage_dir, f"node-{node_id}")
        self.container_backend = build_container_backend(
            resolve_container_backend(self.config),
            storage_dir=storage_dir,
            compression=self.config.container_compression,
        )
        self.container_store = ContainerStore(
            self.config.container_capacity, backend=self.container_backend
        )
        self.disk_index = DiskChunkIndex(enabled=self.config.enable_disk_index)  # guarded-by: _plane_lock
        self.stats = NodeStats()  # guarded-by: _plane_lock
        # Availability flag consulted by the data-plane entry points; a plain
        # bool whose reads are atomic attribute loads (mark_down/mark_up flip
        # it; there is no state to tear).
        self._down = False
        # Mirrored containers from predecessor nodes; installed by the
        # cluster's ReplicationManager when replication_factor > 1.
        self.replica_store: Optional["ReplicaStore"] = None
        # The data plane is deliberately single-writer per node: concurrent
        # ingest lanes parallelise the chunk+fingerprint front end, while
        # super-chunks entering this node serialise here (the plane itself is
        # an order of magnitude faster than the front end, so the lock is not
        # the scaling limit).  Different nodes still ingest concurrently.
        self._plane_lock: GuardLock = guarded_lock("DedupeNode._plane_lock")

    # ------------------------------------------------------------------ #
    # routing support (pre-routing query)
    # ------------------------------------------------------------------ #

    def resemblance_query(self, handprint: Handprint) -> int:
        """Count how many of the handprint's RFPs this node already stores.

        This is the message a candidate node answers during Algorithm 1 step 2.
        """
        with self._plane_lock:
            self.stats.resemblance_queries += 1
        # The similarity index takes its own stripe locks; keeping the count
        # outside the plane lock stops routing queries from serialising
        # behind an in-flight super-chunk.
        return self.similarity_index.resemblance_count(handprint)

    @property
    def storage_usage(self) -> int:
        """Physical bytes stored on this node (capacity-load-balance input)."""
        return self.container_store.stored_bytes

    def sample_match_count(self, fingerprints: Sequence[bytes]) -> int:
        """How many of ``fingerprints`` this node already stores (the stateful
        baseline's routing sample), counting every occurrence of a match.

        A read-only set intersection over peek-style batch lookups: neither
        cache hit/miss statistics nor LRU recency are polluted, and a sample
        costs two dict-view operations instead of a probe per fingerprint.
        """
        if not isinstance(fingerprints, (list, tuple)):
            fingerprints = list(fingerprints)
        distinct = set(fingerprints)
        matched = self.disk_index.peek_many(distinct)  # unguarded-ok: stats-free peek of an insert-only index; a routing sample tolerates racing an in-flight backup
        remaining = distinct - matched
        if remaining:
            matched |= self.fingerprint_cache.peek_many(remaining)  # unguarded-ok: stats-free read-only peek, as above
        return count_matched_occurrences(fingerprints, distinct, matched)

    # ------------------------------------------------------------------ #
    # availability
    # ------------------------------------------------------------------ #

    @property
    def is_down(self) -> bool:
        """Whether the node is marked unavailable (data plane refuses work)."""
        return self._down

    def mark_down(self) -> None:
        """Mark the node unavailable: the data plane (backup and restore
        reads) raises :class:`~repro.errors.NodeUnavailableError` until
        :meth:`mark_up`.  The failure model the cluster failover path covers;
        routing queries are unaffected (see README, Durability & failover)."""
        self._down = True

    def mark_up(self) -> None:
        self._down = False

    def _check_available(self) -> None:
        if self._down:
            raise NodeUnavailableError(f"node {self.node_id} is marked down")

    # ------------------------------------------------------------------ #
    # backup path
    # ------------------------------------------------------------------ #

    def _lookup_chunk_locked(self, fingerprint: bytes) -> Optional[int]:  # holds-lock: _plane_lock
        assert_owned(self._plane_lock, "DedupeNode._lookup_chunk_locked")
        self.stats.intra_node_lookup_messages += 1
        container_id = self.fingerprint_cache.lookup(fingerprint)
        if container_id is not None:
            self.stats.cache_hits += 1
            return container_id
        self.stats.cache_misses += 1
        if not self.disk_index.enabled:
            return None
        self.stats.disk_index_lookups += 1
        container_id = self.disk_index.lookup(fingerprint)
        if container_id is not None:
            self.stats.disk_index_hits += 1
            # Exploit locality: prefetch the whole container's fingerprints.
            self._prefetch_container(container_id)
        return container_id

    def _prefetch_container(self, container_id: int) -> None:  # holds-lock: _plane_lock
        if self.fingerprint_cache.is_container_cached(container_id):
            return
        fingerprints = self.container_store.prefetch_metadata(container_id)
        self.fingerprint_cache.prefetch_container(container_id, fingerprints)
        self.stats.container_prefetches += 1

    def backup_superchunk(self, superchunk: SuperChunk) -> SuperChunkBackupResult:
        """Deduplicate and store one super-chunk routed to this node.

        Safe under concurrent callers (parallel ingest lanes, concurrent
        backup sessions): super-chunks execute the data plane one at a time
        per node, so statistics, cache state and container layout evolve
        exactly as a serial arrival order would produce them.
        """
        self._check_available()
        with self._plane_lock:
            return self._backup_superchunk_batched(superchunk)

    def _backup_superchunk_batched(  # holds-lock: _plane_lock
        self, superchunk: SuperChunk
    ) -> SuperChunkBackupResult:
        """The batched node data plane: the super-chunk crosses dedupe,
        container append and index update as columns.

        Phase 1 dedupes the fingerprint column against itself.  Phase 2
        classifies it a *wave* at a time against a snapshot of the cache and
        the disk index.  A wave none of whose cache misses is on disk is
        committed in bulk (:meth:`_commit_wave`): hits are duplicates, misses
        are unique, one container append, one update per index.  Otherwise
        the wave is cut before its first miss the disk index holds, and that
        one chunk takes the per-chunk path (:meth:`_lookup_chunk_locked`:
        disk hit, container prefetch) before what follows is probed again
        against the cache its prefetch widened.

        Whenever no cache eviction interleaves within a single super-chunk
        (any realistic capacity -- the default holds 1024 containers), every
        counter (node stats, cache LRU statistics and recency order,
        disk-index I/O) ends exactly where the per-chunk reference path
        (``tests/oracles.py``) leaves it.  Under adversarial eviction
        pressure the two execution orders may attribute a duplicate to the
        cache vs the disk index
        differently (and, with the disk index disabled, classify it
        differently), because a wave is classified against one snapshot
        while the reference path interleaves its stores;
        ``tests/test_node_batch_equivalence.py`` pins the exact contract.
        """
        assert_owned(self._plane_lock, "DedupeNode._backup_superchunk_batched")
        stats = self.stats
        stats.superchunks_received += 1
        stats.logical_bytes += superchunk.logical_size

        # Step 1: similarity-index lookup for the handprint, prefetch matched
        # containers' fingerprints into the cache.
        for container_id in self.similarity_index.lookup_handprint(superchunk.handprint):
            self._prefetch_container(container_id)

        # Phase 1: intra-super-chunk dedupe.  Later copies resolve to wherever
        # the first copy goes (same fingerprint key in chunk_locations).
        chunks = superchunk.chunks
        fingerprints = superchunk.fingerprints
        if len(set(fingerprints)) != len(fingerprints):
            first: Dict[bytes, ChunkRecord] = {}
            for chunk in chunks:
                first.setdefault(chunk.fingerprint, chunk)
            fingerprints = list(first)
            chunks = list(first.values())

        # Phase 2-4, a wave at a time (one wave, unless the disk index holds
        # something the cache missed).
        cache = self.fingerprint_cache
        disk_index = self.disk_index
        chunk_locations: Dict[bytes, int] = {}
        unique_chunks = 0
        unique_bytes = 0
        total = len(fingerprints)
        index, end = 0, total
        while index < total:
            wave = fingerprints[index:end]
            found, stale = cache.probe_batch(wave)
            if not found:
                misses = wave
            elif len(found) == len(wave):
                misses = []
            else:
                misses = list(filterfalse(found.__contains__, wave))
            on_disk = disk_index.match_batch(misses) if misses else None
            if on_disk:
                cut = next(compress(count(), map(on_disk.__contains__, wave)))
                if cut:
                    # Classify what precedes the first on-disk miss by itself.
                    end = index + cut
                    continue
                chunk_locations[wave[0]] = self._lookup_chunk_locked(wave[0])
                index += 1
                continue
            unique = chunks[index:end] if misses else []
            if found and misses:
                unique = list(compress(unique, map(set(misses).__contains__, wave)))
            self._commit_wave(
                wave, found, stale, misses, unique, superchunk.stream_id, chunk_locations
            )
            if len(unique) == len(superchunk.chunks):
                unique_bytes = superchunk.logical_size
            elif unique:
                unique_bytes += sum(map(_LENGTH, unique))
            unique_chunks += len(unique)
            index, end = end, total

        # Step 4: index the super-chunk's handprint.
        self.similarity_index.index_handprint(superchunk.handprint, chunk_locations)

        duplicate_chunks = len(superchunk.chunks) - unique_chunks
        duplicate_bytes = superchunk.logical_size - unique_bytes
        stats.physical_bytes += unique_bytes
        stats.unique_chunks += unique_chunks
        stats.duplicate_chunks += duplicate_chunks
        stats.duplicate_bytes += duplicate_bytes

        return SuperChunkBackupResult(
            node_id=self.node_id,
            unique_chunks=unique_chunks,
            duplicate_chunks=duplicate_chunks,
            unique_bytes=unique_bytes,
            duplicate_bytes=duplicate_bytes,
            chunk_locations=chunk_locations,
        )

    def _commit_wave(  # holds-lock: _plane_lock
        self,
        wave: List[bytes],
        found: Dict[bytes, int],
        stale: List[bytes],
        misses: List[bytes],
        unique: List[ChunkRecord],
        stream_id: int,
        chunk_locations: Dict[bytes, int],
    ) -> None:
        """Commit a wave of distinct fingerprints none of whose cache misses
        is on disk: ``found`` are duplicates, ``misses`` (``unique`` their
        records, both in wave order) are stored.  Counters and LRU recency
        advance exactly as the per-chunk path's probe sequence would: the
        hits' touches in wave order, each container the append opens entering
        the cache at the position of its first chunk.
        """
        stats = self.stats
        cache = self.fingerprint_cache
        disk_index = self.disk_index
        for fingerprint in stale:
            cache.drop_stale(fingerprint)
        hits = len(found)
        missed = len(misses)
        stats.intra_node_lookup_messages += hits + missed
        cache.commit_lookups(hits, missed)
        stats.cache_hits += hits
        stats.cache_misses += missed
        if disk_index.enabled:
            disk_index.record_lookups(missed, 0)
            stats.disk_index_lookups += missed
        chunk_locations.update(found)
        touched = list(found.values())
        replayed = 0
        if unique:
            container_ids = self.container_store.store_chunks(unique, stream_id=stream_id)
            start = 0
            for container_id, run in groupby(container_ids):
                stop = start + len(list(run))
                stored = misses[start:stop]
                placed = dict.fromkeys(stored, container_id)
                disk_index.insert_batch(placed)
                chunk_locations.update(placed)
                if touched and not cache.is_container_cached(container_id):
                    before = wave.index(stored[0]) - start
                    cache.touch_many(touched[replayed:before])
                    replayed = before
                cache.add_fingerprints(container_id, stored)
                start = stop
        cache.touch_many(touched[replayed:])

    def flush(self) -> None:
        """Seal open containers at the end of a backup session.

        Taken under the plane lock so a flush from one session never
        interleaves inside another lane's in-flight super-chunk.
        """
        with self._plane_lock:
            self.container_store.flush()

    # ------------------------------------------------------------------ #
    # restore path
    # ------------------------------------------------------------------ #

    def _resolve_restore_container(
        self, fingerprint: bytes, container_id: Optional[int]
    ) -> int:
        """Resolve where a chunk lives for restore, without touching statistics.

        A container id known from the file recipe is used directly; otherwise
        the node falls back to read-only peeks of its cache and disk index,
        so restoring never skews ``cache_hit_ratio``, LRU eviction order or
        the disk index I/O counters.  These peeks are a primary-only
        affordance: replica failover reads cannot run them (a replica holds
        no predecessor indexes), which is why recipes written by the backup
        client always carry container ids and the peeks only serve
        direct-node reads that omitted one.
        """
        if container_id is None:
            container_id = self.fingerprint_cache.peek(fingerprint)  # unguarded-ok: stats-free read-only peek; restore tolerates racing an in-flight backup, and failover never reaches here (replica reads require recipe container ids)
        if container_id is None:
            container_id = self.disk_index.peek(fingerprint)  # unguarded-ok: stats-free peek of an insert-only index; primary-only, see docstring
        if container_id is None:
            raise ChunkNotFoundError(
                f"chunk {fingerprint.hex()} is not stored on node {self.node_id}"
            )
        return container_id

    def read_chunks(
        self, fingerprints: List[bytes], container_ids: Sequence[Optional[int]]
    ) -> List[bytes]:
        """Restore reads: payloads aligned with two columns, fingerprints and
        the container ids a recipe holds for them.

        Container ids missing from a recipe are resolved through read-only
        peeks (:meth:`_resolve_restore_container`), and the columns go
        through one grouped
        :meth:`~repro.storage.container_store.ContainerStore.read_chunks`
        call, so each distinct container is read (and, when spilled, its data
        section loaded) once for the batch.  Columns of unequal length raise
        :class:`~repro.errors.ValidationError`.  Statistics stay untouched,
        as on every restore path.
        """
        self._check_available()
        if len(container_ids) != len(fingerprints):
            raise ValidationError(f"{len(fingerprints)} fingerprints, {len(container_ids)} ids")
        if None in container_ids:
            container_ids = list(
                map(self._resolve_restore_container, fingerprints, container_ids)
            )
        payloads = self.container_store.read_chunks(cast(List[int], container_ids), fingerprints)
        if None in payloads:
            position = payloads.index(None)
            raise ChunkNotFoundError(
                f"container {container_ids[position]} on node {self.node_id} does not "
                f"hold chunk {fingerprints[position].hex()}"
            )
        return cast(List[bytes], payloads)

    # ------------------------------------------------------------------ #
    # replication (the one mirroring seam: the in-process manager calls these
    # directly, the transport worker serves them as RPCs)
    # ------------------------------------------------------------------ #

    def export_container(self, container_id: int) -> StoredSection:
        """One of this node's sealed containers in its stored form, ready to
        mirror: on a file backend the spill file's bytes read raw, never a
        payload load (see
        :meth:`~repro.storage.backends.ContainerBackend.export_stored`)."""
        container = self.container_store.get(container_id)
        return self.container_backend.export_stored(container)

    def store_replica(
        self, origin_node_id: int, container_id: int, section: StoredSection
    ) -> None:
        """Adopt a predecessor's exported container into this node's replica
        store (idempotent per ``(origin, container_id)``)."""
        store = self.replica_store
        if store is None:
            raise StorageError(f"node {self.node_id} hosts no replica store")
        store.adopt(origin_node_id, container_id, section)

    def sealed_container_ids(self) -> List[int]:
        """Every sealed container this node owns, in id order (what a
        restarted successor must be re-sent)."""
        store = self.container_store
        return sorted(
            container_id
            for container_id in store.container_ids()
            if store.get(container_id).sealed
        )

    def replica_read(
        self, origin_node_id: int, fingerprints: List[bytes], container_ids: List[int]
    ) -> List[Optional[bytes]]:
        """Failover reads from the replicas this node holds for
        ``origin_node_id``: payloads aligned with the fingerprint and
        container-id columns, ``None`` where no replica has the chunk.
        Stats-free like every restore path (replicas never dedupe); the
        caller skips holders that are marked down."""
        store = self.replica_store
        if store is None:
            return [None] * len(fingerprints)
        return store.read_chunks(origin_node_id, fingerprints, container_ids)

    def replica_stats(self) -> Tuple[int, int]:
        """``(containers, bytes)`` this node mirrors for its predecessors."""
        store = self.replica_store
        if store is None:
            return 0, 0
        return store.container_count(), store.snapshot_bytes()

    # ------------------------------------------------------------------ #
    # crash recovery (the disaster path)
    # ------------------------------------------------------------------ #

    def recover_storage(self, handprint_size: int = DEFAULT_HANDPRINT_SIZE) -> SpillRecovery:
        """Reopen this node's spill directory after a hard kill.

        Replays the file backend's manifest journal into the (empty)
        container store, then rebuilds every in-RAM index from the recovered
        container metadata (:meth:`rebuild_indexes`).  Only meaningful on a
        freshly-constructed node whose backend points at the survivor
        directory; raises :class:`~repro.errors.RecoveryError` for in-memory
        backends (nothing survives a kill to recover from).
        """
        backend = self.container_backend
        if not isinstance(backend, FileContainerBackend):
            raise RecoveryError(
                f"node {self.node_id} uses the {backend.name!r} backend, which "
                "has no journal to recover from"
            )
        with self._plane_lock:
            recovery = backend.replay_journal()
            self.container_store.adopt_recovered(recovery)
            self._rebuild_indexes_locked(handprint_size)
        return recovery

    def rebuild_indexes(
        self, handprint_size: int = DEFAULT_HANDPRINT_SIZE
    ) -> Dict[str, int]:
        """Reconstruct chunk index, fingerprint cache and similarity index
        from the container store's (recovered) metadata sections.

        The indexes are derived state: every fingerprint->container mapping,
        every similarity entry and the cache's seed population can be rebuilt
        from the metadata the manifest journal persists.  The similarity
        index is reseeded with each container's ``handprint_size`` smallest
        fingerprints -- the same min-k selection handprinting uses, so a
        repeated super-chunk finds its container again after recovery.  The
        cache is seeded with the most recently sealed containers up to its
        capacity.  Statistics are left untouched (historical counters did not
        survive the crash, and the rebuild does not pretend otherwise).
        """
        with self._plane_lock:
            return self._rebuild_indexes_locked(handprint_size)

    def _rebuild_indexes_locked(self, handprint_size: int) -> Dict[str, int]:  # holds-lock: _plane_lock
        assert_owned(self._plane_lock, "DedupeNode._rebuild_indexes_locked")
        disk_index = DiskChunkIndex(enabled=self.config.enable_disk_index)
        similarity = SimilarityIndex()
        cache = ChunkFingerprintCache(self.config.cache_capacity_containers)
        container_ids = sorted(self.container_store.container_ids())
        cache_seed_ids = set(container_ids[-self.config.cache_capacity_containers:])
        for container_id in container_ids:
            container = self.container_store.get(container_id)
            fingerprints = container.fingerprints()
            disk_index.insert_batch(dict.fromkeys(fingerprints, container_id))
            representatives = smallest_fingerprints(set(fingerprints), handprint_size)
            similarity.index_handprint(
                Handprint(tuple(representatives)),
                dict.fromkeys(representatives, container_id),
            )
            if container_id in cache_seed_ids:
                cache.prefetch_container(container_id, fingerprints)
        self.disk_index = disk_index
        self.similarity_index = similarity
        self.fingerprint_cache = cache
        return {
            "containers": len(container_ids),
            "chunks": self.container_store.stored_chunks,
            "chunk_index_entries": len(disk_index),
            "similarity_index_entries": len(similarity),
            "cached_containers": len(cache_seed_ids),
        }

    def close(self) -> None:
        """Release backend resources (spill caches, temp dirs, replica spill)."""
        self.container_backend.close()
        replica_store = self.replica_store
        if replica_store is not None:
            replica_store.close()

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    def describe(self) -> Dict[str, float]:
        """A flat summary combining stats with storage/cache counters.

        A reporting snapshot: values may be mid-super-chunk if a backup is in
        flight, which callers (progress displays, end-of-run reports after
        ``flush``) accept by contract.
        """
        summary = self.stats.as_dict()  # unguarded-ok: reporting snapshot, torn reads acceptable
        summary.update(
            {
                "node_id": self.node_id,
                "containers": self.container_store.container_count,
                "stored_bytes": self.container_store.stored_bytes,
                "similarity_index_entries": len(self.similarity_index),
                "similarity_index_bytes": self.similarity_index.size_in_bytes,
                "cache_hit_ratio": self.fingerprint_cache.hit_ratio,  # unguarded-ok: reporting snapshot, torn reads acceptable
            }
        )
        return summary
