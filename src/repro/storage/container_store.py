"""Parallel container management.

"Our deduplication server design supports parallel container management to
allocate, deallocate, read, write and reliably store containers in parallel.
For parallel data store, a dedicated open container is maintained for each
coming data stream, and a new one is opened up when the container fills up.
All disk accesses are performed at the granularity of a container."
(paper Section 3.3)
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Dict, List, Optional, Sequence

from repro.analysis.runtime import GuardLock, assert_owned, guarded_lock
from repro.errors import ContainerNotFoundError, RecoveryError, ValidationError
from repro.fingerprint.fingerprinter import ChunkRecord
from repro.storage.backends import ContainerBackend, InMemoryBackend, SpillRecovery
from repro.storage.container import Container, DEFAULT_CONTAINER_CAPACITY, read_in_runs
from repro.utils.stats import SnapshotCounter


class ContainerStore:
    """Holds every container of one deduplication node.

    A dedicated open container is kept per data stream; appending a chunk that
    does not fit seals the open container and opens a new one.  A chunk larger
    than the configured capacity goes to a dedicated oversize container that is
    sealed immediately (one container write) without disturbing the stream's
    open container.  Disk reads and writes are counted at container granularity
    through the ``container_reads`` and ``container_writes`` counters, which
    the simulator uses as its model of disk I/O cost.

    Where sealed containers' data sections live is delegated to a
    :class:`~repro.storage.backends.ContainerBackend`; the default keeps them
    in RAM, the file backend spills them to disk and evicts the payload.
    """

    def __init__(
        self,
        container_capacity: int = DEFAULT_CONTAINER_CAPACITY,
        backend: Optional[ContainerBackend] = None,
    ):
        if container_capacity < 1:
            raise ValidationError("container_capacity must be positive")
        self.container_capacity = container_capacity
        self.backend = backend or InMemoryBackend()
        self._containers: Dict[int, Container] = {}  # guarded-by: _lock
        self._open_by_stream: Dict[int, Container] = {}  # guarded-by: _lock
        self._next_id = 0  # guarded-by: _lock
        self._lock: GuardLock = guarded_lock("ContainerStore._lock")
        self.container_reads = 0  # guarded-by: _lock
        self.container_writes = 0  # guarded-by: _lock
        # Running totals so storage_usage probes (consulted by sigma routing
        # for every candidate on every super-chunk) stay O(1) instead of
        # O(#containers).  SnapshotCounters: mutated only under _lock, read
        # lock-free as tear-free snapshots (atomic attribute rebinding) --
        # the counter objects themselves are never rebound.
        self._stored_bytes = SnapshotCounter()
        self._stored_chunks = SnapshotCounter()
        # Seal observation log for container replication: when armed, every
        # seal appends its container id, and the replication manager drains
        # the log to mirror those containers to successor nodes.
        self.track_seals = False
        self._seal_log: List[int] = []  # guarded-by: _lock

    # ------------------------------------------------------------------ #
    # allocation
    # ------------------------------------------------------------------ #

    def _allocate(self, stream_id: int, capacity: Optional[int] = None) -> Container:  # holds-lock: _lock
        container = Container(
            container_id=self._next_id,
            capacity=capacity if capacity is not None else self.container_capacity,
            stream_id=stream_id,
        )
        self._containers[self._next_id] = container
        self._next_id += 1
        return container

    def _seal(self, container: Container) -> None:  # holds-lock: _lock
        """Seal a container, count the whole-unit write and hand it to the backend."""
        container.seal()
        self.container_writes += 1
        self.backend.on_seal(container)
        if self.track_seals:
            self._seal_log.append(container.container_id)

    def _store_oversize(self, chunk: ChunkRecord, stream_id: int) -> int:  # holds-lock: _lock
        """Store a chunk larger than the configured capacity (lock held).

        The chunk gets a dedicated container sized to fit, sealed immediately
        (one container write); the stream's open container is left untouched.
        """
        container = self._allocate(stream_id, capacity=chunk.length)
        container.append(chunk)
        self._stored_bytes.add(chunk.length)
        self._stored_chunks.add(1)
        self._seal(container)
        return container.container_id

    def store_chunk(self, chunk: ChunkRecord, stream_id: int = 0) -> int:
        """Store a unique chunk into the stream's open container.

        Returns the container id the chunk was written to.  Sealing a full
        container counts as one container write (the whole unit goes to disk).
        """
        with self._lock:
            if chunk.length > self.container_capacity:
                return self._store_oversize(chunk, stream_id)
            container = self._open_by_stream.get(stream_id)
            if container is None or container.sealed or not container.has_room_for(chunk.length):
                if container is not None and not container.sealed:
                    self._seal(container)
                container = self._allocate(stream_id)
                self._open_by_stream[stream_id] = container
            container.append(chunk)
            self._stored_bytes.add(chunk.length)
            self._stored_chunks.add(1)
            return container.container_id

    def store_chunks(self, chunks: Sequence[ChunkRecord], stream_id: int = 0) -> List[int]:
        """Store a batch of unique chunks, split into one run per container
        under one lock acquisition.

        Equivalent to calling :meth:`store_chunk` once per chunk in order:
        identical container ids, contents, seal timing and write accounting --
        this is the batched append of the node's super-chunk data plane.
        Returns the container id of every chunk, aligned with ``chunks``.
        """
        container_ids: List[int] = []
        if not chunks:
            return container_ids
        # The batch as columns; ends[i] is the size of chunks[:i + 1], so a
        # container run is one bisect for how far its free space reaches.
        fingerprints, lengths, _offsets, payloads = zip(*chunks)
        ends = list(accumulate(lengths))
        total = len(lengths)
        capacity = self.container_capacity
        stored_bytes = 0
        stored_chunks = 0
        start = 0
        with self._lock:
            container = self._open_by_stream.get(stream_id)
            if container is not None and container.sealed:
                container = None
            while start < total:
                length = lengths[start]
                if length > capacity:
                    # _store_oversize accounts its own chunk and leaves the
                    # stream's open container untouched.
                    container_ids.append(self._store_oversize(chunks[start], stream_id))
                    start += 1
                    continue
                if container is None or length > container.free:
                    if container is not None:
                        self._seal(container)
                    container = self._allocate(stream_id)
                    self._open_by_stream[stream_id] = container
                before = ends[start] - length
                end = bisect_right(ends, before + container.free, start)
                container.append_many(
                    fingerprints[start:end], lengths[start:end], payloads[start:end]
                )
                container_ids += [container.container_id] * (end - start)
                stored_bytes += ends[end - 1] - before
                stored_chunks += end - start
                start = end
            self._stored_bytes.add(stored_bytes)
            self._stored_chunks.add(stored_chunks)
        return container_ids

    def flush(self) -> None:
        """Seal every open container (end of a backup session)."""
        with self._lock:
            for container in self._open_by_stream.values():
                if not container.sealed and container.chunk_count > 0:
                    self._seal(container)
            self._open_by_stream.clear()

    def drain_sealed(self) -> List[int]:
        """Return and clear the ids sealed since the last drain (replication)."""
        with self._lock:
            sealed = self._seal_log
            self._seal_log = []
            return sealed

    # ------------------------------------------------------------------ #
    # crash recovery
    # ------------------------------------------------------------------ #

    def adopt_recovered(self, recovery: SpillRecovery) -> None:
        """Populate an empty store from a backend's journal replay.

        The disaster path: the recovered containers (sealed, payload-evicted)
        become the store's whole population, ``_next_id`` resumes past the
        highest recovered id, and the storage counters are rebuilt from the
        recovered metadata.  ``container_writes`` counts each recovered
        container's original seal; ``container_reads`` restarts at zero
        (historical read accounting did not survive the crash, and recovery
        does not pretend it did).  With ``track_seals`` armed the recovered
        ids also enter the seal log, so a replication manager re-mirrors them
        on its next sync.
        """
        with self._lock:
            if self._containers or self._open_by_stream:
                raise RecoveryError(
                    "adopt_recovered requires an empty store "
                    f"({len(self._containers)} containers present)"
                )
            for container in recovery.containers:
                self._containers[container.container_id] = container
                if self.track_seals:
                    self._seal_log.append(container.container_id)
            if self._containers:
                self._next_id = max(self._containers) + 1
            self.container_writes += len(recovery.containers)
            self._stored_bytes.add(recovery.recovered_bytes)
            self._stored_chunks.add(recovery.recovered_chunks)

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #

    def get(self, container_id: int) -> Container:
        """Return a container by id without touching the I/O counters."""
        with self._lock:
            return self._get_locked(container_id)

    def _get_locked(self, container_id: int) -> Container:  # holds-lock: _lock
        assert_owned(self._lock, "ContainerStore._get_locked")
        try:
            return self._containers[container_id]
        except KeyError:
            raise ContainerNotFoundError(f"container {container_id} does not exist") from None

    def read_container(self, container_id: int) -> Container:
        """Read a whole container from disk (counted as one container read)."""
        with self._lock:
            container = self._get_locked(container_id)
            self.container_reads += 1
        return container

    def read_chunks(
        self, container_ids: Sequence[int], fingerprints: List[bytes]
    ) -> List[Optional[bytes]]:
        """Chunk reads grouped by container: the restore path.

        Two aligned columns, in any order; payloads come back aligned with
        them.  Each distinct container is read exactly once -- one
        container-granularity read on the I/O counters and, with a spill
        backend, one data-section load -- over all of its runs.  An unknown
        container id, or a spill file that is missing or truncated, raises
        :class:`~repro.errors.ContainerNotFoundError`; a fingerprint the
        container does not hold yields ``None`` at its position.
        """
        return read_in_runs(
            container_ids, fingerprints,
            lambda container_id, run: self.read_container(container_id).read_chunks(run),
        )

    def prefetch_metadata(self, container_id: int) -> List[bytes]:
        """Read the metadata section of a container: the fingerprint prefetch path."""
        with self._lock:
            container = self._get_locked(container_id)
            self.container_reads += 1
        return container.fingerprints()

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #

    @property
    def container_count(self) -> int:
        with self._lock:
            return len(self._containers)

    @property
    def stored_bytes(self) -> int:
        """Total bytes in all data sections (the node's physical capacity usage).

        Maintained as a :class:`~repro.utils.stats.SnapshotCounter`, so the
        per-candidate ``storage_usage`` probes of sigma routing cost O(1) and
        read lock-free -- but as tear-free snapshots (one atomic attribute
        read), not the waivered racy bare-``int`` read this used to be.
        """
        return self._stored_bytes.value

    @property
    def stored_chunks(self) -> int:
        return self._stored_chunks.value

    @property
    def resident_payload_bytes(self) -> int:
        """Bytes of container payload currently held in RAM (spilled sealed
        containers do not count -- the bounded-footprint metric)."""
        with self._lock:
            return sum(
                container.used
                for container in self._containers.values()
                if container.payload_resident
            )

    def container_ids(self) -> List[int]:
        with self._lock:
            return list(self._containers.keys())
