"""The parallel ingest engine: worker lanes for chunking and fingerprinting.

The CPU cost of ingest is concentrated in the client front end -- the
content-defined scan and the SHA-1 fingerprint -- while the batched node data
plane is an order of magnitude faster (see ``BENCH_ingest.json``).  This
module scales the front end across N worker *lanes* without giving up the
serial path's exact results:

* Each lane owns its own :class:`~repro.core.partitioner.StreamPartitioner`
  (chunker + fingerprinter), mirroring the paper's "a deduplication thread for
  each data stream" design (Section 4.3).
* Lanes are **threads** by default: the compiled gear scan (``ctypes``) and
  ``hashlib`` digests release the GIL, so chunk+fingerprint work can
  overlap on multi-core hosts.  A **process pool** option covers the
  pure-Python chunker fallback, where the GIL would otherwise serialise the
  scan.
* Work flows through bounded queues, so peak memory is
  O(lanes x super-chunk), never O(stream): a lane that runs ahead of the
  consumer blocks instead of buffering.

One consumption shape is offered, ``iter_file_records`` /
``partition_files``: files are chunked and fingerprinted concurrently but
their record streams are re-sequenced in file order and grouped through
:meth:`~repro.core.partitioner.StreamPartitioner.partition_file_records`, so
super-chunk boundaries, handprints, routing decisions, statistics and recipes
are byte-identical to serial ingest.  The node data plane runs serially in
the consumer thread, overlapped with the lanes' front-end work.  This is what
a ``BackupClient(workers=N)`` backup uses.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from queue import Empty, Full, Queue
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from repro.core.partitioner import FilePayload, PartitionerConfig, StreamPartitioner
from repro.core.superchunk import SuperChunk
from repro.fingerprint.fingerprinter import ChunkRecord, records_from_packed
from repro.errors import ValidationError

ENV_INGEST_WORKERS = "REPRO_INGEST_WORKERS"
"""Environment variable naming the default worker-lane count for ingest."""

EXECUTORS = ("thread", "process")
"""Lane execution models (see :class:`ParallelIngestEngine`)."""

DEFAULT_BATCH_BYTES = 256 * 1024
"""Records cross a lane's output queue in batches of about this many payload
bytes: large enough to amortise queue overhead, small enough that the bound
below stays tight."""

DEFAULT_QUEUE_DEPTH = 4
"""Batches a lane may run ahead of the consumer before blocking; together
with :data:`DEFAULT_BATCH_BYTES` this bounds each lane to about one
super-chunk of buffered payload."""

_POLL_SECONDS = 0.05


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve the effective worker-lane count.

    An explicit argument wins; otherwise the ``REPRO_INGEST_WORKERS``
    environment variable applies (used by the CI leg that runs the
    equivalence suites in parallel mode); the fallback is 1 (serial).
    """
    if workers is None:
        env = os.environ.get(ENV_INGEST_WORKERS, "").strip()
        if not env:
            return 1
        try:
            workers = int(env)
        except ValueError:
            raise ValidationError(
                f"{ENV_INGEST_WORKERS} must be a positive integer, got {env!r}"
            ) from None
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    return workers


class _WorkerFailure:
    """An exception captured in a lane, re-raised in the consumer thread."""

    __slots__ = ("error",)

    def __init__(self, error: BaseException):
        self.error = error


class _FileTask:
    """One file in flight: its identity plus the lane's bounded output queue."""

    __slots__ = ("path", "payload", "queue")

    def __init__(self, path: str, payload: FilePayload, depth: int):
        self.path = path
        self.payload = payload
        self.queue: Queue = Queue(maxsize=depth)


_END_OF_FILE = object()
_END_OF_INPUT = object()


def _put_cancellable(queue: Queue, item: object, cancelled: threading.Event) -> bool:
    """Blocking put that gives up when the run is cancelled."""
    while not cancelled.is_set():
        try:
            queue.put(item, timeout=_POLL_SECONDS)
            return True
        except Full:
            continue
    return False


def _get_cancellable(queue: Queue, cancelled: threading.Event) -> object:
    """Blocking get that gives up (returning the end marker) when cancelled."""
    while not cancelled.is_set():
        try:
            return queue.get(timeout=_POLL_SECONDS)
        except Empty:
            continue
    return _END_OF_INPUT


def _acquire_cancellable(semaphore: threading.Semaphore, cancelled: threading.Event) -> bool:
    """Blocking semaphore acquire that gives up when the run is cancelled."""
    while not cancelled.is_set():
        if semaphore.acquire(timeout=_POLL_SECONDS):
            return True
    return False


class ParallelIngestEngine:
    """Run chunk+fingerprint front-end work across N worker lanes.

    Parameters
    ----------
    workers:
        Number of lanes.  ``None`` defers to ``REPRO_INGEST_WORKERS`` and
        falls back to 1; with 1 worker the engine still pipelines (the single
        lane chunks while the consumer routes and stores), it just cannot
        overlap front-end work with itself.
    executor:
        ``"thread"`` (default) or ``"process"``.  Threads suit workloads
        whose hot loops release the GIL; the process executor runs each lane
        in its own OS process over per-lane shared-memory slabs
        (:mod:`repro.parallel.shm`) -- input payloads are written into the
        slab once, lanes chunk and fingerprint in place, and only compact
        ``(offsets, fingerprints)`` replies cross the pipe, so the per-chunk
        Python bookkeeping scales past the GIL without ever pickling payload
        bytes.
    batch_bytes / queue_depth:
        Bounded-queue sizing; the per-lane buffered payload is about
        ``batch_bytes * queue_depth``.
    payload_views:
        Process executor only: hand payloads out as zero-copy ``memoryview``
        slices of the shared slab instead of ``bytes`` copies.  Safe only
        when every consumer is done with a super-chunk's payloads before the
        engine has advanced one full super-chunk past it -- true for the
        synchronous-send transport wire path (the lane->wire hand-off), not
        for consumers that retain payload references (the in-process node
        plane stores them).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        executor: str = "thread",
        batch_bytes: int = DEFAULT_BATCH_BYTES,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        payload_views: bool = False,
    ):
        if executor not in EXECUTORS:
            raise ValidationError(f"executor must be one of {list(EXECUTORS)}, got {executor!r}")
        if batch_bytes < 1:
            raise ValidationError("batch_bytes must be positive")
        if queue_depth < 1:
            raise ValidationError("queue_depth must be positive")
        if payload_views and executor != "process":
            raise ValidationError("payload_views requires the process executor")
        self.workers = resolve_workers(workers)
        self.executor = executor
        self.batch_bytes = batch_bytes
        self.queue_depth = queue_depth
        self.payload_views = payload_views

    # ------------------------------------------------------------------ #
    # deterministic single-stream mode
    # ------------------------------------------------------------------ #

    def partition_files(
        self,
        config: PartitionerConfig,
        files: Iterable[Tuple[str, FilePayload]],
        stream_id: int = 0,
    ) -> Iterator[Tuple[Optional[SuperChunk], List[Tuple[str, List[ChunkRecord]]]]]:
        """Parallel drop-in for :meth:`StreamPartitioner.partition_files`.

        Chunking and fingerprinting fan out across the lanes; grouping runs
        through the serial path's own
        :meth:`~repro.core.partitioner.StreamPartitioner.partition_file_records`,
        so every yielded ``(superchunk, contributions)`` pair -- boundaries,
        handprints, sequence numbers, zero-byte-file handling -- is identical
        to what the serial partitioner would produce.
        """
        sequencer = StreamPartitioner(config)
        pairs = self.iter_file_records(files, lambda: StreamPartitioner(config))
        return sequencer.partition_file_records(pairs, stream_id=stream_id)

    def iter_file_records(
        self,
        files: Iterable[Tuple[str, FilePayload]],
        partitioner_factory: Callable[[], StreamPartitioner],
    ) -> Iterator[Tuple[str, Iterator[ChunkRecord]]]:
        """Yield ``(path, record_iterator)`` pairs in file order.

        Up to ``workers`` files are chunked and fingerprinted concurrently,
        each lane owning its own partitioner; records surface in file order
        regardless of lane completion order.  Each record iterator must be
        consumed before the next pair is requested (any leftover is drained
        automatically, exactly like ``itertools.groupby``).
        """
        if self.executor == "process":
            return self._process_iter_file_records(files, partitioner_factory)
        return self._thread_iter_file_records(files, partitioner_factory)

    def _thread_iter_file_records(
        self,
        files: Iterable[Tuple[str, FilePayload]],
        partitioner_factory: Callable[[], StreamPartitioner],
    ) -> Iterator[Tuple[str, Iterator[ChunkRecord]]]:
        workers = self.workers
        work: Queue = Queue(maxsize=workers)
        order: Queue = Queue()
        cancelled = threading.Event()
        # Bounds the number of files admitted but not yet fully consumed by
        # the sequencer.  Without it, lanes racing through many small files
        # would park every finished file's records in its queue -- unbounded
        # memory on exactly the workloads the bounded queues exist for.
        inflight = threading.Semaphore(2 * workers)

        def feeder() -> None:
            try:
                for path, payload in files:
                    if not _acquire_cancellable(inflight, cancelled):
                        break
                    task = _FileTask(path, payload, self.queue_depth)
                    order.put(task)
                    if not _put_cancellable(work, task, cancelled):
                        break
            except BaseException as exc:  # noqa: BLE001 - crosses the thread boundary
                order.put(_WorkerFailure(exc))
            finally:
                order.put(_END_OF_INPUT)
                for _ in range(workers):
                    _put_cancellable(work, _END_OF_INPUT, cancelled)

        def lane() -> None:
            partitioner = partitioner_factory()
            batch_limit = self.batch_bytes
            while not cancelled.is_set():
                task = _get_cancellable(work, cancelled)
                if task is _END_OF_INPUT:
                    break
                try:
                    batch: List[ChunkRecord] = []
                    batch_bytes = 0
                    for record in partitioner.iter_chunk_records(task.payload):
                        batch.append(record)
                        batch_bytes += record.length
                        if batch_bytes >= batch_limit:
                            if not _put_cancellable(task.queue, batch, cancelled):
                                break
                            batch = []
                            batch_bytes = 0
                    else:
                        if batch:
                            _put_cancellable(task.queue, batch, cancelled)
                except BaseException as exc:  # noqa: BLE001 - crosses the thread boundary
                    _put_cancellable(task.queue, _WorkerFailure(exc), cancelled)
                _put_cancellable(task.queue, _END_OF_FILE, cancelled)

        threads = [threading.Thread(target=feeder, daemon=True)]
        threads += [threading.Thread(target=lane, daemon=True) for _ in range(workers)]
        for thread in threads:
            thread.start()

        def drain(task: _FileTask) -> Iterator[ChunkRecord]:
            try:
                while True:
                    item = _get_cancellable(task.queue, cancelled)
                    if item is _END_OF_FILE or item is _END_OF_INPUT:
                        return
                    if isinstance(item, _WorkerFailure):
                        raise item.error
                    yield from item
            finally:
                inflight.release()

        try:
            active: Optional[Iterator[ChunkRecord]] = None
            while True:
                entry = order.get()
                if entry is _END_OF_INPUT:
                    break
                if isinstance(entry, _WorkerFailure):
                    raise entry.error
                if active is not None:
                    for _ in active:  # exhaust any abandoned predecessor
                        pass
                active = drain(entry)
                yield entry.path, active
            if active is not None:
                for _ in active:
                    pass
        finally:
            cancelled.set()
            for thread in threads:
                thread.join(timeout=5.0)

    # ------------------------------------------------------------------ #
    # process-lane variant (shared-memory slabs, GIL-free front end)
    # ------------------------------------------------------------------ #

    def _process_iter_file_records(
        self,
        files: Iterable[Tuple[str, FilePayload]],
        partitioner_factory: Callable[[], StreamPartitioner],
    ) -> Iterator[Tuple[str, Iterator[ChunkRecord]]]:
        """Shared-memory process lanes with the same admission/order contract
        as the thread path: up to ``workers + 1`` files in flight, results
        surfaced strictly in file order.

        In hand-off mode (``payload_views``) records carry zero-copy slab
        slices; a file's slab region is only reused once the consumer has
        drained records one full super-chunk *past* that file's end.  The
        re-sequencer flushes a super-chunk as soon as its pending bytes reach
        ``superchunk_size`` -- and the transport wire path puts every flushed
        super-chunk's payload on the wire synchronously before pulling the
        next record -- so by the time the frontier passes, no live reader of
        the region can remain.
        """
        from repro.parallel.shm import PendingChunkFile, ShmLanePool

        config = partitioner_factory().config
        keep_data = config.keep_chunk_data
        hand_off = self.payload_views and keep_data
        reuse_guard = config.superchunk_size
        pool = ShmLanePool(config=config, workers=self.workers)
        try:
            pending: "deque[Tuple[str, PendingChunkFile]]" = deque()
            # Hand-off mode: (handle, frontier) pairs whose slab regions stay
            # pinned until the consumer is `frontier` cumulative bytes in.
            pinned: "deque[Tuple[PendingChunkFile, int]]" = deque()
            consumed = 0
            source = iter(files)
            exhausted = False
            while True:
                while not exhausted and len(pending) <= self.workers:
                    try:
                        path, payload = next(source)
                    except StopIteration:
                        exhausted = True
                        break
                    pending.append((path, pool.submit(payload)))
                if not pending:
                    break
                path, handle = pending.popleft()
                view, packed = handle.wait()
                records = records_from_packed(
                    view, packed, keep_data=keep_data, copy=not hand_off
                )
                if hand_off:
                    while pinned and pinned[0][1] <= consumed:
                        pinned.popleft()[0].release()
                    consumed += view.nbytes
                    pinned.append((handle, consumed + reuse_guard))
                else:
                    handle.release()
                yield path, iter(records)
        finally:
            pool.close()
