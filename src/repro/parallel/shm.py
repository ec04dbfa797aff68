"""Shared-memory slab lanes for the process ingest front end.

The thread executor scales only as far as the GIL allows: the compiled gear
scan and ``hashlib`` release it, but the per-chunk Python bookkeeping between them
does not, so ``workers=4`` buys barely anything on CPU-bound front ends.  The
process executor escapes the GIL entirely -- and this module is what makes
that affordable:

* Each lane is one OS process attached to a per-lane ``SharedMemory`` slab.
  The parent writes a file's payload into a free slab slot (its only copy of
  the input); the lane runs the full chunk+fingerprint front end **in place**
  over a read-only ``memoryview`` of that slot.
* Only a compact packed reply -- ``(end_offsets_u64, fingerprints_blob)``,
  ~28 bytes per chunk -- crosses the command pipe back.  Payload bytes are
  never pickled, in either direction.
* The parent re-slices payloads off the same slab view
  (:func:`~repro.fingerprint.fingerprinter.records_from_packed`), either as
  ``bytes`` copies (safe everywhere) or as zero-copy ``memoryview`` slices
  for the engine's direct lane->wire hand-off mode.

Slabs hold two fixed slots each, which matches the engine's admission bound
(at most two files in flight per lane); payloads that do not fit a slot --
or arrive while hand-off pinning keeps both slots busy -- ride a dedicated
one-shot segment instead, so submission never blocks and never copies twice.

Hygiene: segment names carry a tag derived from ``REPRO_TEARDOWN_TOKEN`` so
the CI teardown audit can attribute leaks; the parent's resource-tracker
registration is kept (it unlinks segments even after a parent SIGKILL), while
``spawn``-started lanes unregister their attach-time registration so a lane's
own tracker never unlinks a live slab out from under the parent.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import uuid
from dataclasses import replace
from multiprocessing import get_all_start_methods, get_context
from multiprocessing.connection import Connection
from multiprocessing.shared_memory import SharedMemory
from typing import Any, Iterable, List, Optional, Set, Tuple, Union

from repro.core.partitioner import PartitionerConfig, StreamPartitioner
from repro.errors import ParallelLaneError

ENV_TEARDOWN_TOKEN = "REPRO_TEARDOWN_TOKEN"
"""When set (the CI teardown audit sets it), segment names embed a hash of
this token so leaked ``/dev/shm`` entries can be attributed to the run."""

SEGMENT_PREFIX = "repro-shm"
"""Leading component of every segment name this module creates."""

DEFAULT_SLOT_BYTES = 8 * 1024 * 1024
"""Capacity of one slab slot (two per lane).  Files larger than this use a
dedicated one-shot segment; /dev/shm pages are only committed when written,
so oversizing costs address space, not memory."""

_BufferPayload = Union[bytes, bytearray, memoryview]


def segment_tag() -> str:
    """The 8-hex-char tag embedded in every segment name of this process.

    Derived from ``REPRO_TEARDOWN_TOKEN`` when present (stable across the
    parent and its lanes, so the teardown audit can glob for it), random
    otherwise.  Kept short: POSIX shm names are capped at 31 chars on macOS.
    """
    token = os.environ.get(ENV_TEARDOWN_TOKEN, "")
    if token:
        return hashlib.sha1(token.encode()).hexdigest()[:8]
    return uuid.uuid4().hex[:8]


def _unregister_attach(shm: SharedMemory) -> None:
    """Drop a *spawn*-started child's attach-time resource-tracker entry.

    CPython's ``SharedMemory`` registers with the resource tracker even on
    attach; in a spawned child that is a fresh tracker process which would
    unlink the parent's live slab when the child exits.  (Forked children
    share the parent's tracker, where register/unregister is set-idempotent,
    so they skip this.)
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:  # pragma: no cover - tracker internals vary by version
        pass


def _lane_main(
    conn: Connection,
    unwanted: List[Connection],
    shm_name: str,
    config: PartitionerConfig,
    unregister: bool,
) -> None:
    """Lane process entry point: serve chunk+fingerprint requests forever.

    Commands arrive on ``conn``: ``("file", start, length)`` for a slab slot,
    ``("seg", name, length)`` for a dedicated segment, ``None`` to stop.
    Each reply is ``("ok", packed)`` or ``("err", exception)``.

    ``unwanted`` holds every other pipe end a forked lane inherited --
    including this pipe's own parent end.  They are closed first thing:
    a lane that kept its own parent end alive would never see EOF on
    ``recv()`` after the parent dies uncleanly, leaving orphan lanes
    pinning the slab segments forever (the SIGKILL teardown audit catches
    exactly this).
    """
    for other in unwanted:
        try:
            other.close()
        except OSError:  # pragma: no cover - already closed is fine
            pass
    shm = SharedMemory(name=shm_name, create=False)
    if unregister:
        _unregister_attach(shm)
    # Payloads stay in the slab; lanes return fingerprints and offsets only,
    # so retaining chunk data here would copy bytes just to discard them.
    partitioner = StreamPartitioner(replace(config, keep_chunk_data=False))
    base = memoryview(shm.buf).toreadonly()
    try:
        while True:
            try:
                command = conn.recv()
            except (EOFError, OSError):
                break
            if command is None:
                break
            try:
                kind = command[0]
                if kind == "file":
                    _kind, start, length = command
                    reply = _chunk_packed(partitioner, base[start:start + length])
                else:
                    _kind, name, length = command
                    segment = SharedMemory(name=name, create=False)
                    if unregister:
                        _unregister_attach(segment)
                    view = memoryview(segment.buf).toreadonly()
                    try:
                        reply = _chunk_packed(partitioner, view[:length])
                    finally:
                        view.release()
                        segment.close()
                conn.send(("ok", reply))
            except BaseException as exc:  # noqa: BLE001 - crosses the process boundary
                try:
                    pickle.dumps(exc)
                    conn.send(("err", exc))
                except Exception:
                    conn.send(("err", ParallelLaneError(repr(exc))))
    finally:
        base.release()
        shm.close()
        conn.close()


def _chunk_packed(partitioner: StreamPartitioner, view: memoryview) -> bytes:
    """Run the serial front end over ``view`` in place, return the packed reply.

    The same ``committed_segments`` runs serial ingest consumes (so
    boundaries, fingerprints and statistics are identical by construction),
    packed as they come: a lane builds no records, the parent does.
    """
    try:
        return partitioner.fingerprinter.fingerprint_packed(view, partitioner.config.chunker)
    finally:
        view.release()


class _Slot:
    """One fixed region of a lane's slab."""

    __slots__ = ("start", "capacity", "free")

    def __init__(self, start: int, capacity: int):
        self.start = start
        self.capacity = capacity
        self.free = True


class _Lane:
    """Parent-side handle for one lane process and its slab."""

    __slots__ = ("conn", "process", "shm", "buf", "slots")

    def __init__(
        self, conn: Connection, process: Any, shm: SharedMemory, slot_bytes: int
    ):
        self.conn = conn
        self.process = process
        self.shm = shm
        self.buf = memoryview(shm.buf)
        self.slots = [_Slot(0, slot_bytes), _Slot(slot_bytes, slot_bytes)]

    def take_slot(self, length: int) -> Optional[_Slot]:
        for slot in self.slots:
            if slot.free and length <= slot.capacity:
                slot.free = False
                return slot
        return None


class PendingChunkFile:
    """One submitted file: resolves to ``(payload_view, packed_reply)``.

    ``wait()`` blocks for the lane's reply (FIFO per lane, matching the
    pool's round-robin submission order); ``release()`` returns the slab slot
    (or unlinks the dedicated segment) for reuse -- the caller decides when,
    which is what lets the engine's hand-off mode defer reuse behind its
    send frontier.
    """

    __slots__ = ("_pool", "_lane", "_slot", "_segment", "_view", "_released")

    def __init__(
        self,
        pool: "ShmLanePool",
        lane: _Lane,
        slot: Optional[_Slot],
        segment: Optional[SharedMemory],
        view: memoryview,
    ):
        self._pool = pool
        self._lane = lane
        self._slot = slot
        self._segment = segment
        self._view = view
        self._released = False

    def wait(self) -> Tuple[memoryview, bytes]:
        """Block for the lane's packed reply; raises what the lane raised."""
        try:
            status, value = self._lane.conn.recv()
        except (EOFError, OSError) as exc:
            raise ParallelLaneError(
                "ingest lane process died before replying "
                f"(exitcode={self._lane.process.exitcode})"
            ) from exc
        if status != "ok":
            raise value
        return self._view, value

    def release(self) -> None:
        """Allow the payload region to be reused (slot) or unlinked (segment)."""
        if self._released:
            return
        self._released = True
        # Payload record views are independent slices of the base buffer, so
        # dropping this handle's view never invalidates them; it just stops
        # pinning the slab mapping once those records die too.
        self._view.release()
        if self._slot is not None:
            self._slot.free = True
        if self._segment is not None:
            self._pool._release_segment(self._segment)


class ShmLanePool:
    """N lane processes, each behind a two-slot shared-memory slab.

    Single-consumer by design: one thread (the engine's re-sequencing
    generator) submits and waits, so no parent-side locking is needed.
    ``close()`` is idempotent and always unlinks every segment it created --
    with live payload memoryviews still outstanding the mappings stay valid
    (``close`` on those is best-effort) but the names never leak.
    """

    def __init__(
        self,
        config: PartitionerConfig,
        workers: int,
        slot_bytes: int = DEFAULT_SLOT_BYTES,
        start_method: Optional[str] = None,
    ):
        if workers < 1:
            raise ParallelLaneError(f"lane pool needs >= 1 worker, got {workers}")
        if slot_bytes < 1:
            raise ParallelLaneError(f"slot_bytes must be positive, got {slot_bytes}")
        if start_method is None:
            start_method = (
                "fork" if "fork" in get_all_start_methods() else "spawn"
            )
        context = get_context(start_method)
        unregister = start_method != "fork"
        self._tag = segment_tag()
        self._sequence = 0
        self._next_lane = 0
        self._closed = False
        self._segments: Set[SharedMemory] = set()
        self.workers = workers
        self.slot_bytes = slot_bytes
        self.lanes: List[_Lane] = []
        # Forked lanes inherit every pipe fd that exists at fork time --
        # including their own command pipe's parent end, which would keep
        # recv() from ever seeing EOF if this process dies without cleanup.
        # Create all pipes up front and hand each lane the complete list of
        # ends that are not its own to close, so every lane unblocks the
        # moment the parent's fds are gone (clean exit or SIGKILL alike).
        # Spawned children inherit nothing beyond the pickled child end.
        inherit_all = start_method == "fork"
        pipes = [context.Pipe() for _ in range(workers)] if inherit_all else []
        try:
            for index in range(workers):
                shm = self._create_segment(2 * slot_bytes)
                if inherit_all:
                    parent_conn, child_conn = pipes[index]
                    unwanted = [
                        end
                        for pair in pipes
                        for end in pair
                        if end is not child_conn
                    ]
                else:
                    parent_conn, child_conn = context.Pipe()
                    unwanted = []
                process = context.Process(
                    target=_lane_main,
                    args=(child_conn, unwanted, shm.name, config, unregister),
                    daemon=True,
                    name=f"repro-ingest-lane-{len(self.lanes)}",
                )
                process.start()
                if not inherit_all:
                    child_conn.close()
                self.lanes.append(_Lane(parent_conn, process, shm, slot_bytes))
            for _parent_conn, child_conn in pipes:
                child_conn.close()
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------ #
    # segment lifecycle
    # ------------------------------------------------------------------ #

    def _create_segment(self, size: int) -> SharedMemory:
        name = f"{SEGMENT_PREFIX}-{self._tag}-{os.getpid() % 10_000_000}-{self._sequence}"
        self._sequence += 1
        shm = SharedMemory(name=name, create=True, size=size)
        self._segments.add(shm)
        return shm

    def _release_segment(self, segment: SharedMemory) -> None:
        self._segments.discard(segment)
        _unlink_then_close(segment)

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #

    def submit(self, payload: "_BufferPayload | Iterable[bytes]") -> PendingChunkFile:
        """Write one file's payload into shared memory and dispatch it.

        Round-robin over the lanes; never blocks on slot availability (a full
        lane gets a dedicated one-shot segment instead).  Streamed payloads
        are written block-by-block straight into the slot.
        """
        if self._closed:
            raise ParallelLaneError("lane pool is closed")
        lane = self.lanes[self._next_lane]
        self._next_lane = (self._next_lane + 1) % len(self.lanes)
        if isinstance(payload, (bytes, bytearray, memoryview)):
            return self._submit_buffer(lane, memoryview(payload).cast("B"))
        return self._submit_stream(lane, iter(payload))

    def _submit_buffer(self, lane: _Lane, data: memoryview) -> PendingChunkFile:
        length = data.nbytes
        slot = lane.take_slot(length)
        if slot is None and length > 0:
            return self._submit_segment(lane, data)
        start = slot.start if slot is not None else 0
        lane.buf[start:start + length] = data
        return self._dispatch_slot(lane, slot, start, length)

    def _submit_stream(
        self, lane: _Lane, blocks: "Iterable[bytes]"
    ) -> PendingChunkFile:
        slot = lane.take_slot(1)
        start = slot.start if slot is not None else 0
        capacity = slot.capacity if slot is not None else 0
        written = 0
        for block in blocks:
            chunk = memoryview(block).cast("B")
            if written + chunk.nbytes > capacity:
                # The slot overflowed (or none was free): fall back to a
                # dedicated segment holding the already-written prefix plus
                # the rest of the stream.
                rest = b"".join([bytes(chunk), *map(bytes, blocks)])  # streaming-ok: oversize spill is bounded by the in-flight window
                prefix = bytes(lane.buf[start:start + written])  # streaming-ok: oversize spill is bounded by the in-flight window
                if slot is not None:
                    slot.free = True
                merged = memoryview(prefix + rest)
                return self._submit_segment(lane, merged)
            lane.buf[start + written:start + written + chunk.nbytes] = chunk
            written += chunk.nbytes
        return self._dispatch_slot(lane, slot, start, written)

    def _dispatch_slot(
        self, lane: _Lane, slot: Optional[_Slot], start: int, length: int
    ) -> PendingChunkFile:
        self._send(lane, ("file", start, length))
        view = lane.buf[start:start + length].toreadonly()
        return PendingChunkFile(self, lane, slot, None, view)

    def _submit_segment(self, lane: _Lane, data: memoryview) -> PendingChunkFile:
        segment = self._create_segment(max(1, data.nbytes))
        buf = memoryview(segment.buf)
        buf[: data.nbytes] = data
        self._send(lane, ("seg", segment.name, data.nbytes))
        view = buf[: data.nbytes].toreadonly()
        return PendingChunkFile(self, lane, None, segment, view)

    def _send(self, lane: _Lane, command: Tuple[Any, ...]) -> None:
        try:
            lane.conn.send(command)
        except (BrokenPipeError, OSError) as exc:
            raise ParallelLaneError(
                f"ingest lane process is gone (exitcode={lane.process.exitcode})"
            ) from exc

    # ------------------------------------------------------------------ #
    # teardown
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Stop the lanes and unlink every segment (idempotent, best-effort).

        Unlinking always succeeds (names never leak, which is what the CI
        teardown audit checks); ``close`` of a mapping with live exported
        payload views raises ``BufferError`` and is deliberately tolerated --
        the mapping dies with its last view.
        """
        if self._closed:
            return
        self._closed = True
        for lane in self.lanes:
            try:
                lane.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for lane in self.lanes:
            lane.process.join(timeout=2.0)
            if lane.process.is_alive():
                lane.process.terminate()
                lane.process.join(timeout=2.0)
            if lane.process.is_alive():  # pragma: no cover - terminate suffices
                lane.process.kill()
                lane.process.join(timeout=2.0)
            try:
                lane.conn.close()
            except OSError:  # pragma: no cover - close never matters
                pass
        for segment in list(self._segments):
            self._segments.discard(segment)
            _unlink_then_close(segment)
        for lane in self.lanes:
            try:
                lane.buf.release()
            except BufferError:  # pragma: no cover - slices outlive the base view
                pass
            _unlink_then_close(lane.shm)


def _unlink_then_close(segment: SharedMemory) -> None:
    """Unlink unconditionally, then close if no exported views pin the map."""
    try:
        segment.unlink()
    except FileNotFoundError:
        pass
    try:
        segment.close()
    except BufferError:
        # Live payload memoryviews still reference the mapping (hand-off mode
        # records outliving the pool).  The name is already gone; detach the
        # internals so ``__del__`` does not retry the doomed close -- the
        # managed buffer keeps the mapping alive exactly until the last view
        # dies, at which point the mmap deallocates and unmaps itself.
        segment._buf = None  # type: ignore[attr-defined]
        segment._mmap = None  # type: ignore[attr-defined]
        fd = getattr(segment, "_fd", -1)
        if fd >= 0:
            try:
                os.close(fd)
            except OSError:  # pragma: no cover - already closed elsewhere
                pass
            segment._fd = -1  # type: ignore[attr-defined]
