"""Unit tests for the shared-memory lane pool behind the process executor.

The pool's contract: payload bytes are written once into a per-lane slab (or
a dedicated one-shot segment when the slabs are full/too small), lanes chunk
and fingerprint in place and reply with the packed ``(offsets, fingerprints)``
codec only, slots become reusable on ``release()``, and ``close()`` is
idempotent, releases the views of handles still outstanding, and never leaks
a ``/dev/shm`` name or a mapping -- even with a dead lane.
"""

import hashlib
import os
import struct
import tracemalloc

import pytest

from repro.chunking import build_chunker
from repro.core.partitioner import PartitionerConfig, StreamPartitioner
from repro.errors import ParallelLaneError
from repro.fingerprint.fingerprinter import records_from_packed
from repro.parallel.shm import ShmLanePool, _chunk_packed

SLOT_BYTES = 4096


def lane_config() -> PartitionerConfig:
    return PartitionerConfig(
        chunker=build_chunker("gear", average_size=256),
        superchunk_size=1024,
        handprint_size=4,
    )


def shm_names(tag: str):
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-tmpfs hosts
        return set()
    return {name for name in os.listdir("/dev/shm") if f"-{tag}-" in name}


def payload_bytes(size: int, seed: int = 7) -> bytes:
    import random

    return random.Random(seed).randbytes(size)


def test_lane_front_end_chunks_a_read_only_slab_view_in_place():
    # What a lane does per file: the serial front end over a read-only
    # memoryview of its slab.  No step may copy the whole buffer (the
    # compiled scan borrows read-only views too); a 4 MiB file may cost the
    # records and the packed reply (~40 bytes per chunk), never megabytes.
    size = 4 * 1024 * 1024
    slab = bytearray(payload_bytes(size))
    config = PartitionerConfig(
        chunker=build_chunker("gear", average_size=4096), keep_chunk_data=False
    )
    view = memoryview(slab).toreadonly()
    tracemalloc.start()
    try:
        packed = _chunk_packed(StreamPartitioner(config), view[:size])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records_from_packed(slab, packed)) > size // 16384
    assert peak < size // 4, f"lane front end allocated {peak} bytes for a {size}-byte file"


class TestShmLanePool:
    def test_rejects_bad_sizing(self):
        with pytest.raises(ParallelLaneError):
            ShmLanePool(config=lane_config(), workers=0)
        with pytest.raises(ParallelLaneError):
            ShmLanePool(config=lane_config(), workers=1, slot_bytes=0)

    def test_packed_reply_matches_serial_front_end(self):
        config = lane_config()
        data = payload_bytes(3 * SLOT_BYTES // 4)
        pool = ShmLanePool(config=config, workers=1, slot_bytes=SLOT_BYTES)
        try:
            handle = pool.submit(data)
            view, packed = handle.wait()
            assert bytes(view) == data
            # The reply decodes to exactly the serial front end's records
            # (boundaries, fingerprints, payload slices) ...
            serial = StreamPartitioner(config)
            records = records_from_packed(view, packed, keep_data=True)
            assert records == list(serial.iter_chunk_records(memoryview(data)))
            assert b"".join(record.data for record in records) == data
            # ... and, decoded by hand (not through the constructor the
            # records above share), is the 8-byte header, the u64 end offsets
            # and one SHA-1 per slice -- nothing else.
            count, digest_size = struct.unpack_from("!II", packed)
            ends = struct.unpack_from(f"!{count}Q", packed, 8)
            assert (count, digest_size, ends[-1]) == (len(records), 20, len(data))
            slices = zip((0, *ends), ends)
            blob = b"".join(hashlib.sha1(data[begin:end]).digest() for begin, end in slices)
            assert bytes(packed[8 + 8 * count:]) == blob
            handle.release()
        finally:
            pool.close()

    def test_slot_reuse_creates_no_new_segments(self):
        pool = ShmLanePool(config=lane_config(), workers=1, slot_bytes=SLOT_BYTES)
        try:
            created_after_slabs = pool._sequence
            for round_index in range(6):
                handle = pool.submit(payload_bytes(SLOT_BYTES, seed=round_index))
                handle.wait()
                handle.release()
            assert pool._sequence == created_after_slabs
        finally:
            pool.close()

    def test_third_unreleased_submission_spills_to_dedicated_segment(self):
        pool = ShmLanePool(config=lane_config(), workers=1, slot_bytes=SLOT_BYTES)
        try:
            slab_count = pool._sequence
            handles = [pool.submit(payload_bytes(SLOT_BYTES, seed=i)) for i in range(3)]
            # Two slab slots absorb the first two; the third gets its own
            # one-shot segment rather than blocking the submitter.
            assert pool._sequence == slab_count + 1
            payloads = []
            for handle in handles:
                view, packed = handle.wait()
                payloads.append(bytes(view))
                handle.release()
            assert payloads == [payload_bytes(SLOT_BYTES, seed=i) for i in range(3)]
            # Releasing the dedicated segment unlinks its name immediately.
            assert len(shm_names(pool._tag)) == 1  # just the lane slab
        finally:
            pool.close()

    def test_oversize_payload_uses_dedicated_segment(self):
        pool = ShmLanePool(config=lane_config(), workers=1, slot_bytes=SLOT_BYTES)
        try:
            data = payload_bytes(SLOT_BYTES * 3)
            handle = pool.submit(data)
            view, _packed = handle.wait()
            assert bytes(view) == data
            handle.release()
        finally:
            pool.close()

    def test_streamed_payload_matches_buffer_submission(self):
        config = lane_config()
        data = payload_bytes(SLOT_BYTES * 2 + 123)
        blocks = [data[i:i + 1000] for i in range(0, len(data), 1000)]
        pool = ShmLanePool(config=config, workers=1, slot_bytes=SLOT_BYTES)
        try:
            streamed = pool.submit(iter(blocks))
            view, packed_streamed = streamed.wait()
            assert bytes(view) == data
            streamed.release()
            buffered = pool.submit(data)
            _view, packed_buffered = buffered.wait()
            assert packed_streamed == packed_buffered
            buffered.release()
        finally:
            pool.close()

    def test_dead_lane_raises_parallel_lane_error(self):
        pool = ShmLanePool(config=lane_config(), workers=1, slot_bytes=SLOT_BYTES)
        try:
            lane = pool.lanes[0]
            lane.process.kill()
            lane.process.join(timeout=5.0)
            with pytest.raises(ParallelLaneError):
                pool.submit(payload_bytes(64)).wait()
        finally:
            pool.close()

    def test_close_is_idempotent_and_unlinks_everything(self):
        pool = ShmLanePool(config=lane_config(), workers=2, slot_bytes=SLOT_BYTES)
        tag = pool._tag
        # Leave a completed-but-unreleased result and a dedicated segment
        # outstanding: close must still retire every /dev/shm name.
        keep = pool.submit(payload_bytes(SLOT_BYTES))
        keep.wait()
        oversize = pool.submit(payload_bytes(SLOT_BYTES * 4))
        oversize.wait()
        pool.close()
        pool.close()
        assert shm_names(tag) == set()
        with pytest.raises(ParallelLaneError):
            pool.submit(b"after close")

    def test_close_releases_outstanding_views_and_unmaps_every_segment(self):
        pool = ShmLanePool(config=lane_config(), workers=2, slot_bytes=SLOT_BYTES)
        segments = [lane.shm for lane in pool.lanes]
        slotted = pool.submit(payload_bytes(SLOT_BYTES))
        view, _packed = slotted.wait()
        oversize = pool.submit(payload_bytes(SLOT_BYTES * 4))
        oversize.wait()
        segments.append(oversize._segment)
        pool.close()
        with pytest.raises(ValueError):
            view.nbytes  # released: no view outlives the pool
        # Every mapping is closed, none merely detached behind a live view.
        assert [(shm.buf, shm._mmap) for shm in segments] == [(None, None)] * len(segments)
