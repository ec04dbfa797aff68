"""Tests for repro.fingerprint.fingerprinter."""

import hashlib

import pytest

from repro.chunking.fixed import StaticChunker
from repro.errors import FingerprintError
from repro.fingerprint.fingerprinter import ChunkRecord, Fingerprinter
from tests.helpers import deterministic_bytes


def fingerprint(data, chunker, algorithm="sha1", keep_data=True):
    return list(Fingerprinter(algorithm).fingerprint_blocks(data, chunker, keep_data=keep_data))


class TestFingerprinter:
    def test_sha1_fingerprint_matches_hashlib(self):
        [record] = fingerprint(b"hello chunk", StaticChunker(64))
        assert record.fingerprint == hashlib.sha1(b"hello chunk").digest()

    def test_md5_fingerprint_matches_hashlib(self):
        [record] = fingerprint(b"hello chunk", StaticChunker(64), algorithm="md5")
        assert record.fingerprint == hashlib.md5(b"hello chunk").digest()

    def test_unknown_algorithm_raises(self):
        with pytest.raises(FingerprintError):
            Fingerprinter("adler32")

    def test_record_carries_length_offset_and_data(self):
        record = fingerprint(b"0123456789abcdef", StaticChunker(4))[2]
        assert record.length == 4
        assert record.offset == 8
        assert record.data == b"89ab"

    def test_keep_data_false_drops_payload(self):
        [record] = fingerprint(b"abcdef", StaticChunker(64), keep_data=False)
        assert record.data is None
        assert record.length == 6

    def test_statistics_counters(self):
        fingerprinter = Fingerprinter()
        list(fingerprinter.fingerprint_blocks(b"aaaabb", StaticChunker(4)))
        assert fingerprinter.chunks_fingerprinted == 2
        assert fingerprinter.bytes_fingerprinted == 6

    def test_whole_buffer_reassembles(self):
        data = deterministic_bytes(10_000, seed=1)
        records = fingerprint(data, StaticChunker(1024))
        assert len(records) == 10
        assert b"".join(record.data for record in records) == data

    def test_identical_chunks_have_identical_fingerprints(self):
        data = deterministic_bytes(1024, seed=2)
        a, b = fingerprint(data + data, StaticChunker(1024))
        assert (a.offset, b.offset) == (0, 1024)
        assert a.fingerprint == b.fingerprint

    def test_different_chunks_have_different_fingerprints(self):
        a, b = fingerprint(b"onetwo", StaticChunker(3))
        assert a.fingerprint != b.fingerprint


class TestChunkRecord:
    def test_hex_property(self):
        record = ChunkRecord(fingerprint=b"\xde\xad\xbe\xef", length=4)
        assert record.hex == "deadbeef"

    def test_frozen(self):
        record = ChunkRecord(fingerprint=b"\x01", length=1)
        with pytest.raises(AttributeError):
            record.length = 2


class TestFusedBufferPath:
    """The buffer form of fingerprint_blocks slices one shared memoryview."""

    def test_bytearray_input_is_not_copied(self):
        # A mutable buffer must flow through as a view: records produced
        # before a mutation reflect the original bytes, and no bytes(data)
        # whole-buffer copy is ever made (asserted indirectly: records after
        # the mutation see the *new* bytes).
        chunker = StaticChunker(256)
        buffer = bytearray(deterministic_bytes(1024, seed=40))
        fingerprinter = Fingerprinter("sha1")
        iterator = fingerprinter.fingerprint_blocks(buffer, chunker)
        first = next(iterator)
        assert first.data == bytes(buffer[:256])
        buffer[512:768] = b"\x00" * 256  # mutate a chunk not yet fingerprinted
        records = [first] + list(iterator)
        assert records[2].fingerprint == hashlib.sha1(b"\x00" * 256).digest()

    def test_writable_buffer_is_hashed_one_record_at_a_time_behind_any_scan(self):
        # The gear scans compute boundaries ahead (the compiled one up to a
        # thousand); records of a writable buffer are still hashed and
        # sliced one at a time, so a region overwritten before its record is
        # handed out shows up in that record, payload and fingerprint alike.
        from repro.chunking import build_chunker

        buffer = bytearray(deterministic_bytes(64_000, seed=43))
        iterator = Fingerprinter("sha1").fingerprint_blocks(
            buffer, build_chunker("gear", average_size=256)
        )
        first = next(iterator)
        buffer[-100:] = b"\x00" * 100
        records = [first] + list(iterator)
        assert b"".join(record.data for record in records) == bytes(buffer)
        assert all(r.fingerprint == hashlib.sha1(r.data).digest() for r in records)

    def test_memoryview_input_matches_bytes_input(self):
        data = deterministic_bytes(10_000, seed=41)
        chunker = StaticChunker(512)
        from_bytes = fingerprint(data, chunker)
        from_view = fingerprint(memoryview(data), chunker)
        assert [(r.fingerprint, r.length, r.offset, r.data) for r in from_view] == [
            (r.fingerprint, r.length, r.offset, r.data) for r in from_bytes
        ]

    def test_records_carry_bytes_not_views(self):
        # Downstream layers (container store, messages) require real bytes
        # payloads even when the input was a mutable buffer.
        records = fingerprint(bytearray(deterministic_bytes(2048, seed=42)), StaticChunker(512))
        assert all(type(r.data) is bytes for r in records)

    def test_counters_update_on_buffer_path(self):
        fingerprinter = Fingerprinter("sha1")
        list(fingerprinter.fingerprint_blocks(b"x" * 1000, StaticChunker(256)))
        assert fingerprinter.chunks_fingerprinted == 4
        assert fingerprinter.bytes_fingerprinted == 1000

    def test_keep_data_false_keeps_fingerprints_correct(self):
        data = deterministic_bytes(4096, seed=43)
        records = fingerprint(data, StaticChunker(1024), keep_data=False)
        assert all(r.data is None for r in records)
        assert [r.fingerprint for r in records] == [
            hashlib.sha1(data[i:i + 1024]).digest() for i in range(0, 4096, 1024)
        ]

    def test_empty_buffer_yields_no_records(self):
        assert fingerprint(b"", StaticChunker(256)) == []


class TestStreamingFingerprinting:
    def test_fingerprint_blocks_matches_oneshot(self):
        data = deterministic_bytes(10_000, seed=31)
        chunker = StaticChunker(512)
        one_shot = fingerprint(data, chunker, keep_data=False)
        blocks = [data[i:i + 777] for i in range(0, len(data), 777)]
        streamed = list(
            Fingerprinter("sha1").fingerprint_blocks(blocks, chunker, keep_data=False)
        )
        assert [(r.fingerprint, r.length, r.offset) for r in streamed] == [
            (r.fingerprint, r.length, r.offset) for r in one_shot
        ]

    def test_fingerprint_blocks_accepts_block_iterable(self):
        data = deterministic_bytes(8_000, seed=32)
        chunker = StaticChunker(1024)
        from_bytes = fingerprint(data, chunker)
        from_blocks = fingerprint(iter([data[:3000], data[3000:3001], data[3001:]]), chunker)
        assert [r.fingerprint for r in from_blocks] == [r.fingerprint for r in from_bytes]

    def test_fingerprint_blocks_is_lazy(self):
        chunker = StaticChunker(256)
        consumed = []

        def blocks():
            for i in range(4):
                consumed.append(i)
                yield bytes([i]) * 256

        iterator = Fingerprinter("sha1").fingerprint_blocks(blocks(), chunker)
        assert consumed == []  # nothing pulled until iteration starts
        first = next(iterator)
        assert first.length == 256
        assert len(consumed) < 4
