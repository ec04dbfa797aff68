"""Tests for repro.storage.container."""

import pytest

from repro.errors import ContainerFullError, StorageError
from repro.fingerprint.fingerprinter import ChunkRecord
from repro.storage.container import Container, ContainerMetadataEntry
from tests.helpers import fingerprint_of


def record(data: bytes) -> ChunkRecord:
    return ChunkRecord(fingerprint=fingerprint_of(data), length=len(data), data=data)


class TestAppend:
    def test_append_and_read(self):
        container = Container(container_id=0, capacity=1024)
        chunk = record(b"hello world")
        container.append(chunk)
        assert container.read_chunks([chunk.fingerprint])[0] == b"hello world"

    def test_metadata_entry_records_offset_and_length(self):
        container = Container(container_id=0, capacity=1024)
        first = container.append(record(b"aaaa"))
        second = container.append(record(b"bbbbbb"))
        assert first.offset == 0 and first.length == 4
        assert second.offset == 4 and second.length == 6

    def test_used_and_free(self):
        container = Container(container_id=0, capacity=100)
        container.append(record(b"x" * 30))
        assert container.used == 30
        assert container.free == 70

    def test_overflow_raises(self):
        container = Container(container_id=0, capacity=10)
        with pytest.raises(ContainerFullError):
            container.append(record(b"x" * 11))

    def test_append_to_sealed_raises(self):
        container = Container(container_id=0, capacity=100)
        container.seal()
        with pytest.raises(ContainerFullError):
            container.append(record(b"data"))

    def test_chunk_of_exactly_free_bytes_fits(self):
        container = Container(container_id=0, capacity=10)
        container.append(record(b"x" * 4))
        container.append(record(b"y" * container.free))
        assert container.free == 0

    def test_fingerprint_only_chunk_accounts_space(self):
        container = Container(container_id=0, capacity=100)
        container.append(ChunkRecord(fingerprint=b"\x01" * 20, length=40, data=None))
        assert container.used == 40


class TestReading:
    def test_read_missing_chunk_returns_none(self):
        container = Container(container_id=0, capacity=100)
        assert container.read_chunks([b"\x00" * 20])[0] is None

    def test_contains(self):
        container = Container(container_id=0, capacity=100)
        chunk = record(b"present")
        container.append(chunk)
        assert container.contains(chunk.fingerprint)
        assert not container.contains(b"\x00" * 20)

    def test_fingerprints_in_append_order(self):
        container = Container(container_id=0, capacity=1000)
        chunks = [record(bytes([i]) * 10) for i in range(5)]
        for chunk in chunks:
            container.append(chunk)
        assert container.fingerprints() == [chunk.fingerprint for chunk in chunks]

    def test_metadata_section_is_copy(self):
        container = Container(container_id=0, capacity=100)
        container.append(record(b"abc"))
        section = container.metadata_section()
        section.clear()
        assert container.chunk_count == 1

    def test_chunk_count(self):
        container = Container(container_id=0, capacity=1000)
        for i in range(3):
            container.append(record(bytes([i]) * 8))
        assert container.chunk_count == 3


class TestFromRecovered:
    ENTRIES = [ContainerMetadataEntry(b"\x01" * 20, 0, 3), ContainerMetadataEntry(b"\x02" * 20, 3, 2)]

    @pytest.mark.parametrize("sources", [{}, dict(parts=[b"abc", b"de"], loader=lambda _: None)])
    def test_needs_exactly_one_payload_source(self, sources):
        with pytest.raises(StorageError, match="exactly one"):
            Container.from_recovered(
                container_id=0, capacity=100, stream_id=0, entries=self.ENTRIES, **sources
            )

    def test_parts_must_align_with_entries(self):
        with pytest.raises(StorageError, match="2 metadata entries but 1 payload parts"):
            Container.from_recovered(
                container_id=0, capacity=100, stream_id=0, entries=self.ENTRIES, parts=[b"abc"]
            )

    def test_parts_rebuild_a_sealed_resident_clone(self):
        container = Container.from_recovered(
            container_id=7, capacity=100, stream_id=0, entries=self.ENTRIES, parts=[b"abc", b"de"]
        )
        assert container.sealed
        assert container.used == 5
        assert container.read_chunks([b"\x02" * 20, b"\x01" * 20]) == [b"de", b"abc"]
