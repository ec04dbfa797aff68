"""Tests for repro.chunking.fixed (static chunking)."""

import pytest

from repro.chunking.fixed import StaticChunker
from tests.helpers import deterministic_bytes


class TestStaticChunker:
    def test_exact_multiple(self):
        data = deterministic_bytes(4096 * 4, seed=1)
        chunks = list(StaticChunker(4096).chunk(data))
        assert len(chunks) == 4
        assert all(chunk.length == 4096 for chunk in chunks)

    def test_trailing_partial_chunk(self):
        data = deterministic_bytes(4096 + 100, seed=2)
        chunks = list(StaticChunker(4096).chunk(data))
        assert len(chunks) == 2
        assert chunks[-1].length == 100

    def test_empty_input(self):
        assert list(StaticChunker(4096).chunk(b"")) == []

    def test_input_smaller_than_chunk(self):
        chunks = list(StaticChunker(4096).chunk(b"tiny"))
        assert len(chunks) == 1
        assert chunks[0].data == b"tiny"

    def test_offsets_are_cumulative(self):
        data = deterministic_bytes(1000, seed=3)
        chunks = list(StaticChunker(256).chunk(data))
        assert [chunk.offset for chunk in chunks] == [0, 256, 512, 768]

    def test_roundtrip(self):
        data = deterministic_bytes(10_000, seed=4)
        assert b"".join(chunk.data for chunk in StaticChunker(300).chunk(data)) == data

    def test_average_chunk_size_property(self):
        assert StaticChunker(8192).average_chunk_size == 8192

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            StaticChunker(0)

    def test_identical_data_identical_chunks(self):
        data = deterministic_bytes(5000, seed=5)
        a = list(StaticChunker(512).chunk(data))
        b = list(StaticChunker(512).chunk(data))
        assert [c.data for c in a] == [c.data for c in b]

    def test_shift_sensitivity(self):
        # Static chunking is shift-sensitive: inserting one byte at the front
        # changes every chunk after the insertion point (this is the contrast
        # with CDC the paper discusses).
        data = deterministic_bytes(4096 * 3, seed=6)
        shifted = b"X" + data
        original_chunks = {c.data for c in StaticChunker(1024).chunk(data)}
        shifted_chunks = {c.data for c in StaticChunker(1024).chunk(shifted)}
        assert len(original_chunks & shifted_chunks) <= 1
