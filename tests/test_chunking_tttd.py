"""Tests for repro.chunking.tttd (Two-Threshold Two-Divisor chunking)."""

import pytest

from repro.chunking.tttd import TTTDChunker
from tests.helpers import deterministic_bytes


class TestTTTDChunker:
    def test_paper_configuration_accepted(self):
        # 1KB / 2KB / 4KB / 32KB -- the configuration of Section 2.2.
        chunker = TTTDChunker(min_size=1024, backup_mean=2048, main_mean=4096, max_size=32768)
        assert chunker.average_chunk_size == 4096

    def test_roundtrip(self):
        data = deterministic_bytes(120_000, seed=1)
        TTTDChunker().validate_roundtrip(data)

    def test_roundtrip_small_input(self):
        TTTDChunker().validate_roundtrip(deterministic_bytes(100, seed=2))

    def test_empty_input(self):
        assert TTTDChunker().chunk_all(b"") == []

    def test_min_and_max_bounds(self):
        chunker = TTTDChunker(min_size=512, backup_mean=1024, main_mean=2048, max_size=8192)
        data = deterministic_bytes(200_000, seed=3)
        chunks = chunker.chunk_all(data)
        for chunk in chunks[:-1]:
            assert 512 <= chunk.length <= 8192

    def test_invalid_threshold_ordering(self):
        with pytest.raises(ValueError):
            TTTDChunker(min_size=4096, backup_mean=2048, main_mean=1024, max_size=512)

    def test_deterministic(self):
        data = deterministic_bytes(60_000, seed=4)
        chunker = TTTDChunker()
        assert [c.data for c in chunker.chunk(data)] == [c.data for c in chunker.chunk(data)]

    def test_shift_resilience(self):
        data = deterministic_bytes(150_000, seed=5)
        shifted = b"Y" + data
        chunker = TTTDChunker(min_size=512, backup_mean=1024, main_mean=2048, max_size=8192)
        original = {c.data for c in chunker.chunk(data)}
        shifted_chunks = {c.data for c in chunker.chunk(shifted)}
        assert len(original & shifted_chunks) >= len(original) * 0.5

    def test_backup_divisor_reduces_max_forced_cuts(self):
        # Compared with plain CDC at the same max size, TTTD should cut fewer
        # chunks at exactly the maximum threshold on random data.
        data = deterministic_bytes(200_000, seed=6)
        chunker = TTTDChunker(min_size=512, backup_mean=1024, main_mean=2048, max_size=4096)
        chunks = chunker.chunk_all(data)
        at_max = sum(1 for chunk in chunks[:-1] if chunk.length == 4096)
        assert at_max < len(chunks) / 2

    def test_average_size_within_factor_of_main_mean(self):
        data = deterministic_bytes(300_000, seed=7)
        chunker = TTTDChunker(min_size=512, backup_mean=1024, main_mean=2048, max_size=8192)
        chunks = chunker.chunk_all(data)
        observed = len(data) / len(chunks)
        assert 2048 / 3 < observed < 2048 * 3

    def test_block_edge_between_a_backup_boundary_and_the_forced_cut(self):
        # At max_size TTTD cuts back at its remembered backup boundary.  When a
        # block edge falls between that boundary and the max_size position,
        # the cut lies inside the carried tail, before the edge: the
        # streaming loop must not treat it as the end of the straddling chunk.
        import random

        chunker = TTTDChunker(min_size=64, backup_mean=128, main_mean=256, max_size=1024)
        data = random.Random(3).randbytes(64_000)  # the tail block is a "large" one
        one_shot = [(c.offset, c.data) for c in chunker.chunk(data)]
        backup_cuts = [
            (offset, len(payload)) for offset, payload in one_shot
            if len(payload) < 1000 and offset + 1024 < len(data)
            # A chunk that keeps growing past its cut was not ended by a hash match.
            and len(next(iter(chunker.chunk(data[offset:offset + len(payload) + 5]))).data)
            == len(payload) + 5
        ]
        assert backup_cuts
        offset, length = backup_cuts[0]
        for edge in (offset + length + 1, offset + (length + 1024) // 2, offset + 1023):
            streamed = chunker.chunk_stream([data[:edge], data[edge:]])
            assert [(c.offset, c.data) for c in streamed] == one_shot, edge
