"""Tests for repro.chunking.gear (FastCDC-style gear chunking)."""

import pytest

from repro.chunking.gear import GEAR_TABLE, GearChunker
from tests.helpers import deterministic_bytes


class TestGearTable:
    def test_has_256_distinct_64bit_entries(self):
        assert len(GEAR_TABLE) == 256
        assert len(set(GEAR_TABLE)) == 256
        assert all(0 <= value < (1 << 64) for value in GEAR_TABLE)

    def test_is_deterministic(self):
        from repro.chunking.gear import _build_gear_table

        assert list(GEAR_TABLE) == _build_gear_table()


class TestGearChunker:
    def test_roundtrip(self):
        data = deterministic_bytes(50_000, seed=1)
        assert b"".join(chunk.data for chunk in GearChunker(average_size=1024).chunk(data)) == data

    def test_empty_input(self):
        assert list(GearChunker(average_size=1024).chunk(b"")) == []

    def test_chunk_size_bounds(self):
        chunker = GearChunker(average_size=1024, min_size=256, max_size=4096)
        data = deterministic_bytes(100_000, seed=2)
        chunks = list(chunker.chunk(data))
        for chunk in chunks[:-1]:
            assert 256 < chunk.length <= 4096
        assert chunks[-1].length <= 4096

    def test_deterministic(self):
        data = deterministic_bytes(30_000, seed=5)
        chunker = GearChunker(average_size=2048)
        assert [c.data for c in chunker.chunk(data)] == [c.data for c in chunker.chunk(data)]

    def test_offsets_are_consistent(self):
        data = deterministic_bytes(20_000, seed=6)
        position = 0
        for chunk in GearChunker(average_size=1024).chunk(data):
            assert chunk.offset == position
            position += chunk.length
        assert position == len(data)

    def test_shift_resilience(self):
        # The gear hash forgets bytes after 64 positions, so a one-byte
        # insertion near the front only disturbs boundaries locally.
        data = deterministic_bytes(100_000, seed=4)
        shifted = b"X" + data
        chunker = GearChunker(average_size=1024)
        original = {c.data for c in chunker.chunk(data)}
        shifted_chunks = {c.data for c in chunker.chunk(shifted)}
        assert len(original & shifted_chunks) >= len(original) * 0.5

    def test_max_size_forces_boundary_on_degenerate_data(self):
        # Constant data: GEAR[0] has a non-zero high bit pattern with
        # overwhelming probability, so boundaries come only from max_size.
        chunker = GearChunker(average_size=1024, min_size=256, max_size=2048)
        chunks = list(chunker.chunk(b"\x00" * 10_000))
        assert b"".join(c.data for c in chunks) == b"\x00" * 10_000
        for chunk in chunks[:-1]:
            assert chunk.length <= 2048

    def test_default_min_max_derived_from_average(self):
        chunker = GearChunker(average_size=4096)
        assert chunker.min_size == 1024
        assert chunker.max_size == 16384

    def test_invalid_average_size(self):
        with pytest.raises(ValueError):
            GearChunker(average_size=16)

    def test_invalid_min_max(self):
        with pytest.raises(ValueError):
            GearChunker(average_size=1024, min_size=4096, max_size=1024)

    def test_invalid_normalization(self):
        with pytest.raises(ValueError):
            GearChunker(average_size=1024, normalization=-1)

    def test_short_input_is_single_chunk(self):
        chunker = GearChunker(average_size=4096)
        data = deterministic_bytes(chunker.min_size - 1, seed=9)
        chunks = list(chunker.chunk(data))
        assert len(chunks) == 1
        assert chunks[0].data == data


class TestNormalizedChunking:
    def test_normal_point_within_bounds(self):
        chunker = GearChunker(average_size=4096)
        assert chunker.min_size <= chunker.normal_point <= chunker.max_size

    def test_average_chunk_size_reports_realized_expectation(self):
        # The solver centres the realized mean on the configured average, so
        # the reported expectation must sit within rounding distance of it.
        for average in (1024, 4096, 8192):
            chunker = GearChunker(average_size=average)
            assert abs(chunker.average_chunk_size - average) <= 1

    def test_normalization_tightens_size_spread(self):
        data = deterministic_bytes(400_000, seed=7)
        normalized = GearChunker(average_size=1024, normalization=2)
        plain = GearChunker(average_size=1024, normalization=0)

        def spread(chunker):
            lengths = [c.length for c in chunker.chunk(data)]
            mean = sum(lengths) / len(lengths)
            return (sum((l - mean) ** 2 for l in lengths) / len(lengths)) ** 0.5

        assert spread(normalized) < spread(plain)

    def test_realized_mean_within_tolerance(self):
        data = deterministic_bytes(2_000_000, seed=8)
        chunker = GearChunker(average_size=4096)
        chunks = list(chunker.chunk(data))
        observed = len(data) / len(chunks)
        assert abs(observed - 4096) / 4096 < 0.15
