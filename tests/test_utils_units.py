"""Tests for repro.utils.units."""

from repro.utils.units import GiB, format_bytes


class TestFormatBytes:
    def test_bytes(self):
        assert format_bytes(512) == "512 B"

    def test_kib(self):
        assert format_bytes(4096) == "4.0 KiB"

    def test_mib(self):
        assert format_bytes(1024 * 1024) == "1.0 MiB"

    def test_gib(self):
        assert format_bytes(3 * GiB) == "3.0 GiB"

    def test_tib_for_huge_values(self):
        assert "TiB" in format_bytes(100 * 1024 * GiB)
