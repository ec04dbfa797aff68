"""Byte-size constants and formatting."""

from __future__ import annotations

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB
TiB = 1024 * GiB


def format_bytes(num_bytes: float) -> str:
    """Format a byte count with a binary suffix, e.g. ``format_bytes(4096) == '4.0 KiB'``."""
    value = float(num_bytes)
    for suffix in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024.0 or suffix == "TiB":
            if suffix == "B":
                return f"{int(value)} B"
            return f"{value:.1f} {suffix}"
        value /= 1024.0
    raise AssertionError("unreachable")
