"""Gear-hash content-defined chunking with normalized chunking (FastCDC-style).

The gear hash replaces the Rabin rolling hash with a single shift-add over a
precomputed 256-entry table of random 64-bit values::

    fp = ((fp << 1) + GEAR[byte]) & (2**64 - 1)

Each byte's table entry is left-shifted once per subsequent byte, so a byte
stops influencing the fingerprint after 64 positions -- the sliding window is
implicit and no outgoing-byte bookkeeping is needed.  Boundaries are declared
when the *high* bits of the fingerprint (where entropy from the whole implicit
window accumulates) are all zero under a mask.

Two further FastCDC techniques are applied:

* **Cut-point skipping** -- the scan starts ``min_size`` bytes into each
  chunk with a fresh fingerprint, so the minimum-size region costs nothing.
* **Normalized chunking** -- a *stricter* mask (more bits, fewer cuts) is
  used below a normalization point and a *looser* mask above it, squeezing
  the chunk-size distribution around the target.  Rather than fixing the
  normalization point at the target size, it is solved by bisection so the
  realized mean chunk size equals the configured ``average_size`` exactly
  (power-of-two masks alone cannot hit an arbitrary mean once the minimum
  skip and maximum truncation are accounted for).

The inner loop is table-driven with hoisted locals and no per-byte object
calls, which makes it the fastest pure-Python chunker in this repository by a
wide margin (see ``benchmarks/bench_chunker_throughput.py``).
"""

from __future__ import annotations

import hashlib
from typing import Iterator, List, Tuple

from repro.chunking.base import Chunker, RawChunk
from repro.errors import ValidationError

_MASK64 = (1 << 64) - 1

#: Extra mask bits below / fewer bits above the normalization point.
DEFAULT_NORMALIZATION = 2


def _build_gear_table(salt: bytes = b"repro-gear-table-v1") -> List[int]:
    """256 deterministic pseudo-random 64-bit gear values.

    Derived from SHA-256 so the table (and therefore every chunk boundary)
    is stable across Python versions, platforms and processes.
    """
    return [
        int.from_bytes(hashlib.sha256(salt + bytes([byte])).digest()[:8], "big")
        for byte in range(256)
    ]


GEAR_TABLE: Tuple[int, ...] = tuple(_build_gear_table())


def _top_mask(bits: int) -> int:
    """A mask selecting the ``bits`` most significant bits of a 64-bit word."""
    return ((1 << bits) - 1) << (64 - bits)


def _expected_size(
    normal_point: int, min_size: int, max_size: int, p_strict: float, p_loose: float
) -> float:
    """Mean chunk size given a mask switch at ``normal_point``.

    Boundary trials run once per byte past ``min_size``: with probability
    ``p_strict`` per trial up to the normalization point, ``p_loose`` beyond
    it, and a forced cut at ``max_size``.  Survival is a product of two
    geometric runs, so the mean reduces to two geometric series.
    """
    span = max_size - min_size
    strict_trials = min(max(normal_point - min_size, 0), span)
    q_strict = 1.0 - p_strict
    q_loose = 1.0 - p_loose
    # sum over k in [0, strict_trials) of q_strict**k
    strict_part = (1.0 - q_strict ** strict_trials) / (1.0 - q_strict)
    survival_at_switch = q_strict ** strict_trials
    loose_trials = span - strict_trials
    loose_part = survival_at_switch * (1.0 - q_loose ** loose_trials) / (1.0 - q_loose)
    return min_size + strict_part + loose_part


def _solve_normal_point(
    average_size: int, min_size: int, max_size: int, p_strict: float, p_loose: float
) -> int:
    """Bisect the normalization point so the realized mean hits ``average_size``.

    The mean is monotone increasing in the switch point (a longer strict
    region suppresses cuts for longer), so bisection converges; the result is
    clamped when the requested average is unreachable for these masks.
    """
    low, high = min_size, max_size
    if _expected_size(low, min_size, max_size, p_strict, p_loose) >= average_size:
        return low
    if _expected_size(high, min_size, max_size, p_strict, p_loose) <= average_size:
        return high
    while low < high:
        mid = (low + high) // 2
        if _expected_size(mid, min_size, max_size, p_strict, p_loose) < average_size:
            low = mid + 1
        else:
            high = mid
    return low


class GearChunker(Chunker):
    """High-throughput gear-hash chunker with normalized chunking.

    Parameters
    ----------
    average_size:
        Target average chunk size in bytes; the normalization point is solved
        so the realized mean matches it on random data.
    min_size:
        Minimum chunk size (default ``average_size // 4``); the scan skips
        straight past it.
    max_size:
        Hard maximum chunk size (default ``average_size * 4``).
    normalization:
        Normalization level: the strict mask carries this many bits more than
        the nominal mask, the loose mask this many fewer.  ``0`` disables
        normalized chunking (a single mask throughout).
    """

    def __init__(
        self,
        average_size: int = 4096,
        min_size: int | None = None,
        max_size: int | None = None,
        normalization: int = DEFAULT_NORMALIZATION,
    ):
        if average_size < 64:
            raise ValidationError("average_size must be >= 64 bytes")
        if normalization < 0:
            raise ValidationError("normalization must be >= 0")
        self._average_size = average_size
        self.min_size = min_size if min_size is not None else average_size // 4
        self.max_size = max_size if max_size is not None else average_size * 4
        if self.min_size < 1 or self.min_size >= self.max_size:
            raise ValidationError("require 1 <= min_size < max_size")
        self.normalization = normalization
        bits = max(1, round((average_size - 1).bit_length()))
        strict_bits = min(62, bits + normalization)
        loose_bits = max(1, bits - normalization)
        self._mask_strict = _top_mask(strict_bits)
        self._mask_loose = _top_mask(loose_bits)
        p_strict = 2.0 ** -strict_bits
        p_loose = 2.0 ** -loose_bits
        self._normal_point = _solve_normal_point(
            average_size, self.min_size, self.max_size, p_strict, p_loose
        )
        self._expected = _expected_size(
            self._normal_point, self.min_size, self.max_size, p_strict, p_loose
        )

    @property
    def average_chunk_size(self) -> int:
        """The realized expected chunk size on random data (not the request)."""
        return round(self._expected)

    @property
    def normal_point(self) -> int:
        """Chunk length at which the boundary mask switches strict -> loose."""
        return self._normal_point

    def cut_offsets(self, data: "bytes | bytearray | memoryview") -> Iterator[int]:
        length = len(data)
        table = GEAR_TABLE
        mask64 = _MASK64
        mask_strict = self._mask_strict
        mask_loose = self._mask_loose
        min_size = self.min_size
        max_size = self.max_size
        normal_point = self._normal_point
        start = 0
        while start < length:
            remaining = length - start
            if remaining <= min_size:
                yield length
                break
            end = start + max_size if remaining > max_size else length
            cut = end
            position = start + min_size  # cut-point skipping
            strict_end = start + normal_point
            if strict_end > end:
                strict_end = end
            fingerprint = 0
            found = False
            for byte in data[position:strict_end]:
                fingerprint = ((fingerprint << 1) + table[byte]) & mask64
                position += 1
                if not fingerprint & mask_strict:
                    cut = position
                    found = True
                    break
            if not found:
                for byte in data[position:end]:
                    fingerprint = ((fingerprint << 1) + table[byte]) & mask64
                    position += 1
                    if not fingerprint & mask_loose:
                        cut = position
                        break
            yield cut
            start = cut

    def chunk(self, data: bytes) -> Iterator[RawChunk]:
        start = 0
        for cut in self.cut_offsets(data):
            yield RawChunk(data=data[start:cut], offset=start)
            start = cut

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(average_size={self._average_size}, "
            f"min_size={self.min_size}, max_size={self.max_size}, "
            f"normalization={self.normalization})"
        )
