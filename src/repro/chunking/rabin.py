"""Rabin-style rolling hash used by the content-defined chunkers.

The paper's CDC implementation is "Rabin hash based content defined chunking
... based on the open source code in Cumulus [21]".  We implement the same
idea: a polynomial rolling hash over a sliding window whose low-order bits are
tested against a divisor to declare chunk boundaries.

A classic Rabin fingerprint works in GF(2); for a pure-Python reproduction we
use the equivalent Rabin-Karp style polynomial hash modulo 2**64 with
precomputed byte tables, which has the same boundary-distribution properties
that matter for chunk-size statistics (boundaries behave like a Bernoulli
process with probability 1/divisor per position).
"""

from __future__ import annotations

from typing import Sequence
from repro.errors import ValidationError

#: Sliding window width in bytes, the value used by Cumulus and LBFS-style CDC.
RABIN_WINDOW_SIZE = 48

_MASK64 = (1 << 64) - 1
_MULTIPLIER = 0x27220A95FE26F617  # a fixed odd 64-bit multiplier


class RabinRollingHash:
    """A rolling polynomial hash over a fixed-width window.

    The hash of a window ``b[0..w-1]`` is ``sum(b[i] * M**(w-1-i)) mod 2**64``.
    Rolling in a new byte and rolling out the oldest byte is O(1) thanks to a
    precomputed ``M**w`` table indexed by the outgoing byte value.

    Parameters
    ----------
    window_size:
        Width of the sliding window in bytes.
    """

    def __init__(self, window_size: int = RABIN_WINDOW_SIZE):
        if window_size < 1:
            raise ValidationError("window_size must be >= 1")
        self.window_size = window_size
        self._out_table = self._build_out_table(window_size)
        self.reset()

    @staticmethod
    def _build_out_table(window_size: int) -> Sequence[int]:
        # out_table[b] = b * M**window_size mod 2**64, subtracted when byte b
        # slides out of the window.
        factor = pow(_MULTIPLIER, window_size, 1 << 64)
        return [(b * factor) & _MASK64 for b in range(256)]

    def reset(self) -> None:
        """Clear the window and the running hash value."""
        self._window = bytearray(self.window_size)
        self._position = 0
        self._filled = 0
        self.value = 0

    def update(self, byte: int) -> int:
        """Slide ``byte`` into the window and return the new hash value."""
        outgoing = self._window[self._position]
        self._window[self._position] = byte
        self._position = (self._position + 1) % self.window_size
        if self._filled < self.window_size:
            self._filled += 1
        self.value = ((self.value * _MULTIPLIER) + byte - self._out_table[outgoing]) & _MASK64
        return self.value

    def update_bytes(self, data: bytes) -> int:
        """Slide every byte of ``data`` through the window, return the final hash."""
        for byte in data:
            self.update(byte)
        return self.value

    @property
    def window_full(self) -> bool:
        """True once at least ``window_size`` bytes have been consumed."""
        return self._filled >= self.window_size
