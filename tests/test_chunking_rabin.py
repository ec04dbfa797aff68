"""Tests for repro.chunking.rabin (rolling hash)."""

import pytest

from repro.chunking.rabin import RABIN_WINDOW_SIZE, RabinRollingHash
from tests.helpers import deterministic_bytes


class TestRollingHash:
    def test_initial_value_zero(self):
        assert RabinRollingHash().value == 0

    def test_deterministic_for_same_input(self):
        data = deterministic_bytes(200, seed=1)
        h1 = RabinRollingHash()
        h2 = RabinRollingHash()
        for byte in data:
            h1.update(byte)
            h2.update(byte)
        assert h1.value == h2.value

    def test_different_input_different_hash(self):
        h1 = RabinRollingHash()
        h2 = RabinRollingHash()
        for byte in deterministic_bytes(100, seed=1):
            h1.update(byte)
        for byte in deterministic_bytes(100, seed=2):
            h2.update(byte)
        assert h1.value != h2.value

    def test_window_property(self):
        # After the window is full, the hash depends only on the last
        # window_size bytes: two streams with the same suffix converge.
        suffix = deterministic_bytes(RABIN_WINDOW_SIZE, seed=7)
        h1 = RabinRollingHash()
        for byte in deterministic_bytes(100, seed=1) + suffix:
            h1.update(byte)
        h2 = RabinRollingHash()
        for byte in deterministic_bytes(300, seed=2) + suffix:
            h2.update(byte)
        assert h1.value == h2.value

    def test_reset_clears_state(self):
        hasher = RabinRollingHash()
        for byte in b"some data here":
            hasher.update(byte)
        hasher.reset()
        assert hasher.value == 0

    def test_custom_window_size(self):
        hasher = RabinRollingHash(window_size=16)
        assert hasher.window_size == 16

    def test_invalid_window_size(self):
        with pytest.raises(ValueError):
            RabinRollingHash(window_size=0)

    def test_value_fits_in_64_bits(self):
        hasher = RabinRollingHash()
        for byte in deterministic_bytes(1000, seed=3):
            assert 0 <= hasher.update(byte) < (1 << 64)

    def test_single_byte_update_returns_value(self):
        hasher = RabinRollingHash()
        returned = hasher.update(0x41)
        assert returned == hasher.value
