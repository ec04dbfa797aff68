"""Tests for repro.utils.hashing."""

import hashlib

import pytest

from repro.errors import FingerprintError
from repro.utils.hashing import (
    SUPPORTED_ALGORITHMS,
    digest_bytes,
    digest_constructor,
    digest_to_int,
    fingerprint_mod,
)


class TestDigestConstructor:
    def test_matches_named_hashlib_constructor(self):
        assert digest_constructor("sha1") is hashlib.sha1
        assert digest_constructor("md5") is hashlib.md5
        assert digest_constructor("sha256") is hashlib.sha256

    def test_is_cached(self):
        assert digest_constructor("sha1") is digest_constructor("sha1")

    def test_every_supported_algorithm_resolves(self):
        for algorithm in SUPPORTED_ALGORITHMS:
            digest = digest_constructor(algorithm)(b"payload").digest()
            assert digest == hashlib.new(algorithm, b"payload").digest()

    def test_accepts_memoryview_payload(self):
        buffer = bytearray(b"mutable-payload")
        digest = digest_constructor("sha1")(memoryview(buffer)).digest()
        assert digest == hashlib.sha1(bytes(buffer)).digest()

    def test_unknown_algorithm_raises(self):
        with pytest.raises(FingerprintError):
            digest_constructor("crc32")

    def test_unknown_algorithm_raises_every_call(self):
        # The unsupported-algorithm error must not be cached away.
        for _ in range(2):
            with pytest.raises(FingerprintError):
                digest_constructor("blake2b")


class TestDigestBytes:
    def test_sha1_matches_hashlib(self):
        data = b"sigma-dedupe"
        assert digest_bytes(data, "sha1") == hashlib.sha1(data).digest()

    def test_md5_matches_hashlib(self):
        data = b"sigma-dedupe"
        assert digest_bytes(data, "md5") == hashlib.md5(data).digest()

    def test_sha256_matches_hashlib(self):
        data = b"sigma-dedupe"
        assert digest_bytes(data, "sha256") == hashlib.sha256(data).digest()

    def test_empty_input_is_valid(self):
        assert digest_bytes(b"", "sha1") == hashlib.sha1(b"").digest()

    def test_unknown_algorithm_raises(self):
        with pytest.raises(FingerprintError):
            digest_bytes(b"data", "crc32")

    def test_digest_length_sha1(self):
        assert len(digest_bytes(b"x", "sha1")) == 20

    def test_digest_length_md5(self):
        assert len(digest_bytes(b"x", "md5")) == 16


class TestDigestToInt:
    def test_known_value(self):
        assert digest_to_int(b"\x00\x01") == 1
        assert digest_to_int(b"\x01\x00") == 256

    def test_is_big_endian(self):
        assert digest_to_int(b"\xff\x00") == 0xFF00

    def test_empty_raises(self):
        with pytest.raises(FingerprintError):
            digest_to_int(b"")

    def test_roundtrip_with_int_to_bytes(self):
        value = 123456789
        raw = value.to_bytes(8, "big")
        assert digest_to_int(raw) == value


class TestFingerprintMod:
    def test_mod_range(self):
        fingerprint = hashlib.sha1(b"anything").digest()
        for modulus in (1, 2, 7, 128):
            assert 0 <= fingerprint_mod(fingerprint, modulus) < modulus

    def test_mod_one_always_zero(self):
        fingerprint = hashlib.sha1(b"x").digest()
        assert fingerprint_mod(fingerprint, 1) == 0

    def test_deterministic(self):
        fingerprint = hashlib.sha1(b"determinism").digest()
        assert fingerprint_mod(fingerprint, 64) == fingerprint_mod(fingerprint, 64)

    def test_matches_integer_arithmetic(self):
        fingerprint = b"\x00\x00\x01\x05"
        assert fingerprint_mod(fingerprint, 256) == 0x105 % 256

    def test_invalid_modulus_raises(self):
        with pytest.raises(ValueError):
            fingerprint_mod(b"\x01", 0)

    def test_uniformity_rough(self):
        # Cryptographic digests mod N should spread roughly evenly; with 4096
        # samples over 16 buckets each bucket should be within 3x of the mean.
        buckets = [0] * 16
        for i in range(4096):
            fp = hashlib.sha1(f"key-{i}".encode()).digest()
            buckets[fingerprint_mod(fp, 16)] += 1
        assert min(buckets) > 4096 / 16 / 3
        assert max(buckets) < 4096 / 16 * 3
