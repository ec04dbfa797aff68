"""Digest helpers.

Chunk fingerprints throughout the library are raw ``bytes`` digests (SHA-1 by
default, MD5 optionally), exactly as the paper uses cryptographic hashes as
chunk fingerprints.  These helpers centralise digest creation and the common
"interpret a fingerprint as an integer" operation used by DHT-style routing
(``fp mod N``) and by handprint candidate-node selection (Algorithm 1, step 1).
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict

from repro.errors import FingerprintError, ValidationError

#: Digest algorithms always available for chunk fingerprinting (hashlib).
SUPPORTED_ALGORITHMS = ("sha1", "md5", "sha256")

#: Resolved digest constructors, keyed by algorithm name.  ``hashlib.new``
#: re-resolves the algorithm string on every call, which is measurable at one
#: call per chunk; the named constructors (``hashlib.sha1`` etc.) skip that
#: dispatch entirely, so they are resolved once and cached here.
_DIGEST_CONSTRUCTORS: Dict[str, Callable] = {}


def digest_constructor(algorithm: str = "sha1") -> Callable:
    """Return the hashlib constructor for ``algorithm``, cached.

    The returned callable is the direct ``hashlib.sha1``-style constructor
    (accepting an optional initial buffer), so per-chunk digests pay no
    string dispatch.  Raises :class:`FingerprintError` for algorithms outside
    :data:`SUPPORTED_ALGORITHMS`.
    """
    try:
        return _DIGEST_CONSTRUCTORS[algorithm]
    except KeyError:
        if algorithm not in SUPPORTED_ALGORITHMS:
            raise FingerprintError(
                f"unsupported digest algorithm: {algorithm!r}"
            ) from None
        constructor = getattr(hashlib, algorithm)
        _DIGEST_CONSTRUCTORS[algorithm] = constructor
        return constructor


def digest_bytes(data: bytes, algorithm: str = "sha1") -> bytes:
    """Return the raw digest of ``data`` under ``algorithm``.

    Parameters
    ----------
    data:
        The chunk payload.
    algorithm:
        One of :data:`SUPPORTED_ALGORITHMS`.
    """
    return digest_constructor(algorithm)(data).digest()


def digest_to_int(fingerprint: bytes) -> int:
    """Interpret a fingerprint as a big-endian unsigned integer."""
    if not fingerprint:
        raise FingerprintError("cannot convert an empty fingerprint to an integer")
    return int.from_bytes(fingerprint, "big")


def fingerprint_mod(fingerprint: bytes, modulus: int) -> int:
    """Map a fingerprint to ``[0, modulus)`` as in DHT / candidate-node selection.

    This implements the ``rfp mod N`` operation of Algorithm 1 step 1 and of
    the stateless routing baselines.
    """
    if modulus <= 0:
        raise ValidationError("modulus must be positive")
    return digest_to_int(fingerprint) % modulus
