"""CPython's Mersenne Twister in C, built on first use like the gear kernel
(:func:`repro.chunking.accel.compiled`, ``mersenne-<key>.so``): one fill loop,
``mt_fill``, behind two entry points that write ``randbytes``' bytes straight
into the ``bytes`` they return.  :func:`randbytes` continues a
:class:`random.Random`'s state; :func:`seeded_blocks` seeds each block first.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import itertools
import random
import struct
from array import array
from typing import Any, Sequence, Tuple

from repro.chunking.accel import compiled
from repro.utils.buffers import Output

_STATE = struct.Struct("625I")  # getstate()[1]: 624 words and the index

_SOURCE = b"""
#include <stdint.h>
#include <string.h>
/* CPython's Mersenne Twister (_randommodule.c). */
enum { N = 624, M = 397 };
#define TWIST(k, k1, km) y = (mt[k] & 0x80000000U) | (mt[k1] & 0x7fffffffU), \\
    mt[k] = mt[km] ^ y >> 1 ^ (-(y & 1) & 0x9908b0dfU)
#define TEMPER(x) y = (x), y ^= y >> 11, y ^= y << 7 & 0x9d2c5680U, y ^= y << 15 & 0xefc60000U, y ^= y >> 18
/* Random.randbytes(length) from state mt at index next (getstate()[1]) into out; returns the new index.
   getrandbits(8n).to_bytes(n, "little"): words little-endian, a short last one its top bits. */
size_t mt_fill(uint32_t *mt, size_t next, uint8_t *out, size_t length)
{
    uint32_t y;
    for (size_t at = 0, words; at < length; next += words) {
        if (next >= N) {
            size_t k = 0;
            for (; k < N - M; k++) TWIST(k, k + 1, k + M);
            for (; k < N - 1; k++) TWIST(k, k + 1, k + M - N);
            TWIST(N - 1, 0, M - 1);
            next = 0;
        }
        words = (length - at) / 4 < N - next ? (length - at) / 4 : N - next;
        for (size_t k = 0; k < words; k++, at += 4) /* whole words: a loop the compiler vectorizes */
            TEMPER(mt[next + k]), out[at] = (uint8_t)y, out[at + 1] = (uint8_t)(y >> 8),
            out[at + 2] = (uint8_t)(y >> 16), out[at + 3] = (uint8_t)(y >> 24);
        if (!words) /* the short last word */
            for (TEMPER(mt[next]), y >>= 32 - 8 * (length - at), words = 1; at < length; at++, y >>= 8) out[at] = (uint8_t)y;
    }
    return next;
}
/* A batch: block b is Random(s).randbytes(min(block_size, length - b * block_size)), where
   keys[ends[b - 1]:ends[b]] is s + sha512(s), the big-endian integer CPython's version-2 str
   seeding splits into init_by_array's key. */
void mt_blocks(const uint8_t *keys, const size_t *ends, size_t count,
               size_t block_size, size_t length, uint8_t *out)
{
    uint32_t initial[N], mt[N];
    initial[0] = 19650218U; /* init_genrand's state, the same for every key */
    for (uint32_t i = 1; i < N; i++) initial[i] = 1812433253U * (initial[i - 1] ^ initial[i - 1] >> 30) + i;
    for (size_t b = 0, start = 0; b < count; start = ends[b++]) {
        size_t size = ends[b] - start, i = 1, j = 0;
        while (size && !keys[start]) start++, size--;
        size_t words = size ? (size + 3) / 4 : 1;
        memcpy(mt, initial, sizeof mt);
        for (size_t k = words > N ? words : N; k; k--) {
            uint32_t word = 0; /* the integer's j-th 32-bit word, least significant first */
            for (size_t t = 4; t-- > 0;) word = word << 8 | (4 * j + t < size ? keys[start + size - 1 - 4 * j - t] : 0);
            mt[i] = (mt[i] ^ (mt[i - 1] ^ mt[i - 1] >> 30) * 1664525U) + word + (uint32_t)j;
            if (++i >= N) mt[0] = mt[N - 1], i = 1;
            if (++j >= words) j = 0;
        }
        for (size_t k = N - 1; k; k--) {
            mt[i] = (mt[i] ^ (mt[i - 1] ^ mt[i - 1] >> 30) * 1566083941U) - (uint32_t)i;
            if (++i >= N) mt[0] = mt[N - 1], i = 1;
        }
        mt[0] = 0x80000000U;
        size_t at = b * block_size < length ? b * block_size : length;
        mt_fill(mt, N, out + at, length - at < block_size ? length - at : block_size);
    }
}
"""


@functools.lru_cache(maxsize=None)
def _kernels() -> Tuple[Any, str]:
    """``((mt_fill, mt_blocks) or None, library path or failure reason)``."""
    kernels, detail = compiled("mersenne", _SOURCE, "mt_fill", "mt_blocks")
    if kernels is not None:
        size, pointer = ctypes.c_size_t, ctypes.c_void_p
        fill, blocks = kernels
        fill.argtypes, fill.restype = [pointer, size, pointer, size], size
        blocks.argtypes, blocks.restype = [pointer, ctypes.POINTER(size), size, size, size, pointer], None
    return kernels, detail


def generator_status() -> Tuple[bool, str]:
    """Whether both entry points are compiled (else ``random.Random`` draws the
    same bytes), plus the library path or why not."""
    kernels, detail = _kernels()
    return kernels is not None, detail


def randbytes(rng: random.Random, length: int) -> bytes:
    """``rng.randbytes(length)`` in C, leaving ``rng`` as ``randbytes`` would
    (~45 us a call moves the state).  Not atomic: no other draw from ``rng`` may interleave."""
    kernels = _kernels()[0]
    if kernels is None or not isinstance(length, int) or length < 1:
        return rng.randbytes(length)
    version, internal, gauss_next = rng.getstate()
    words = array("I", internal)
    with Output(length) as out:
        words[-1] = kernels[0](words.buffer_info()[0], words[-1], out.address, length)
        rng.setstate((version, _STATE.unpack(words), gauss_next))
        return out.finish(length)


def seeded_blocks(seeds: Sequence[str], block_size: int, length: int) -> bytes:
    """``random.Random(seeds[b]).randbytes`` for each block ``b`` of ``block_size``
    bytes (the last may be short, ``length`` in all), in one ``mt_blocks`` call."""
    keys = [seed.encode() for seed in seeds]
    ends = (ctypes.c_size_t * len(keys))(*itertools.accumulate(len(key) + 64 for key in keys))
    joined = b"".join(key + hashlib.sha512(key).digest() for key in keys)  # streaming-ok: keys, not payload
    with Output(length) as out:
        _kernels()[0][1](joined, ends, len(keys), block_size, length, out.address)
        return out.finish(length)
