"""A VM-backup-like workload: few very large files, skewed sizes, block edits.

Stands in for the paper's "VM" dataset (consecutive monthly full backups of 8
virtual machine servers, 313 GB, dedup ratio ~4.3).  The properties preserved:

* each snapshot contains one very large image file per VM,
* image sizes are strongly skewed (a couple of VMs dominate the capacity),
* consecutive full backups of the same VM differ by scattered block-level
  writes, so cross-generation redundancy is high but intra-generation
  redundancy is low,
* the large-and-skewed file size distribution is exactly what makes
  file-granularity routing (Extreme Binning) both ineffective and unbalanced
  on this dataset (Figure 8, VM panel).

Images are never materialised.  Each VM image is modelled as a *last-write
map*: one small integer per 4 KB device block recording the backup generation
that last wrote it.  A block's content is ``random.Random(key).randbytes`` for
``key = "seed:vm:block index:last-write generation"``, so emitting a snapshot
yields lazy :class:`~repro.workloads.base.WorkloadFile` sources that stream an
arbitrarily large image in batches of <= 64 blocks (256 KiB, one call of the
compiled generator: :func:`generator_status`; 4 KB blocks without it): O(batch).
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import itertools
import random
from typing import Any, Iterator, List, Sequence, Tuple

from repro.chunking.accel import compiled
from repro.errors import WorkloadError
from repro.utils.buffers import Output
from repro.workloads.base import DEFAULT_STREAM_BLOCK_SIZE, BackupSnapshot, ContentWorkload, WorkloadFile

#: Device block size: the granularity of simulated VM writes.
VM_BLOCK_SIZE = 4096
_BATCH = DEFAULT_STREAM_BLOCK_SIZE // VM_BLOCK_SIZE  # blocks per yielded batch: ``iter_blocks`` never re-slices

_SOURCE = b"""
#include <stdint.h>
#include <string.h>
/* CPython's Mersenne Twister (_randommodule.c) over a batch: block b is Random(s).randbytes(
   min(block_size, length - b * block_size)), where keys[ends[b - 1]:ends[b]] is s + sha512(s),
   the big-endian integer CPython's version-2 str seeding splits into init_by_array's key. */
enum { N = 624, M = 397 };
#define TWIST(k, k1, km) y = (mt[k] & 0x80000000U) | (mt[k1] & 0x7fffffffU), \\
    mt[k] = mt[km] ^ y >> 1 ^ (-(y & 1) & 0x9908b0dfU)
void mt_blocks(const uint8_t *keys, const size_t *ends, size_t count,
               size_t block_size, size_t length, uint8_t *out)
{
    uint32_t initial[N], mt[N], y;
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
        size_t at = b * block_size, end = at + block_size < length ? at + block_size : length;
        for (size_t next = N; at < end; at += 4, next++) {
            if (next == N) {
                size_t k = 0;
                for (; k < N - M; k++) TWIST(k, k + 1, k + M);
                for (; k < N - 1; k++) TWIST(k, k + 1, k + M - N);
                TWIST(N - 1, 0, M - 1);
                next = 0;
            }
            y = mt[next];
            y ^= y >> 11, y ^= y << 7 & 0x9d2c5680U, y ^= y << 15 & 0xefc60000U, y ^= y >> 18;
            /* getrandbits(8n).to_bytes(n, "little"): words little-endian, a short last one its top bits */
            if (end - at >= 4)
                out[at] = (uint8_t)y, out[at + 1] = (uint8_t)(y >> 8), out[at + 2] = (uint8_t)(y >> 16), out[at + 3] = (uint8_t)(y >> 24);
            else
                for (y >>= 32 - 8 * (end - at); at < end; at++, y >>= 8) out[at] = (uint8_t)y;
        }
    }
}
"""


@functools.lru_cache(maxsize=None)
def _generator() -> Tuple[Any, str]:
    generate, detail = compiled("mt-blocks", _SOURCE, "mt_blocks")
    if generate is not None:
        size = ctypes.c_size_t
        generate.argtypes, generate.restype = [ctypes.c_void_p, ctypes.POINTER(size), *[size] * 3, ctypes.c_void_p], None
    return generate, detail


def generator_status() -> Tuple[bool, str]:
    """Whether VM image blocks come from ``mt_blocks`` (CPython's Mersenne Twister in C,
    built like the gear kernel) or, same bytes ~3x slower, from ``random.Random(key).randbytes``;
    plus the library path or why not."""
    generate, detail = _generator()
    return generate is not None, detail


class VMBackupWorkload(ContentWorkload):
    """Synthetic monthly full backups of a small VM fleet.

    Parameters
    ----------
    num_backups:
        Number of full-backup generations (the paper uses 2 monthly fulls).
    num_vms:
        Number of virtual machines (the paper uses 8).
    base_image_size:
        Size of the smallest VM image in bytes.  Image ``i`` is roughly
        ``base_image_size * size_skew**i`` so sizes are skewed.
    size_skew:
        Multiplicative size skew across VMs.
    change_fraction:
        Fraction in [0, 1] of each image rewritten between consecutive backups
        (as scattered 4 KB block writes; 0 leaves the images unchanged).
    seed:
        Determinism seed.
    """

    name = "vm"

    def __init__(
        self,
        num_backups: int = 3,
        num_vms: int = 6,
        base_image_size: int = 512 * 1024,
        size_skew: float = 1.45,
        change_fraction: float = 0.12,
        seed: int = 313,
    ):
        if num_backups < 1 or num_vms < 1:
            raise WorkloadError("num_backups and num_vms must be >= 1")
        if base_image_size < 4096:
            raise WorkloadError("base_image_size must be at least 4 KiB")
        if size_skew < 1.0:
            raise WorkloadError("size_skew must be >= 1.0")
        if not 0.0 <= change_fraction <= 1.0:
            raise WorkloadError("change_fraction must be within [0, 1]")
        self.num_backups = num_backups
        self.num_vms = num_vms
        self.base_image_size = base_image_size
        self.size_skew = size_skew
        self.change_fraction = change_fraction
        self.seed = seed

    def _image_size(self, vm_index: int) -> int:
        return int(self.base_image_size * (self.size_skew ** vm_index))

    def _num_blocks(self, vm_index: int) -> int:
        return -(-self._image_size(vm_index) // VM_BLOCK_SIZE)

    def _block_payload(self, vm_index: int, block_index: int, version: int, length: int) -> bytes:
        rng = random.Random(f"{self.seed}:{vm_index}:{block_index}:{version}")
        return rng.randbytes(length)

    def _batch(self, vm_index: int, first: int, versions: Sequence[int], length: int) -> bytes:
        """Blocks ``first, ...`` (``length`` bytes in all) from one ``mt_blocks`` call."""
        keys = [f"{self.seed}:{vm_index}:{block}:{version}".encode() for block, version in enumerate(versions, first)]
        ends = (ctypes.c_size_t * len(keys))(*itertools.accumulate(len(key) + 64 for key in keys))
        seeds = b"".join(key + hashlib.sha512(key).digest() for key in keys)  # streaming-ok: keys, not payload
        with Output(length) as out:
            _generator()[0](seeds, ends, len(keys), VM_BLOCK_SIZE, length, out.address)
            return out.finish(length)

    def _image_source(self, vm_index: int, last_write: Sequence[int]):
        image_size = self._image_size(vm_index)

        def blocks() -> Iterator[bytes]:
            if _generator()[0] is None:  # no compiler: one 4 KB block at a time
                remaining = image_size
                for block_index, version in enumerate(last_write):
                    length = min(VM_BLOCK_SIZE, remaining)
                    remaining -= length
                    yield self._block_payload(vm_index, block_index, version, length)
                return
            for first in range(0, len(last_write), _BATCH):
                length = min(image_size - first * VM_BLOCK_SIZE, _BATCH * VM_BLOCK_SIZE)
                yield self._batch(vm_index, first, last_write[first:first + _BATCH], length)
        return blocks

    def snapshots(self) -> Iterator[BackupSnapshot]:
        rng = random.Random(self.seed)
        last_write: List[List[int]] = [
            [0] * self._num_blocks(vm) for vm in range(self.num_vms)
        ]
        operating_systems = ["windows" if vm % 8 < 3 else "linux" for vm in range(self.num_vms)]
        for backup in range(self.num_backups):
            if backup > 0:
                for vm in range(self.num_vms):
                    # Block-level writes: scattered 4 KB-aligned overwrites.
                    edits = int(self._image_size(vm) * self.change_fraction / VM_BLOCK_SIZE)
                    num_edits = max(1, edits) if self.change_fraction else 0
                    num_blocks = len(last_write[vm])
                    for _ in range(num_edits):
                        last_write[vm][rng.randrange(num_blocks)] = backup
            files = [
                WorkloadFile(
                    path=f"vm{vm:02d}-{operating_systems[vm]}/disk.img",
                    # Freeze this generation's map; later backups mutate it.
                    source=self._image_source(vm, tuple(last_write[vm])),
                    size_hint=self._image_size(vm),
                )
                for vm in range(self.num_vms)
            ]
            yield BackupSnapshot(label=f"monthly-{backup + 1:02d}", files=files)
