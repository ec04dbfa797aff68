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
arbitrarily large image in batches of <= 64 blocks (256 KiB, one
:func:`~repro.workloads.mersenne.seeded_blocks` call; 4 KB blocks without a
compiler, :func:`~repro.workloads.mersenne.generator_status`): O(batch).
"""

from __future__ import annotations

import random
from typing import Iterator, List, Sequence

from repro.errors import WorkloadError
from repro.workloads import mersenne
from repro.workloads.base import DEFAULT_STREAM_BLOCK_SIZE, BackupSnapshot, ContentWorkload, WorkloadFile

#: Device block size: the granularity of simulated VM writes.
VM_BLOCK_SIZE = 4096
_BATCH = DEFAULT_STREAM_BLOCK_SIZE // VM_BLOCK_SIZE  # blocks per yielded batch: ``iter_blocks`` never re-slices


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

    def _image_source(self, vm_index: int, last_write: Sequence[int]):
        image_size = self._image_size(vm_index)

        def blocks() -> Iterator[bytes]:
            if not mersenne.generator_status()[0]:  # no compiler: one 4 KB block at a time
                remaining = image_size
                for block_index, version in enumerate(last_write):
                    length = min(VM_BLOCK_SIZE, remaining)
                    remaining -= length
                    yield self._block_payload(vm_index, block_index, version, length)
                return
            for first in range(0, len(last_write), _BATCH):
                length = min(image_size - first * VM_BLOCK_SIZE, _BATCH * VM_BLOCK_SIZE)
                versions = enumerate(last_write[first:first + _BATCH], first)
                seeds = [f"{self.seed}:{vm_index}:{block}:{version}" for block, version in versions]
                yield mersenne.seeded_blocks(seeds, VM_BLOCK_SIZE, length)
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
