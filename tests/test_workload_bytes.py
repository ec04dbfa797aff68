"""The content workloads' bytes, pinned.

Golden sha256 digests, recorded from the pure-Python generators before the
compiled VM block generator existed, hold every content generator to its
bytes.  The compiled generator (``mt_blocks``) is held to
``random.Random(seed).randbytes`` for any str seed and every partial last
word, and the VM stream must be the same bytes without it.
"""

import ctypes
import hashlib
import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.utils.buffers import Output
from repro.workloads import vm_images
from repro.workloads.base import DEFAULT_STREAM_BLOCK_SIZE
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.versioned_source import VersionedSourceWorkload
from repro.workloads.vm_images import VM_BLOCK_SIZE, VMBackupWorkload, generator_status

requires_generator = pytest.mark.skipif(not generator_status()[0], reason=generator_status()[1])


def workload_digest(workload):
    """sha256 over every snapshot label, file path, length and payload."""
    digest = hashlib.sha256()
    for snapshot in workload.snapshots():
        digest.update(snapshot.label.encode() + b"\0")
        for entry in snapshot.files:
            data = entry.data
            digest.update(f"{entry.path}\0{len(data)}\0".encode())
            digest.update(data)
    return digest.hexdigest()


def vm_fleet():
    # Images of 270 000, 391 500 and 567 675 bytes: 66, 96 and 139 blocks,
    # each ending in a partial block, so batches split inside every image.
    return VMBackupWorkload(num_backups=3, num_vms=3, base_image_size=270_000, seed=4)


def vm_pair():
    # A one-block image and a 4 915-byte one (a 819-byte last block), a str seed.
    return VMBackupWorkload(
        num_backups=2, num_vms=2, base_image_size=4096, size_skew=1.2, change_fraction=0.5, seed="x"
    )


GOLDEN = {
    "synthetic": (
        lambda: SyntheticWorkload(num_generations=3, files_per_generation=3, file_size=5000, seed=7),
        "6329f1b5c277e5a5619dd32a3d58f0acc44c5582f808216b8fac3cb998801d12",
    ),
    "versioned-source": (
        lambda: VersionedSourceWorkload(num_versions=3, files_per_version=12, mean_file_size=2048, seed=5),
        "fa945a83d6b87796c3779c31714601e7cdae3d25ac31d063ef5fa6264058227c",
    ),
    "vm-fleet": (vm_fleet, "656d6fe91f26d2085b9dedb5c559a555d0564e5affca7f0b3dd569a888d9a74f"),
    "vm-pair": (vm_pair, "baa517cb205fdc7d07d04adb2ebe440a6f98eec5ee571db24550c44f13c3552c"),
}


@pytest.fixture
def no_generator(monkeypatch):
    """The VM workload as on a host where ``mt_blocks`` cannot be built."""
    monkeypatch.setattr(vm_images, "_generator", lambda: (None, "forced unavailable"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_generator_bytes_are_pinned(name):
    factory, expected = GOLDEN[name]
    assert workload_digest(factory()) == expected


@pytest.mark.parametrize("name", ["vm-fleet", "vm-pair"])
def test_vm_bytes_are_pinned_without_the_compiled_generator(name, no_generator):
    factory, expected = GOLDEN[name]
    assert workload_digest(factory()) == expected


def images(workload):
    return [[entry.data for entry in snapshot.files] for snapshot in workload.snapshots()]


def test_vm_stream_is_the_same_without_the_generator_in_4k_blocks(monkeypatch):
    compiled = images(vm_fleet())
    monkeypatch.setattr(vm_images, "_generator", lambda: (None, "forced unavailable"))
    assert images(vm_fleet()) == compiled
    for entry in next(vm_fleet().snapshots()).files:
        sizes = [len(block) for block in entry.source()]
        assert sizes[:-1] == [VM_BLOCK_SIZE] * (len(sizes) - 1) and sum(sizes) == entry.size


@requires_generator
def test_vm_images_stream_in_batches_that_iter_blocks_passes_through():
    for snapshot in vm_fleet().snapshots():
        for entry in snapshot.files:
            batches = list(entry.source())
            blocks = -(-entry.size // VM_BLOCK_SIZE)
            assert len(batches) == -(-blocks // (DEFAULT_STREAM_BLOCK_SIZE // VM_BLOCK_SIZE))
            assert all(len(batch) == DEFAULT_STREAM_BLOCK_SIZE for batch in batches[:-1])
            assert sum(map(len, batches)) == entry.size
            assert list(entry.iter_blocks()) == batches  # not re-sliced


def generate(seeds, block_size, length):
    """``mt_blocks`` over one batch: block ``b`` from ``seeds[b]``."""
    keys = [seed.encode() + hashlib.sha512(seed.encode()).digest() for seed in seeds]
    ends = (ctypes.c_size_t * len(keys))(*itertools.accumulate(map(len, keys)))
    with Output(length) as out:
        vm_images._generator()[0](b"".join(keys), ends, len(keys), block_size, length, out.address)
        return out.finish(length)


def reference(seeds, block_size, length):
    """The same bytes from ``random.Random``, one instance per block."""
    return b"".join(
        random.Random(seed).randbytes(max(0, min(block_size, length - index * block_size)))
        for index, seed in enumerate(seeds)
    )


lengths = st.one_of(st.integers(min_value=0, max_value=9), st.integers(min_value=4093, max_value=4099))


@requires_generator
class TestCompiledGenerator:
    @given(seed=st.text(), length=lengths)
    @example(seed="", length=0)
    @example(seed="\0\0leading zero bytes", length=4095)  # leading zeros: same word count
    @example(seed="\0\0\0\0x", length=4093)  # leading zeros that drop a whole key word
    @example(seed="∑-Dedupe", length=4099)
    @settings(max_examples=300, deadline=None)
    def test_one_block_equals_random_randbytes(self, seed, length):
        assert generate([seed], length, length) == random.Random(seed).randbytes(length)

    @given(seeds=st.lists(st.text(max_size=40), min_size=1, max_size=4), block_size=lengths, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_a_batch_equals_one_random_per_block(self, seeds, block_size, data):
        last = data.draw(st.integers(min_value=0, max_value=block_size))
        length = (len(seeds) - 1) * block_size + last
        assert generate(seeds, block_size, length) == reference(seeds, block_size, length)

    def test_status_names_the_cached_library(self):
        available, detail = generator_status()
        assert available and detail.endswith(".so") and "mt-blocks-" in detail


def test_status_says_why_when_the_generator_is_unavailable(no_generator):
    assert generator_status() == (False, "forced unavailable")
