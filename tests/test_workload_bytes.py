"""The content workloads' bytes, pinned.

Golden sha256 digests, recorded from the pure-Python generators before the
compiled Mersenne Twister existed, hold every content generator to its bytes,
with and without it.  Its two entry points are held to ``random.Random``:
``seeded_blocks`` to ``random.Random(seed).randbytes`` for any str seed and
every partial last word, ``randbytes`` to ``rng.randbytes`` from any state,
in bytes and in the state it leaves.
"""

import hashlib
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import WorkloadError
from repro.workloads import mersenne
from repro.workloads.base import DEFAULT_STREAM_BLOCK_SIZE
from repro.workloads.mersenne import generator_status
from repro.workloads.synthetic import _KERNEL_MIN, SyntheticDataGenerator, SyntheticWorkload
from repro.workloads.versioned_source import VersionedSourceWorkload
from repro.workloads.vm_images import VM_BLOCK_SIZE, VMBackupWorkload

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
    # Files above the cut-over whose 256-byte edits are below it: each
    # ``evolve`` chain draws on both paths.
    "synthetic-large": (
        lambda: SyntheticWorkload(num_generations=3, files_per_generation=2, file_size=100_003, seed=11),
        "a3c565399bb16d7608a2f5e39ab85f4981885c77acdd91a583afd0749cc90d0a",
    ),
    "versioned-source": (
        lambda: VersionedSourceWorkload(num_versions=3, files_per_version=12, mean_file_size=2048, seed=5),
        "fa945a83d6b87796c3779c31714601e7cdae3d25ac31d063ef5fa6264058227c",
    ),
    "vm-fleet": (vm_fleet, "656d6fe91f26d2085b9dedb5c559a555d0564e5affca7f0b3dd569a888d9a74f"),
    "vm-pair": (vm_pair, "baa517cb205fdc7d07d04adb2ebe440a6f98eec5ee571db24550c44f13c3552c"),
}


def fresh_full_file():
    """The first ``fresh_full`` input of the system benchmark (seed 2012)."""
    return SyntheticDataGenerator("2012:fresh_full:0").unique_bytes(8 << 20)


def block_stream():
    # 3 MiB + 5 bytes in 1 MiB blocks: the last block ends on a partial word.
    return b"".join(SyntheticDataGenerator("blocks").unique_byte_blocks(3 * (1 << 20) + 5, 1 << 20))


BUFFERS = {
    "fresh-full-8mib": (fresh_full_file, "7a8c3fc98310586a7ed565391dc93db45416041d3255b35cb472f6741eed2c12"),
    "blocks-3mib+5": (block_stream, "384bd2c0a238ebc27824e3b699d3df183004698b83f453a00415fc49c70a1773"),
}


def evolve_chain(seed, size, change_fraction, edit_size, generations=6):
    """sha256 over each generation of an ``evolve`` chain, then one more draw
    (the RNG state the chain leaves)."""
    generator = SyntheticDataGenerator(seed)
    data = generator.unique_bytes(size)
    digest = hashlib.sha256()
    for _ in range(generations):
        data = generator.evolve(data, change_fraction, edit_size)
        digest.update(f"{len(data)}\0".encode() + data)
    digest.update(repr(generator.random()).encode())
    return digest.hexdigest()


# ``generations_spill``-shaped chains (1 MiB, 32 KiB edits, 10% change), each
# taking both the insert and the delete branch; and a buffer shorter than its
# edits, where an overwrite covers it whole and a delete draws nothing.
EVOLVE_CHAINS = {
    "spill-shape-0": (("evolve:0", 1 << 20, 0.1, 32 << 10),
                      "ffdafeb851f28509296b50593ad58fb549b6dd2ecd951bc73dc9ad5c29701d44"),
    "spill-shape-1": (("evolve:1", 1 << 20, 0.1, 32 << 10),
                      "7e06005ecb6cf5e1ba0d74d3e128ffde7bdd6c8856779f13277c6a3dce211e59"),
    "shorter-than-edits": (("small:1", 200, 0.5, 256),
                           "c99c679f4262fa207828c533df2cdfdfc6602cd895f42484bedb2ea7df7a6b10"),
}


@pytest.fixture
def no_generator(monkeypatch):
    """The content generators as on a host where the kernel cannot be built."""
    monkeypatch.setattr(mersenne, "_kernels", lambda: (None, "forced unavailable"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_generator_bytes_are_pinned(name):
    factory, expected = GOLDEN[name]
    assert workload_digest(factory()) == expected


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_generator_bytes_are_pinned_without_the_compiled_generator(name, no_generator):
    factory, expected = GOLDEN[name]
    assert workload_digest(factory()) == expected


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "fallback"])
@pytest.mark.parametrize("name", sorted(BUFFERS))
def test_benchmark_scale_buffers_are_pinned(name, compiled, monkeypatch):
    if not compiled:
        monkeypatch.setattr(mersenne, "_kernels", lambda: (None, "forced unavailable"))
    factory, expected = BUFFERS[name]
    assert hashlib.sha256(factory()).hexdigest() == expected


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "fallback"])
@pytest.mark.parametrize("name", sorted(EVOLVE_CHAINS))
def test_evolve_chains_are_pinned(name, compiled, monkeypatch):
    if not compiled:
        monkeypatch.setattr(mersenne, "_kernels", lambda: (None, "forced unavailable"))
    args, expected = EVOLVE_CHAINS[name]
    assert evolve_chain(*args) == expected


def images(workload):
    return [[entry.data for entry in snapshot.files] for snapshot in workload.snapshots()]


def test_vm_stream_is_the_same_without_the_generator_in_4k_blocks(monkeypatch):
    compiled = images(vm_fleet())
    monkeypatch.setattr(mersenne, "_kernels", lambda: (None, "forced unavailable"))
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
        assert mersenne.seeded_blocks([seed], length, length) == random.Random(seed).randbytes(length)

    @given(seeds=st.lists(st.text(max_size=40), min_size=1, max_size=4), block_size=lengths, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_a_batch_equals_one_random_per_block(self, seeds, block_size, data):
        last = data.draw(st.integers(min_value=0, max_value=block_size))
        length = (len(seeds) - 1) * block_size + last
        assert mersenne.seeded_blocks(seeds, block_size, length) == reference(seeds, block_size, length)

    def test_status_names_the_cached_library(self):
        available, detail = generator_status()
        assert available and detail.endswith(".so") and "mersenne-" in detail


def test_status_says_why_when_the_generator_is_unavailable(no_generator):
    assert generator_status() == (False, "forced unavailable")


def drawn(seed, draws, odd):
    """A ``random.Random(seed)`` after ``draws`` ``random()`` calls (two words
    each) and, if ``odd``, one more word: its index at any offset."""
    rng = random.Random(seed)
    for _ in range(draws):
        rng.random()
    if odd:
        rng.getrandbits(32)
    return rng


seeds = st.one_of(st.integers(), st.text(max_size=12), st.binary(max_size=12))
# Around the cut-over, and around whole twists (624 words = 2 496 bytes).
cut_over_lengths = st.sampled_from([_KERNEL_MIN - 1, _KERNEL_MIN, _KERNEL_MIN + 1])
twist_lengths = st.builds(lambda k, d: max(1, 2496 * k + d), st.integers(0, 40), st.integers(-3, 3))


@requires_generator
class TestCompiledRandbytes:
    @given(seed=seeds, draws=st.integers(0, 700), odd=st.booleans(), length=st.one_of(cut_over_lengths, twist_lengths))
    @example(seed=2012, draws=312, odd=False, length=_KERNEL_MIN)  # index exactly 624
    @example(seed="x", draws=311, odd=True, length=2497)  # index 623: a twist after one word
    @example(seed=b"", draws=0, odd=False, length=1)
    @settings(max_examples=150, deadline=None)
    def test_kernel_continues_random_randbytes(self, seed, draws, odd, length):
        kernel, reference = drawn(seed, draws, odd), drawn(seed, draws, odd)
        assert mersenne.randbytes(kernel, length) == reference.randbytes(length)
        assert kernel.getstate() == reference.getstate()
        assert kernel.randrange(10**12) == reference.randrange(10**12)
        assert kernel.random() == reference.random()

    @given(seed=seeds, draws=st.integers(0, 700), length=cut_over_lengths)
    @settings(max_examples=30, deadline=None)
    def test_unique_bytes_equals_random_randbytes_around_the_cut_over(self, seed, draws, length):
        generator, reference = SyntheticDataGenerator(seed), drawn(seed, draws, False)
        for _ in range(draws):
            generator.random()
        assert generator.unique_bytes(length) == reference.randbytes(length)
        assert generator._rng.getstate() == reference.getstate()
        follower = SyntheticDataGenerator(seed)
        follower._rng.setstate(reference.getstate())
        data = reference.randbytes(3000)
        assert generator.evolve(data, 0.1) == follower.evolve(data, 0.1)
        assert generator.random() == follower.random()


@pytest.mark.parametrize("length", [_KERNEL_MIN - 1, _KERNEL_MIN, 3 * _KERNEL_MIN + 3])
def test_unique_bytes_are_the_same_without_the_kernel(length, no_generator):
    generator = SyntheticDataGenerator("fallback")
    reference = random.Random("fallback")
    assert generator.unique_bytes(length) == reference.randbytes(length)
    assert generator._rng.getstate() == reference.getstate()


def raised(call):
    try:
        call()
    except Exception as error:  # noqa: BLE001 - the error itself is the result
        return type(error), str(error)
    return None


def parent_unique_bytes(length):
    """``unique_bytes`` as it was before the kernel: ``random.Random.randbytes``."""
    if length < 0:
        raise WorkloadError("length must be non-negative")
    return random.Random(1).randbytes(length) if length else b""


def parent_unique_byte_blocks(length, block_size):
    if length < 0:
        raise WorkloadError("length must be non-negative")
    rng, remaining = random.Random(1), length
    while remaining > 0:
        block = rng.randbytes(min(block_size, remaining))
        remaining -= len(block)
        yield block


@pytest.mark.parametrize(
    "length", [-1, -_KERNEL_MIN, 1.5, float(_KERNEL_MIN), float(4 * _KERNEL_MIN) + 0.5, "4", None]
)
def test_bad_lengths_raise_what_random_randbytes_raised(length):
    error = raised(lambda: SyntheticDataGenerator(1).unique_bytes(length))
    assert error is not None and error == raised(lambda: parent_unique_bytes(length))
    blocks_error = raised(lambda: list(SyntheticDataGenerator(1).unique_byte_blocks(length, _KERNEL_MIN)))
    assert blocks_error == raised(lambda: list(parent_unique_byte_blocks(length, _KERNEL_MIN)))
