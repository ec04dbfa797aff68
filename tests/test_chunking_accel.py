"""Tests for repro.chunking.accel (the compiled gear kernel).

The accelerated chunker's only contract is *byte-identical boundaries* to the
pure-Python :class:`GearChunker`: the equivalence classes assert it across
chunk-size configurations, normalization settings, data shapes, input types
and streaming block splits.  The loader classes cover the build cache (cold
race, corrupt entry, unusable cache directory) and the no-compiler fallback,
each in a fresh interpreter because the loaded kernel is per-process state.
"""

import os
import pickle
import random
import subprocess
import sys
import tracemalloc

import pytest

from repro.chunking import build_chunker
from repro.chunking.accel import (
    _CUT_BATCH,
    AcceleratedGearChunker,
    best_gear_chunker,
    kernel_status,
)
from repro.chunking.gear import GearChunker
from repro.core.partitioner import PartitionerConfig, StreamPartitioner
from repro.parallel.engine import ParallelIngestEngine
from tests.helpers import deterministic_bytes

SOURCE_ROOT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Equivalence needs the kernel; the loader tests below run anywhere.
requires_kernel = pytest.mark.skipif(not kernel_status()[0], reason=kernel_status()[1])


def assert_identical_chunks(pure: GearChunker, accel: AcceleratedGearChunker, data):
    pure_chunks = [(c.offset, bytes(c.data)) for c in pure.chunk(data)]
    accel_chunks = [(c.offset, bytes(c.data)) for c in accel.chunk(data)]
    assert accel_chunks == pure_chunks


@requires_kernel
class TestBoundaryEquivalence:
    @pytest.mark.parametrize("average_size", [128, 1024, 4096])
    @pytest.mark.parametrize("normalization", [0, 1, 2, 3])
    def test_random_data_across_configurations(self, average_size, normalization):
        data = deterministic_bytes(300_000, seed=average_size + normalization)
        pure = GearChunker(average_size=average_size, normalization=normalization)
        accel = AcceleratedGearChunker(
            average_size=average_size, normalization=normalization
        )
        assert_identical_chunks(pure, accel, data)

    def test_explicit_min_max_configurations(self):
        rng = random.Random(42)
        for average, divisor, multiple in [
            (256, 2, 2),
            (1024, 8, 4),
            (4096, 4, 8),
            (8192, 2, 2),
        ]:
            kwargs = dict(
                average_size=average,
                min_size=max(1, average // divisor),
                max_size=average * multiple,
            )
            data = rng.randbytes(200_000)
            assert_identical_chunks(
                GearChunker(**kwargs), AcceleratedGearChunker(**kwargs), data
            )

    @pytest.mark.parametrize(
        "length",
        # 0, single byte, around the 64-byte gear window and around min_size.
        [0, 1, 63, 64, 65, 255, 256, 257, 1000, 32768],
    )
    def test_edge_lengths(self, length):
        data = deterministic_bytes(length, seed=length)
        pure = GearChunker(average_size=1024)
        accel = AcceleratedGearChunker(average_size=1024)
        assert_identical_chunks(pure, accel, data)
        assert list(accel.cut_offsets(data)) == list(pure.cut_offsets(data))

    def test_more_cuts_than_one_kernel_call_returns(self):
        # The kernel hands back _CUT_BATCH offsets per call and is resumed
        # from the last one; the seam must not drop or repeat a boundary.
        kwargs = dict(average_size=64, min_size=16, max_size=256)
        data = deterministic_bytes(200_000, seed=9)
        expected = list(GearChunker(**kwargs).cut_offsets(data))
        assert len(expected) > 2 * _CUT_BATCH
        assert list(AcceleratedGearChunker(**kwargs).cut_offsets(data)) == expected

    def test_degenerate_constant_data_forces_max_size_cuts(self):
        # Constant bytes never match the masks, so every cut is a forced
        # max-size cut.
        pure = GearChunker(average_size=1024, min_size=256, max_size=2048)
        accel = AcceleratedGearChunker(average_size=1024, min_size=256, max_size=2048)
        assert_identical_chunks(pure, accel, b"\x00" * 50_000)

    def test_low_entropy_repetitive_data(self):
        data = (b"abcd" * 10_000) + deterministic_bytes(5_000, seed=3) + (b"\xff" * 9_000)
        assert_identical_chunks(
            GearChunker(average_size=512), AcceleratedGearChunker(average_size=512), data
        )

    def test_randomized_sweep(self):
        rng = random.Random(20260726)
        for _ in range(25):
            average = rng.choice([128, 512, 2048, 4096])
            chunker_kwargs = dict(
                average_size=average, normalization=rng.choice([0, 1, 2, 3])
            )
            if rng.random() < 0.5:
                chunker_kwargs["min_size"] = max(1, average // rng.choice([2, 4, 8]))
                chunker_kwargs["max_size"] = average * rng.choice([2, 4, 8])
            data = rng.randbytes(rng.randrange(0, 120_000))
            assert_identical_chunks(
                GearChunker(**chunker_kwargs),
                AcceleratedGearChunker(**chunker_kwargs),
                data,
            )

    def test_every_buffer_type_is_scanned_in_place(self):
        # Every contiguous buffer is borrowed through the buffer protocol,
        # read-only views (what the shm lanes pass) included.  Offset views
        # check that the scan starts at the view's first byte, not its
        # owner's; a strided view is the one input that is copied.
        data = deterministic_bytes(80_000, seed=11)
        pure = GearChunker(average_size=1024)
        accel = AcceleratedGearChunker(average_size=1024)
        expected = list(pure.cut_offsets(data))
        assert list(accel.cut_offsets(memoryview(data))) == expected
        assert list(accel.cut_offsets(bytearray(data))) == expected
        assert list(accel.cut_offsets(memoryview(bytearray(data)))) == expected
        assert list(accel.cut_offsets(memoryview(bytearray(data)).toreadonly())) == expected
        shifted = list(pure.cut_offsets(data[777:]))
        assert list(accel.cut_offsets(memoryview(data)[777:])) == shifted
        assert list(accel.cut_offsets(memoryview(bytearray(data))[777:])) == shifted
        strided = memoryview(data)[::3]
        assert list(accel.cut_offsets(strided)) == list(pure.cut_offsets(bytes(strided)))

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview,
                                      lambda b: memoryview(bytearray(b)).toreadonly()])
    def test_no_buffer_type_is_copied(self, wrap):
        size = 2 * 1024 * 1024
        buffer = wrap(deterministic_bytes(size, seed=12))
        accel = AcceleratedGearChunker(average_size=4096)
        tracemalloc.start()
        try:
            count = sum(1 for _ in accel.cut_offsets(buffer))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count > size // 16384
        assert peak < size // 8, f"scan allocated {peak} bytes over a {size}-byte buffer"

    def test_export_is_released_when_the_scan_ends_or_is_abandoned(self):
        # The borrowed buffer pins a bytearray's size only while a scan runs.
        buffer = bytearray(deterministic_bytes(50_000, seed=13))
        accel = AcceleratedGearChunker(average_size=1024)
        scan = accel.cut_offsets(buffer)
        next(scan)
        with pytest.raises(BufferError):
            buffer.extend(b"x")
        scan.close()
        buffer.extend(b"x")
        list(accel.cut_offsets(buffer))
        buffer.extend(b"y")

    def test_roundtrip(self):
        data = deterministic_bytes(100_000, seed=5)
        AcceleratedGearChunker(average_size=1024).validate_roundtrip(data)

    def test_statistics_properties_match_pure(self):
        pure = GearChunker(average_size=4096)
        accel = AcceleratedGearChunker(average_size=4096)
        assert accel.average_chunk_size == pure.average_chunk_size
        assert accel.normal_point == pure.normal_point
        assert (accel.min_size, accel.max_size) == (pure.min_size, pure.max_size)


@requires_kernel
class TestStreamEquivalence:
    @pytest.mark.parametrize("block_size", [1000, 4096, 7777, 100_000])
    def test_chunk_stream_block_split_invariance(self, block_size):
        data = deterministic_bytes(250_000, seed=13)
        accel = AcceleratedGearChunker(average_size=1024)
        one_shot = [(c.offset, bytes(c.data)) for c in accel.chunk(data)]
        blocks = [data[i:i + block_size] for i in range(0, len(data), block_size)]
        streamed = [(c.offset, bytes(c.data)) for c in accel.chunk_stream(iter(blocks))]
        assert streamed == one_shot

    def test_chunk_stream_matches_pure_chunker_stream(self):
        data = deterministic_bytes(150_000, seed=17)
        blocks = [data[i:i + 8192] for i in range(0, len(data), 8192)]
        pure = [
            (c.offset, bytes(c.data))
            for c in GearChunker(average_size=2048).chunk_stream(iter(blocks))
        ]
        accel = [
            (c.offset, bytes(c.data))
            for c in AcceleratedGearChunker(average_size=2048).chunk_stream(iter(blocks))
        ]
        assert accel == pure


@requires_kernel
class TestProcessBoundaries:
    """The kernel is module state, not chunker state: a pickled chunker and a
    lane forked after construction both cut exactly as the parent does."""

    def test_pickled_chunker_cuts_identically(self):
        data = deterministic_bytes(120_000, seed=19)
        accel = AcceleratedGearChunker(average_size=1024, normalization=1)
        clone = pickle.loads(pickle.dumps(accel))
        assert type(clone) is AcceleratedGearChunker
        expected = list(GearChunker(average_size=1024, normalization=1).cut_offsets(data))
        assert list(clone.cut_offsets(data)) == expected

    def test_forked_lanes_cut_identically_to_the_pure_scan(self):
        files = [(f"f{i}", deterministic_bytes(90_000 + i, seed=20 + i)) for i in range(4)]

        def config(chunker):
            return PartitionerConfig(chunker=chunker, superchunk_size=16_384)

        def outline(pairs):
            return [
                (path, [(r.fingerprint, r.length, r.offset, r.data) for r in records])
                for _superchunk, contributions in pairs
                for path, records in contributions
            ]

        expected = outline(
            StreamPartitioner(config(GearChunker(average_size=1024))).partition_files(files)
        )
        engine = ParallelIngestEngine(workers=2, executor="process")
        lanes = outline(
            engine.partition_files(config(AcceleratedGearChunker(average_size=1024)), files)
        )
        assert lanes == expected


def fresh_environment(**env: str) -> dict:
    """This process's environment without its compiler and cache settings."""
    environment = {k: v for k, v in os.environ.items() if k not in ("CC", "XDG_CACHE_HOME")}
    environment.update(env, PYTHONPATH=SOURCE_ROOT)
    return environment


def run_python(code: str, **env: str) -> str:
    """Stdout of ``code`` in a fresh interpreter (kernel state is per process)."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=fresh_environment(**env), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


#: Prints the kernel status, then whether the "gear" chunker agrees with the
#: pure scan on 50 KB of seeded data.
PROBE = """
import random
from repro.chunking import build_chunker
from repro.chunking.accel import kernel_status
from repro.chunking.gear import GearChunker
available, detail = kernel_status()
data = random.Random(3).randbytes(50_000)
chunker = build_chunker("gear", average_size=512)
same = list(chunker.cut_offsets(data)) == list(GearChunker(average_size=512).cut_offsets(data))
print(available, type(chunker).__name__, same, detail, sep="|")
"""


@requires_kernel
class TestBuildCache:
    def cache_entries(self, cache_home):
        return sorted(os.listdir(os.path.join(cache_home, "repro")))

    def test_cold_cache_race_leaves_one_loadable_entry(self, tmp_path):
        cache_home = str(tmp_path / "cache")
        environment = fresh_environment(XDG_CACHE_HOME=cache_home)
        racers = [
            subprocess.Popen(
                [sys.executable, "-c", PROBE], env=environment, stdout=subprocess.PIPE, text=True
            )
            for _ in range(2)
        ]
        outputs = [racer.communicate(timeout=120)[0] for racer in racers]
        assert all(racer.returncode == 0 for racer in racers)
        for output in outputs:
            assert output.startswith("True|AcceleratedGearChunker|True|")
        entries = self.cache_entries(cache_home)
        assert len(entries) == 1 and entries[0].startswith("gear-")
        mode = os.stat(os.path.join(cache_home, "repro")).st_mode & 0o777
        assert mode == 0o700

    def test_corrupt_entry_is_rebuilt(self, tmp_path):
        cache_home = str(tmp_path / "cache")
        run_python(PROBE, XDG_CACHE_HOME=cache_home)
        (entry,) = self.cache_entries(cache_home)
        path = os.path.join(cache_home, "repro", entry)
        with open(path, "wb") as handle:
            handle.write(b"not an ELF object")
        output = run_python(PROBE, XDG_CACHE_HOME=cache_home)
        assert output.startswith("True|AcceleratedGearChunker|True|")
        assert self.cache_entries(cache_home) == [entry]
        assert os.path.getsize(path) > 1000

    def test_entry_that_still_fails_after_a_rebuild_is_reported(self, tmp_path):
        # A "compiler" that exits 0 but writes garbage: one rebuild, then the
        # load error surfaces through kernel_status and "gear" falls back.
        fake = tmp_path / "fakecc"
        fake.write_text(
            "#!/bin/sh\ncat > /dev/null\n"
            'while [ $# -gt 1 ]; do [ "$1" = "-o" ] && echo garbage > "$2"; shift; done\n'
        )
        fake.chmod(0o755)
        output = run_python(PROBE, XDG_CACHE_HOME=str(tmp_path / "cache"), CC=str(fake))
        assert output.startswith("False|GearChunker|True|cannot load ")

    def test_unusable_cache_dir_builds_in_a_removed_private_dir(self, tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        output = run_python(PROBE, XDG_CACHE_HOME=str(blocker), TMPDIR=str(scratch))
        assert output.startswith("True|AcceleratedGearChunker|True|")
        assert os.listdir(scratch) == []

    def test_cache_dir_others_can_write_is_not_trusted(self, tmp_path):
        # Entries are dlopen'ed, so a cache directory another user could
        # have planted a library in is neither read nor written: even a
        # perfectly good entry there is ignored in favour of a private build.
        cache_home = tmp_path / "cache"
        run_python(PROBE, XDG_CACHE_HOME=str(cache_home))
        entries = self.cache_entries(str(cache_home))
        planted = cache_home / "repro" / entries[0]
        planted.write_bytes(b"planted by someone else")
        (cache_home / "repro").chmod(0o777)
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        output = run_python(PROBE, XDG_CACHE_HOME=str(cache_home), TMPDIR=str(scratch))
        assert output.startswith("True|AcceleratedGearChunker|True|")
        assert str(scratch) in output  # loaded from the private build
        assert planted.read_bytes() == b"planted by someone else"
        assert os.listdir(scratch) == []


class TestNoCompilerFallback:
    def test_failing_compiler_falls_back_to_the_pure_scan(self, tmp_path):
        code = PROBE + """
from repro.errors import ChunkingError
try:
    build_chunker("gear-accel", average_size=512)
except ChunkingError as error:
    print("typed:", error)
"""
        output = run_python(code, XDG_CACHE_HOME=str(tmp_path), CC="/bin/false")
        status, typed = output.strip().splitlines()
        assert status.startswith("False|GearChunker|True|/bin/false exited with status 1")
        assert typed.startswith("typed:") and "/bin/false exited with status 1" in typed

    def test_missing_compiler_is_a_status_not_an_exception(self, tmp_path):
        output = run_python(
            PROBE, XDG_CACHE_HOME=str(tmp_path), CC=str(tmp_path / "no-such-compiler")
        )
        assert output.startswith("False|GearChunker|True|kernel build failed")

    def test_best_gear_chunker_follows_kernel_status(self):
        expected = AcceleratedGearChunker if kernel_status()[0] else GearChunker
        assert type(best_gear_chunker(average_size=1024)) is expected
        assert type(build_chunker("gear", average_size=1024)) is expected
