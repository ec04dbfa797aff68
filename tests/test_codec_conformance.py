"""The ``"zlib"`` spill codec on both of its implementations.

:class:`~repro.storage.compression.ZlibCodec` runs on libdeflate where the
library can be bound and on the stdlib :mod:`zlib` otherwise (the binder is
refused here the way the libcrypto tests refuse theirs).  The contract: one
stream format, so each implementation decodes the other's blobs to the same
bytes; the fallback's blobs are byte-identical to the stdlib codec at level 1
/ memLevel 9; no input buffer type is copied; damaged blobs raise the same
typed errors on both; per-thread (de)compressors under contention give the
serial results; and a spill directory written by one implementation
recovers and restores under the other, in a fresh interpreter.
"""

import contextlib
import json
import mmap
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc
import zlib

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.storage.compression as compression
from repro.errors import CompressionError, ContainerNotFoundError
from repro.storage.backends import FileContainerBackend
from repro.storage.compression import ZlibCodec, codec_status
from repro.storage.container_store import ContainerStore
from tests.helpers import chunk_records_from_seeds

SOURCE_ROOT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

requires_libdeflate = pytest.mark.skipif(not codec_status()[0], reason=codec_status()[1])
IMPLEMENTATIONS = [pytest.param("libdeflate", marks=requires_libdeflate), "zlib"]
MiB = 1 << 20


def refuse(name, *args, **kwargs):
    raise OSError(f"{name}: cannot open shared object file")


@contextlib.contextmanager
def running_on(implementation):
    """Run the block on ``"libdeflate"`` as bound here, or on ``"zlib"`` with
    the binder refused."""
    if implementation == "libdeflate":
        assert codec_status()[0], codec_status()[1]
        yield
        return
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(compression.ctypes, "CDLL", refuse)
            compression._libdeflate.cache_clear()
            assert codec_status() == (
                False,
                f"zlib {zlib.ZLIB_RUNTIME_VERSION} (cannot bind libdeflate: "
                f"libdeflate.so.0: cannot open shared object file)",
            )
            yield
    finally:
        compression._libdeflate.cache_clear()


def stdlib_blob(section):
    """The stdlib codec's blob: level 1, memLevel 9, one zlib stream."""
    deflate = zlib.compressobj(1, zlib.DEFLATED, zlib.MAX_WBITS, 9)
    return deflate.compress(section) + deflate.flush()


def compress_on(implementation, section):
    with running_on(implementation):
        return ZlibCodec().compress(section)


def decompress_on(implementation, blob, expected_size):
    with running_on(implementation):
        return ZlibCodec().decompress(blob, expected_size)


sections = st.one_of(
    st.just(b""),
    st.binary(min_size=1, max_size=1),
    st.binary(min_size=2, max_size=40_000),
    st.integers(min_value=1, max_value=300_000).map(bytes),
    st.builds(
        lambda motif, reps: motif * reps,
        st.binary(min_size=1, max_size=64), st.integers(min_value=1, max_value=8_000),
    ),
    st.integers(min_value=0, max_value=2**32).map(
        lambda seed: random.Random(seed).randbytes(4 * MiB + 4097)
    ),
)


def mixed_section(seed, size=4 * MiB + 1):
    """Incompressible runs between compressible ones, as sealed sections hold."""
    rng = random.Random(seed)
    parts, total = [], 0
    while total < size:
        part = rng.randbytes(8192) if rng.random() < 0.5 else bytes([rng.randrange(4)]) * 8192
        parts.append(part)
        total += len(part)
    return b"".join(parts)[:size]


@requires_libdeflate
class TestOneStreamFormat:
    @settings(max_examples=30, deadline=None)
    @given(section=sections)
    @example(section=mixed_section(3))
    def test_each_implementation_decodes_the_others_blobs(self, section):
        fast, slow = (compress_on(name, section) for name in ("libdeflate", "zlib"))
        assert slow == stdlib_blob(section)  # the fallback is the parent's codec, verbatim
        assert zlib.decompress(fast) == section  # libdeflate writes a plain zlib stream
        for blob in (fast, slow):
            for name in ("libdeflate", "zlib"):
                assert decompress_on(name, blob, len(section)) == section

    def test_libdeflate_blobs_are_no_larger_on_sealed_sections(self):
        section = mixed_section(5)
        assert len(compress_on("libdeflate", section)) <= len(stdlib_blob(section))

    def test_status_names_the_library(self):
        available, detail = codec_status()
        assert available and detail.startswith("libdeflate (") and "libdeflate" in detail[12:]


@pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
class TestInputsAreBorrowedInPlace:
    SIZE = 6 * MiB

    @pytest.fixture(params=["bytes", "bytearray", "readonly-memoryview", "mmap"])
    def wrap(self, request, tmp_path):
        """Present ``data`` as one buffer type (an ``mmap`` of a file holding it)."""
        opened = []

        def wrap(data):
            if request.param == "bytes":
                return data
            if request.param == "bytearray":
                return bytearray(data)
            if request.param == "readonly-memoryview":
                return memoryview(bytearray(data)).toreadonly()
            path = tmp_path / f"input-{len(opened)}"
            path.write_bytes(data)
            with open(path, "rb") as handle:
                opened.append(mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ))
            return opened[-1]

        yield wrap
        for mapped in opened:
            mapped.close()

    @staticmethod
    def traced_peak(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_compress_copies_no_input(self, implementation, wrap):
        # Compressible, so the output is small and a copy of the input would
        # be most of the peak -- beside libdeflate's output object, which is
        # made at the compress bound (about the input's size; untouched pages
        # never become resident) and shrunk in place.
        section = bytes(range(256)) * (self.SIZE // 256)
        buffer = wrap(section)
        with running_on(implementation):
            blob, peak = self.traced_peak(lambda: ZlibCodec().compress(buffer))
        assert zlib.decompress(blob) == section
        bound = self.SIZE + self.SIZE // 64 if implementation == "libdeflate" else 0
        assert peak < bound + self.SIZE // 4, f"compress allocated {peak} bytes over {self.SIZE}"

    def test_decompress_copies_no_input(self, implementation, wrap):
        # Incompressible, so the blob is as large as its section: a copy of
        # it would double the peak.
        section = random.Random(4).randbytes(self.SIZE)
        buffer = wrap(stdlib_blob(section))
        with running_on(implementation):
            restored, peak = self.traced_peak(lambda: ZlibCodec().decompress(buffer, self.SIZE))
        assert restored == section
        assert peak < self.SIZE * 5 // 4, f"decompress allocated {peak} bytes for {self.SIZE}"


@pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
class TestDamagedBlobs:
    SECTION = (b"sealed section " * 700) + random.Random(6).randbytes(5_000)

    @pytest.mark.parametrize("damage", ["header", "body", "checksum", "cut", "empty"])
    def test_corrupt_or_cut_blobs_raise_compression_error(self, implementation, damage):
        blob = bytearray(stdlib_blob(self.SECTION))
        if damage == "header":
            blob[0] ^= 0xFF
        elif damage == "body":
            blob[len(blob) // 2] ^= 0xFF
        elif damage == "checksum":
            blob[-1] ^= 0xFF
        elif damage == "cut":
            del blob[-12:]
        else:
            blob.clear()
        with pytest.raises(CompressionError):
            decompress_on(implementation, bytes(blob), len(self.SECTION))

    def test_a_blob_that_inflates_long_is_corrupt(self, implementation):
        with pytest.raises(CompressionError):
            decompress_on(implementation, stdlib_blob(self.SECTION), len(self.SECTION) - 1)
        with pytest.raises(CompressionError):
            decompress_on(implementation, stdlib_blob(b"x"), 0)

    def test_a_blob_that_inflates_short_comes_back_short(self, implementation):
        blob = stdlib_blob(self.SECTION)
        assert decompress_on(implementation, blob, len(self.SECTION) + 100) == self.SECTION
        assert decompress_on(implementation, stdlib_blob(b""), 10) == b""

    @pytest.mark.parametrize("spill, message", [
        (lambda section: b"\x78\x01" + bytes(64), "cannot be decompressed"),
        (lambda section: stdlib_blob(section[:-1]), "truncated"),
        (lambda section: stdlib_blob(section + b"!"), "cannot be decompressed"),
    ], ids=["corrupt", "short", "long"])
    def test_the_backend_reports_them_alike(self, implementation, tmp_path, spill, message):
        backend = FileContainerBackend(tmp_path, compression="zlib", decompressed_cache_bytes=0)
        store = ContainerStore(container_capacity=64, backend=backend)
        (record,) = chunk_records_from_seeds([7], length=40)
        [container_id] = store.store_chunks([record])
        store.flush()
        backend.spill_path(container_id).write_bytes(spill(record.data))
        with running_on(implementation), pytest.raises(ContainerNotFoundError, match=message):
            store.read_chunks([container_id], [record.fingerprint])[0]
        backend.close()


@pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
def test_threads_under_contention_give_the_serial_results(implementation):
    # Each thread owns its libdeflate (de)compressor; one shared between
    # threads would interleave their state while the GIL is released.
    threads_count, budget = 8, 3.0
    inputs = [mixed_section(seed, size=256 * 1024 + seed) for seed in range(threads_count)]
    with running_on(implementation):
        codec = ZlibCodec()
        expected = [codec.compress(section) for section in inputs]
        errors, rounds = [], [0] * threads_count
        deadline = time.monotonic() + budget

        def lane(index):
            try:
                while rounds[index] < 2 or time.monotonic() < deadline:
                    blob = codec.compress(inputs[index])
                    assert blob == expected[index]
                    assert codec.decompress(blob, len(inputs[index])) == inputs[index]
                    rounds[index] += 1
                    if rounds[index] >= 40:
                        break
            except BaseException as error:  # noqa: BLE001 - reported by the main thread
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=lane, args=(index,)) for index in range(threads_count)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
    assert not errors, errors
    assert not any(thread.is_alive() for thread in threads)
    assert min(rounds) >= 2


PHASE = r"""
import ctypes, json, random, sys
phase, implementation, directory, transport, session_path = sys.argv[1:]
if implementation == "zlib":  # refuse the binder before anything binds it
    bind = ctypes.CDLL
    def refuse(name, *args, **kwargs):
        if "libdeflate" in str(name):
            raise OSError(f"{name}: cannot open shared object file")
        return bind(name, *args, **kwargs)
    ctypes.CDLL = refuse
from repro.core.framework import SigmaDedupe
from repro.node.dedupe_node import NodeConfig
from repro.storage.compression import codec_status
assert codec_status()[0] == (implementation == "libdeflate"), codec_status()
rng = random.Random(31)
files = [
    (f"file-{index}", rng.randbytes(6_000) + bytes([index]) * 9_000 + rng.randbytes(6_000))
    for index in range(6)
]
framework = SigmaDedupe(
    num_nodes=3, node_config=NodeConfig(container_capacity=16_384), superchunk_size=8_192,
    container_backend="file", storage_dir=directory, container_compression="zlib",
    replication_factor=2, transport=transport,
)
try:
    if phase == "write":
        report = framework.backup(files)
        with open(session_path, "w") as handle:
            json.dump(framework.director.export_session(report.session_id), handle)
    else:
        framework.recover_storage()
        with open(session_path) as handle:
            session = framework.director.import_session(json.load(handle))
        framework.cluster.mark_node_down(0)
        for path, payload in files:
            assert framework.restore(session.session_id, path) == payload, path
        assert framework.describe()["failover_reads"] > 0
        assert framework.describe()["codec_backend"] == codec_status()[1]
finally:
    framework.close()
print("ok")
"""


def run_phase(*args):
    environment = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    environment["PYTHONPATH"] = SOURCE_ROOT
    done = subprocess.run(
        [sys.executable, "-c", PHASE, *map(str, args)],
        env=environment, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0 and done.stdout.split() == ["ok"], done.stderr


@requires_libdeflate
@pytest.mark.parametrize("transport", ["inproc", "process"])
@pytest.mark.parametrize("writer, reader", [("libdeflate", "zlib"), ("zlib", "libdeflate")])
def test_a_spill_directory_recovers_and_restores_under_the_other_implementation(
    tmp_path, transport, writer, reader
):
    storage, session = tmp_path / "storage", tmp_path / "session.json"
    run_phase("write", writer, storage, transport, session)
    spilled = sorted(storage.glob("node-*/container-*.cdata"))
    assert spilled
    # The directory really is the writer's: the fallback's files are the
    # stdlib codec's bytes, and libdeflate's are not (same stream format).
    written_by_stdlib = [
        path.read_bytes() == stdlib_blob(zlib.decompress(path.read_bytes())) for path in spilled
    ]
    assert all(written_by_stdlib) if writer == "zlib" else not all(written_by_stdlib)
    run_phase("read", reader, storage, transport, session)
