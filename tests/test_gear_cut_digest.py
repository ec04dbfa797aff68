"""The fused cut->digest kernel (``gear_cut_digest``) against hashlib.

The kernel's contract is the pure path's records, bit for bit: the same
boundaries as :class:`GearChunker` and, for each, the digest ``hashlib``
gives -- for every hashlib algorithm, any block split, every buffer type,
runs longer than one kernel batch, several lanes at once, and with either
half (the compiler, the libcrypto binding) missing.
"""

import hashlib
import os
import random
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

import repro.chunking.accel as accel
import repro.fingerprint.fingerprinter as fingerprinter_module
from repro.chunking import build_chunker
from repro.chunking.accel import AcceleratedGearChunker, kernel_status
from repro.chunking.base import _SEGMENT_BATCH
from repro.chunking.gear import GearChunker
from repro.core.framework import SigmaDedupe
from repro.fingerprint.fingerprinter import Fingerprinter
from repro.node.dedupe_node import NodeConfig
from repro.utils.hashing import SUPPORTED_ALGORITHMS

SOURCE_ROOT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

requires_kernel = pytest.mark.skipif(not kernel_status()[0], reason=kernel_status()[1])

#: Small chunks, so a few KiB of input is many runs of one kernel batch.
SMALL = dict(average_size=64, min_size=16, max_size=256)

algorithms = st.sampled_from(SUPPORTED_ALGORITHMS)
payloads = st.one_of(
    st.binary(min_size=0, max_size=30_000),
    st.builds(  # low entropy: cuts right after min_size and runs up to max_size
        lambda motif, reps: motif * reps,
        st.binary(min_size=1, max_size=48), st.integers(min_value=1, max_value=600),
    ),
)
buffer_types = st.sampled_from(
    [bytes, bytearray, memoryview, lambda data: memoryview(bytearray(data))]
)


def fingerprint(data, chunker, algorithm="sha1", keep_data=True):
    """Records plus the fingerprinter's counters."""
    fingerprinter = Fingerprinter(algorithm)
    records = list(fingerprinter.fingerprint_blocks(data, chunker, keep_data=keep_data))
    return records, fingerprinter.bytes_fingerprinted, fingerprinter.chunks_fingerprinted


def split(data, points):
    edges = sorted({0, len(data), *(point % (len(data) + 1) for point in points)})
    return [data[a:b] for a, b in zip(edges, edges[1:])]


@requires_kernel
class TestKernelMatchesHashlib:
    @given(
        data=payloads, algorithm=algorithms, as_buffer=buffer_types,
        points=st.lists(st.integers(min_value=0), max_size=6), keep_data=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_any_split_any_buffer_type_any_algorithm(
        self, data, algorithm, as_buffer, points, keep_data
    ):
        expected = fingerprint(data, GearChunker(**SMALL), algorithm, keep_data)
        assert expected[1:] == (len(data), len(expected[0]))
        blocks = [as_buffer(block) for block in split(data, points)] + [b""]
        fused = AcceleratedGearChunker(**SMALL)
        assert fingerprint(as_buffer(data), fused, algorithm, keep_data) == expected
        assert fingerprint(iter(blocks), fused, algorithm, keep_data) == expected
        for record in expected[0] if keep_data else ():
            assert hashlib.new(algorithm, record.data).digest() == record.fingerprint

    @pytest.mark.parametrize("algorithm", SUPPORTED_ALGORITHMS)
    def test_block_shapes_that_stress_the_carry(self, algorithm):
        data = random.Random(5).randbytes(60_000)
        fused = AcceleratedGearChunker(**SMALL)
        expected = fingerprint(data, GearChunker(**SMALL), algorithm)
        cuts = list(fused.cut_offsets(data))
        assert len(cuts) > 3 * _SEGMENT_BATCH  # more cuts than one kernel batch
        shapes = {
            "one-byte blocks": [data[i:i + 1] for i in range(4_000)] + [data[4_000:]],
            "every block ends on a cut": [
                data[a:b] for a, b in zip([0] + cuts[6::7], cuts[6::7] + [len(data)])
            ],
            "a block far beyond max_size": [data[:3], data[3:-3], data[-3:]],
            "empty blocks": [b"", data[:100], b"", b"", data[100:], b""],
        }
        for shape, blocks in shapes.items():
            assert b"".join(blocks) == data, shape
            assert fingerprint(iter(blocks), fused, algorithm) == expected, shape

    def test_every_chunk_is_hashed_exactly_once(self, monkeypatch):
        # The kernel leaves each buffer's uncommitted tail unhashed; the tail
        # is carried and hashed when it commits -- as the chunk straddling
        # the next block's edge or, for the last one, by hashlib when the
        # stream ends.  So the kernel's digests plus hashlib's number the
        # chunks, and hashlib's are at most one per block.
        data = random.Random(6).randbytes(50_000)
        blocks = split(data, range(0, 50_000, 3_001))
        fused = AcceleratedGearChunker(**SMALL)
        kernel_digests = sum(
            len(digests) // 20
            for *_run, digests in fused.committed_segments(iter(blocks), "sha1")
            if digests is not None
        )
        hashlib_calls = []
        real = fingerprinter_module.digest_constructor

        def counting(algorithm):
            constructor = real(algorithm)
            return lambda piece: hashlib_calls.append(len(piece)) or constructor(piece)

        monkeypatch.setattr(fingerprinter_module, "digest_constructor", counting)
        records, hashed_bytes, hashed_chunks = fingerprint(iter(blocks), fused)
        assert kernel_digests + len(hashlib_calls) == len(records)
        assert 1 <= len(hashlib_calls) <= len(blocks) < len(records) // 10
        assert hashlib_calls[-1] == records[-1].length
        assert (hashed_bytes, hashed_chunks) == (len(data), len(records))

    def test_interleaved_streams_on_one_thread_do_not_share_results(self):
        # A thread's kernel outputs and EVP_MD_CTX are reused from call to
        # call, so everything a run hands out must have been copied out of
        # them before another stream on the same thread scans.
        left, right = (random.Random(seed).randbytes(40_000) for seed in (10, 11))
        fused = AcceleratedGearChunker(**SMALL)
        expected = [fingerprint(data, GearChunker(**SMALL))[0] for data in (left, right)]
        streams = [
            Fingerprinter("sha1").fingerprint_blocks(iter(split(data, [20_000])), fused)
            for data in (left, right)
        ]
        pairs = list(zip(*streams))  # one record from each in turn
        assert len(pairs) > 3 * _SEGMENT_BATCH
        for index, stream_records in enumerate(zip(*pairs)):
            assert list(stream_records) == expected[index][:len(pairs)]

    def test_concurrent_lanes_give_the_serial_records(self):
        # Each thread owns its EVP_MD_CTX; a context shared between lanes would
        # interleave their updates while the GIL is released.  4 KiB chunks
        # and no payload copies keep the lanes inside the kernel (half a
        # megabyte per call) most of the time, so they do overlap.
        lanes = 4  # more than this host's cores
        inputs = [random.Random(seed).randbytes(2_000_000) for seed in range(lanes)]
        chunker = build_chunker("gear", average_size=4096)
        expected = [
            fingerprint(data, GearChunker(average_size=4096), keep_data=False) for data in inputs
        ]
        results, errors = [None] * lanes, []
        barrier = threading.Barrier(lanes)

        def lane(index):
            try:
                barrier.wait(timeout=30)
                for _ in range(5):
                    results[index] = fingerprint(inputs[index], chunker, keep_data=False)
                    assert results[index] == expected[index]
            except BaseException as error:  # noqa: BLE001 - reported by the main thread
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=lane, args=(index,)) for index in range(lanes)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert not any(thread.is_alive() for thread in threads)
        assert results == expected

    def test_status_names_libcrypto(self):
        assert "; digests: libcrypto (OpenSSL" in kernel_status()[1]


@requires_kernel
class TestWithoutLibcrypto:
    @pytest.fixture
    def unbindable_libcrypto(self, monkeypatch):
        def refuse(path, *args, **kwargs):
            raise OSError(f"{path}: cannot open shared object file")

        def forget():
            accel._libcrypto.cache_clear()
            accel._evp_digest.cache_clear()
            accel._LOCAL.scratch = accel._Scratch()  # its EVP_MD_CTX came from the binder

        monkeypatch.setattr(accel.ctypes, "CDLL", refuse)
        forget()
        yield
        monkeypatch.undo()
        forget()

    def test_kernel_still_scans_and_hashlib_digests(self, unbindable_libcrypto):
        available, detail = kernel_status()
        assert available
        assert "; digests: hashlib (cannot bind libcrypto: " in detail
        assert "cannot open shared object file" in detail
        data = random.Random(8).randbytes(40_000)
        fused = build_chunker("gear", **SMALL)
        assert isinstance(fused, AcceleratedGearChunker)
        runs = list(fused.committed_segments([data], "sha1"))
        assert len(runs) > 3 and all(digests is None for *_run, digests in runs)
        assert fingerprint(data, fused) == fingerprint(data, GearChunker(**SMALL))


RECORDS_PROBE = """
import hashlib, random
from repro.chunking import build_chunker
from repro.chunking.accel import kernel_status
from repro.fingerprint.fingerprinter import Fingerprinter
data = random.Random(9).randbytes(200_000)
blocks = [data[i:i + 7_000] for i in range(0, len(data), 7_000)]
summary = hashlib.sha256()
for algorithm in ("sha1", "md5", "sha256"):
    fingerprinter = Fingerprinter(algorithm)
    for record in fingerprinter.fingerprint_blocks(iter(blocks), build_chunker("gear", average_size=256)):
        summary.update(repr(tuple(record)).encode())
    summary.update(repr((fingerprinter.bytes_fingerprinted, fingerprinter.chunks_fingerprinted)).encode())
print(kernel_status()[0], kernel_status()[1].rsplit("; digests: ", 1)[1].split(" ")[0], summary.hexdigest())
"""


def probe_records(**env):
    environment = {
        key: value for key, value in os.environ.items()
        if key not in ("CC", "XDG_CACHE_HOME", "PYTHONPATH")
    }
    environment.update(PYTHONPATH=SOURCE_ROOT, **env)
    done = subprocess.run(
        [sys.executable, "-c", RECORDS_PROBE],
        env=environment, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_no_compiler_and_cold_cache_give_identical_records(tmp_path):
    live = probe_records(XDG_CACHE_HOME=str(tmp_path / "warm"))
    bare = probe_records(XDG_CACHE_HOME=str(tmp_path / "cold"), CC="/bin/false")
    assert bare[:2] == ["False", "hashlib"]
    assert bare[2] == live[2]
    if kernel_status()[0]:
        assert live[:2] == ["True", "libcrypto"]


def corpus(seed=23):
    rng = random.Random(seed)
    shared = rng.randbytes(9_000)
    return [
        ("unique", rng.randbytes(20_000)),
        ("repeats", shared + rng.randbytes(3_000) + shared),
        ("compressible", rng.randbytes(1_500) * 8),
        ("empty", b""),
    ]


@pytest.mark.parametrize("algorithm", ["md5", "sha256"])
@pytest.mark.parametrize(
    "settings_",
    [
        dict(transport="inproc"),
        dict(transport="process"),
        dict(transport="inproc", container_compression="zlib", replication_factor=2),
        dict(transport="process", container_compression="zlib", replication_factor=2),
    ],
    ids=["inproc", "process", "inproc-zlib-2x", "process-zlib-2x"],
)
def test_backup_restore_recover_under_other_digests(tmp_path, algorithm, settings_):
    """``fingerprint_algorithm`` end to end: 16- and 32-byte fingerprints
    through routing, the wire, spill journals, replica mirroring and
    recovery, then a restore with a node down where replicas exist."""
    options = dict(
        num_nodes=3,
        chunker=build_chunker("gear", average_size=512),
        superchunk_size=8192,
        node_config=NodeConfig(container_capacity=4096),
        storage_dir=str(tmp_path),
        fingerprint_algorithm=algorithm,
        **settings_,
    )
    files = corpus()
    digest_size = hashlib.new(algorithm).digest_size
    framework = SigmaDedupe(**options)
    try:
        report = framework.backup(files)
        recipe = framework.director.get_recipe(report.session_id, "repeats")
        assert {len(location.fingerprint) for location in recipe.chunks} == {digest_size}
        assert report.duplicate_chunks > 0
        for path, payload in files:
            assert framework.restore(report.session_id, path) == payload
        exported = framework.director.export_session(report.session_id)
    finally:
        framework.close()

    revived = SigmaDedupe(**options)
    try:
        revived.recover_storage()
        session = revived.director.import_session(exported)
        assert revived.backup(files).unique_chunks == 0  # the rebuilt indexes dedupe
        if options.get("replication_factor", 1) > 1:
            revived.cluster.mark_node_down(0)
        for path, payload in files:
            assert revived.restore(session.session_id, path) == payload
    finally:
        revived.close()
