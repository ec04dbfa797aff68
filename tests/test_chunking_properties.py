"""Property-based tests (hypothesis) for the chunking substrate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.chunking import build_chunker
from repro.chunking.accel import AcceleratedGearChunker, kernel_status
from repro.chunking.cdc import ContentDefinedChunker
from repro.chunking.fixed import StaticChunker
from repro.chunking.gear import GearChunker
from repro.chunking.tttd import TTTDChunker
from repro.fingerprint.fingerprinter import Fingerprinter

binary_data = st.binary(min_size=0, max_size=20_000)

#: Biased towards low-entropy payloads (repeated short motifs): dense gear
#: hits, cuts right after the min-size skip and runs that reach max_size,
#: none of which uniform random bytes produce often.
repetitive_data = st.builds(
    lambda motif, reps, tail: motif * reps + tail,
    motif=st.binary(min_size=1, max_size=64),
    reps=st.integers(min_value=1, max_value=512),
    tail=st.binary(min_size=0, max_size=128),
)


class TestStaticChunkerProperties:
    @given(data=binary_data, chunk_size=st.integers(min_value=1, max_value=4096))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, data, chunk_size):
        chunks = list(StaticChunker(chunk_size).chunk(data))
        assert b"".join(c.data for c in chunks) == data

    @given(data=binary_data, chunk_size=st.integers(min_value=1, max_value=4096))
    @settings(max_examples=50, deadline=None)
    def test_all_chunks_within_size(self, data, chunk_size):
        for chunk in StaticChunker(chunk_size).chunk(data):
            assert 1 <= chunk.length <= chunk_size

    @given(data=binary_data, chunk_size=st.integers(min_value=1, max_value=4096))
    @settings(max_examples=50, deadline=None)
    def test_chunk_count(self, data, chunk_size):
        chunks = list(StaticChunker(chunk_size).chunk(data))
        expected = (len(data) + chunk_size - 1) // chunk_size
        assert len(chunks) == expected


class TestCDCProperties:
    @given(data=binary_data)
    @settings(max_examples=30, deadline=None)
    def test_roundtrip(self, data):
        chunker = ContentDefinedChunker(average_size=512, min_size=64, max_size=2048)
        chunks = list(chunker.chunk(data))
        assert b"".join(c.data for c in chunks) == data

    @given(data=binary_data)
    @settings(max_examples=30, deadline=None)
    def test_offsets_partition_the_stream(self, data):
        chunker = ContentDefinedChunker(average_size=512, min_size=64, max_size=2048)
        position = 0
        for chunk in chunker.chunk(data):
            assert chunk.offset == position
            position += chunk.length
        assert position == len(data)

    @given(data=st.binary(min_size=1, max_size=20_000))
    @settings(max_examples=30, deadline=None)
    def test_max_size_respected(self, data):
        chunker = ContentDefinedChunker(average_size=512, min_size=64, max_size=2048)
        for chunk in chunker.chunk(data):
            assert chunk.length <= 2048


class TestGearProperties:
    @given(data=binary_data)
    @settings(max_examples=30, deadline=None)
    def test_roundtrip(self, data):
        chunker = GearChunker(average_size=512, min_size=64, max_size=2048)
        chunks = list(chunker.chunk(data))
        assert b"".join(c.data for c in chunks) == data

    @given(data=binary_data)
    @settings(max_examples=30, deadline=None)
    def test_offsets_partition_the_stream(self, data):
        chunker = GearChunker(average_size=512, min_size=64, max_size=2048)
        position = 0
        for chunk in chunker.chunk(data):
            assert chunk.offset == position
            position += chunk.length
        assert position == len(data)

    @given(data=st.binary(min_size=1, max_size=20_000))
    @settings(max_examples=30, deadline=None)
    def test_max_size_respected(self, data):
        chunker = GearChunker(average_size=512, min_size=64, max_size=2048)
        for chunk in chunker.chunk(data):
            assert chunk.length <= 2048


class TestTTTDProperties:
    @given(data=binary_data)
    @settings(max_examples=30, deadline=None)
    def test_roundtrip(self, data):
        chunker = TTTDChunker(min_size=64, backup_mean=128, main_mean=256, max_size=1024)
        chunks = list(chunker.chunk(data))
        assert b"".join(c.data for c in chunks) == data

    @given(data=st.binary(min_size=1, max_size=20_000))
    @settings(max_examples=30, deadline=None)
    def test_size_bounds(self, data):
        chunker = TTTDChunker(min_size=64, backup_mean=128, main_mean=256, max_size=1024)
        chunks = list(chunker.chunk(data))
        for chunk in chunks[:-1]:
            assert chunk.length <= 1024
        if chunks:
            assert chunks[-1].length <= 1024

    @given(data=binary_data)
    @settings(max_examples=30, deadline=None)
    def test_determinism(self, data):
        chunker = TTTDChunker(min_size=64, backup_mean=128, main_mean=256, max_size=1024)
        assert [c.data for c in chunker.chunk(data)] == [c.data for c in chunker.chunk(data)]


def _split_into_blocks(data, cut_points):
    """Split ``data`` at the (deduplicated, sorted) relative cut points."""
    boundaries = sorted({max(0, min(len(data), point)) for point in cut_points})
    blocks = []
    previous = 0
    for boundary in boundaries:
        blocks.append(data[previous:boundary])
        previous = boundary
    blocks.append(data[previous:])
    return blocks


def _all_chunkers():
    return [
        StaticChunker(512),
        ContentDefinedChunker(average_size=512, min_size=64, max_size=2048),
        GearChunker(average_size=512, min_size=64, max_size=2048),
        TTTDChunker(min_size=64, backup_mean=128, main_mean=256, max_size=1024),
    ]


class TestChunkStreamEquivalence:
    """chunk_stream over ANY block split must equal one-shot chunk exactly."""

    @given(
        data=binary_data,
        cut_points=st.lists(st.integers(min_value=0, max_value=20_000), max_size=8),
    )
    @settings(max_examples=30, deadline=None)
    def test_stream_equals_oneshot_for_every_chunker(self, data, cut_points):
        blocks = _split_into_blocks(data, cut_points)
        assert b"".join(blocks) == data
        for chunker in _all_chunkers():
            one_shot = [(c.offset, c.data) for c in chunker.chunk(data)]
            streamed = [(c.offset, c.data) for c in chunker.chunk_stream(blocks)]
            assert streamed == one_shot, type(chunker).__name__

    @given(data=binary_data, block_size=st.integers(min_value=1, max_value=4096))
    @settings(max_examples=30, deadline=None)
    def test_fixed_block_sizes(self, data, block_size):
        blocks = [data[i:i + block_size] for i in range(0, len(data), block_size)]
        for chunker in _all_chunkers():
            one_shot = [(c.offset, c.data) for c in chunker.chunk(data)]
            streamed = [(c.offset, c.data) for c in chunker.chunk_stream(blocks)]
            assert streamed == one_shot, type(chunker).__name__

    def test_stream_of_empty_blocks(self):
        for chunker in _all_chunkers():
            assert list(chunker.chunk_stream([])) == []
            assert list(chunker.chunk_stream([b"", b"", b""])) == []

    def test_generator_input_is_consumed_lazily(self):
        # chunk_stream must accept a one-pass generator, not just sequences.
        data = bytes(range(256)) * 64
        blocks = (data[i:i + 1000] for i in range(0, len(data), 1000))
        chunker = GearChunker(average_size=512, min_size=64, max_size=2048)
        streamed = b"".join(c.data for c in chunker.chunk_stream(blocks))
        assert streamed == data


#: Gear configurations: average size x explicit or default min/max x
#: normalization level (0 = one mask throughout).
gear_configurations = st.builds(
    lambda average, bounds, normalization: dict(
        average_size=average,
        normalization=normalization,
        **(
            {}
            if bounds is None
            else {"min_size": max(1, average // bounds[0]), "max_size": average * bounds[1]}
        ),
    ),
    average=st.sampled_from([64, 128, 512, 1024, 4096]),
    bounds=st.one_of(
        st.none(),
        st.tuples(st.sampled_from([2, 4, 8, 64]), st.sampled_from([2, 4, 8])),
    ),
    normalization=st.integers(min_value=0, max_value=3),
)

#: Data shapes: random, all-zero (every cut is a forced max-size cut),
#: periodic 1 KiB seeds (what the benchmark's compressible inputs look
#: like), short motifs, and anything at or under a minimum chunk.
gear_data = st.one_of(
    binary_data,
    repetitive_data,
    st.integers(min_value=0, max_value=40_000).map(lambda size: b"\x00" * size),
    st.builds(
        lambda seed, reps, tail: seed * reps + tail,
        seed=st.binary(min_size=1024, max_size=1024),
        reps=st.integers(min_value=1, max_value=24),
        tail=st.binary(min_size=0, max_size=64),
    ),
    st.binary(min_size=0, max_size=64),
)

#: Every input type cut_offsets accepts: bytes, bytearray, and read-only and
#: writable memoryviews (the shm lanes scan writable slab views in place).
buffer_types = st.sampled_from(
    [bytes, bytearray, memoryview, lambda data: memoryview(bytearray(data))]
)


@pytest.mark.skipif(not kernel_status()[0], reason=kernel_status()[1])
class TestAcceleratedGearEquivalence:
    """The compiled kernel must be byte-identical to the pure GearChunker."""

    @given(kwargs=gear_configurations, data=gear_data, as_buffer=buffer_types)
    @settings(max_examples=150, deadline=None)
    def test_oneshot_boundaries_match_pure(self, kwargs, data, as_buffer):
        expected = list(GearChunker(**kwargs).cut_offsets(data))
        observed = list(AcceleratedGearChunker(**kwargs).cut_offsets(as_buffer(data)))
        assert observed == expected

    @given(
        kwargs=gear_configurations,
        data=gear_data,
        cut_points=st.lists(st.integers(min_value=0, max_value=40_000), max_size=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_streamed_boundaries_match_pure(self, kwargs, data, cut_points):
        blocks = _split_into_blocks(data, cut_points)
        expected = [(c.offset, c.data) for c in GearChunker(**kwargs).chunk(data)]
        observed = [
            (c.offset, c.data) for c in AcceleratedGearChunker(**kwargs).chunk_stream(blocks)
        ]
        assert observed == expected

    @given(kwargs=gear_configurations, data=gear_data)
    @settings(max_examples=50, deadline=None)
    def test_cut_offsets_invariants(self, kwargs, data):
        accel = AcceleratedGearChunker(**kwargs)
        cuts = list(accel.cut_offsets(data))
        if not data:
            assert cuts == []
            return
        assert cuts == sorted(set(cuts))
        assert cuts[-1] == len(data)
        previous = 0
        for cut in cuts[:-1]:
            assert accel.min_size < cut - previous <= accel.max_size
            previous = cut
        assert 0 < cuts[-1] - previous <= accel.max_size


class TestFusedBlockStreamEquivalence:
    """fingerprint_blocks over ANY block split must equal the whole-buffer
    path record for record: the carried tail, a cut landing exactly on a
    block edge, empty blocks and blocks longer than max_size included."""

    @staticmethod
    def _records(data, chunker, keep_data=True):
        fingerprinter = Fingerprinter("sha1")
        records = list(fingerprinter.fingerprint_blocks(data, chunker, keep_data=keep_data))
        return (
            [tuple(record) for record in records],
            fingerprinter.bytes_fingerprinted,
            fingerprinter.chunks_fingerprinted,
        )

    @given(
        data=st.one_of(binary_data, repetitive_data),
        cut_points=st.lists(st.integers(min_value=0, max_value=20_000), max_size=8),
        keep_data=st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_arbitrary_splits_for_every_chunker(self, data, cut_points, keep_data):
        blocks = _split_into_blocks(data, cut_points) + [b""]
        for chunker in _all_chunkers() + [build_chunker("gear", average_size=256)]:
            whole = self._records(data, chunker, keep_data)
            assert self._records(iter(blocks), chunker, keep_data) == whole, type(chunker).__name__
            assert whole[1:] == (len(data), len(whole[0]))

    @given(data=st.binary(min_size=0, max_size=3_000))
    @settings(max_examples=25, deadline=None)
    def test_one_byte_blocks(self, data):
        chunker = build_chunker("gear", average_size=128)
        blocks = [data[i:i + 1] for i in range(len(data))]
        assert self._records(blocks, chunker) == self._records(data, chunker)

    def test_cuts_on_block_edges_and_blocks_longer_than_max_size(self):
        import random

        data = random.Random(77).randbytes(120_000)
        chunker = build_chunker("gear", average_size=512)
        whole = self._records(data, chunker)
        cuts = list(chunker.cut_offsets(data))
        # Every block ends exactly on a chunk boundary...
        on_edges = [data[a:b] for a, b in zip([0] + cuts[9::10], cuts[9::10] + [len(data)])]
        assert b"".join(on_edges) == data
        assert self._records(on_edges, chunker) == whole
        # ...and one block far beyond max_size sits between two tiny ones.
        assert self._records([data[:10], data[10:-10], data[-10:]], chunker) == whole

    def test_both_sides_of_the_large_block_threshold(self):
        # Blocks of >= _LARGE_BLOCK straddle windows are scanned in place
        # behind a small joined window, smaller ones behind a whole join:
        # the two paths meet at the threshold and must not show.
        import random

        from repro.chunking.base import _LARGE_BLOCK

        data = random.Random(78).randbytes(300_000)
        for chunker in _all_chunkers() + [build_chunker("gear", average_size=512)]:
            threshold = _LARGE_BLOCK * 4 * chunker.average_chunk_size
            assert 3 * threshold < len(data)
            whole = self._records(data, chunker)
            for size in (threshold - 1, threshold, threshold + 1):
                blocks = [data[i:i + size] for i in range(0, len(data), size)]
                assert self._records(iter(blocks), chunker) == whole, (type(chunker).__name__, size)


class TestCompressedRestoreEquivalence:
    """Spill compression must never change restored bytes."""

    @given(
        payload=st.one_of(
            st.binary(min_size=1, max_size=60_000),
            repetitive_data,
        )
    )
    @settings(max_examples=10, deadline=None)
    def test_restore_identical_with_and_without_compression(self, payload, tmp_path_factory):
        from repro.core.framework import SigmaDedupe
        from repro.node.dedupe_node import NodeConfig

        restored = []
        for compression in ("none", "zlib"):
            root = tmp_path_factory.mktemp(f"spill-{compression}")
            framework = SigmaDedupe(
                num_nodes=2,
                chunker=GearChunker(average_size=512, min_size=64, max_size=2048),
                node_config=NodeConfig(container_capacity=4096),
                storage_dir=str(root),
                container_compression=compression,
            )
            report = framework.backup([("f.bin", payload)])
            restored.append(framework.restore(report.session_id, "f.bin"))
        assert restored[0] == restored[1] == payload


class TestMeanChunkSizeTolerance:
    """Both content-defined chunkers realize the configured average size."""

    def test_cdc_and_gear_mean_within_15_percent(self):
        import random

        data = random.Random(1234).randbytes(1_500_000)
        for chunker in (
            ContentDefinedChunker(average_size=2048),
            GearChunker(average_size=2048),
        ):
            chunks = list(chunker.chunk(data))
            observed = len(data) / len(chunks)
            assert abs(observed - 2048) / 2048 < 0.15, (type(chunker).__name__, observed)
