"""Tests for the chunking registry and configuration-driven scheme selection."""

import pytest

from repro.chunking import (
    ALL_CHUNKERS,
    AcceleratedGearChunker,
    ContentDefinedChunker,
    GearChunker,
    StaticChunker,
    TTTDChunker,
    build_chunker,
    kernel_status,
)
from repro.core.framework import SigmaDedupe
from repro.errors import ChunkingError


class TestRegistry:
    def test_all_schemes_registered(self):
        assert set(ALL_CHUNKERS) == {
            "static",
            "cdc",
            "tttd",
            "gear",
            "gear-accel",
            "gear-pure",
        }

    def test_build_by_name(self):
        assert isinstance(build_chunker("static"), StaticChunker)
        assert isinstance(build_chunker("cdc"), ContentDefinedChunker)
        assert isinstance(build_chunker("tttd"), TTTDChunker)
        assert isinstance(build_chunker("gear"), GearChunker)
        assert isinstance(build_chunker("gear-pure"), GearChunker)
        assert not isinstance(build_chunker("gear-pure"), AcceleratedGearChunker)

    def test_gear_selects_compiled_backend_when_kernel_builds(self):
        # ``"gear"`` must resolve to the fastest available backend; the
        # no-compiler side of this switch is covered in test_chunking_accel.
        available, detail = kernel_status()
        if not available:
            pytest.skip(detail)
        assert isinstance(build_chunker("gear"), AcceleratedGearChunker)
        assert isinstance(build_chunker("gear-accel"), AcceleratedGearChunker)

    def test_build_with_kwargs(self):
        chunker = build_chunker("gear", average_size=8192)
        assert abs(chunker.average_chunk_size - 8192) <= 1

    def test_unknown_name_raises(self):
        with pytest.raises(ChunkingError, match="unknown chunker"):
            build_chunker("rolling-stone")


class TestFrameworkChunkerSelection:
    def test_framework_accepts_chunker_name(self):
        framework = SigmaDedupe(num_nodes=2, chunker="gear")
        assert isinstance(framework._partitioner_config.chunker, GearChunker)

    def test_framework_backup_restore_with_gear_chunker(self):
        framework = SigmaDedupe(num_nodes=2, chunker="gear")
        files = [("a.bin", bytes(range(256)) * 512), ("b.bin", b"hello world" * 1000)]
        report = framework.backup(files, session_label="gear-smoke")
        assert report.logical_bytes == sum(len(data) for _, data in files)
        restored = dict(framework.restore_session(report.session_id))
        assert restored == dict(files)

    def test_describe_names_the_live_chunker_backend(self):
        live = "AcceleratedGearChunker" if kernel_status()[0] else "GearChunker"
        assert SigmaDedupe(num_nodes=1, chunker="gear").describe()["chunker_backend"] == live
        assert (
            SigmaDedupe(num_nodes=1, chunker="gear-pure").describe()["chunker_backend"]
            == "GearChunker"
        )

    def test_framework_rejects_unknown_chunker_name(self):
        with pytest.raises(ChunkingError):
            SigmaDedupe(num_nodes=1, chunker="bogus")
