"""Tests for repro.workloads.synthetic."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.synthetic import SyntheticDataGenerator, SyntheticWorkload


class TestSyntheticDataGenerator:
    def test_unique_bytes_length(self):
        generator = SyntheticDataGenerator(seed=1)
        assert len(generator.unique_bytes(1000)) == 1000

    def test_unique_bytes_differ_between_calls(self):
        generator = SyntheticDataGenerator(seed=1)
        assert generator.unique_bytes(100) != generator.unique_bytes(100)

    def test_deterministic_across_instances(self):
        a = SyntheticDataGenerator(seed=7).unique_bytes(256)
        b = SyntheticDataGenerator(seed=7).unique_bytes(256)
        assert a == b

    def test_different_seeds_differ(self):
        a = SyntheticDataGenerator(seed=1).unique_bytes(256)
        b = SyntheticDataGenerator(seed=2).unique_bytes(256)
        assert a != b

    def test_zero_length(self):
        assert SyntheticDataGenerator().unique_bytes(0) == b""

    def test_negative_length_raises(self):
        with pytest.raises(WorkloadError):
            SyntheticDataGenerator().unique_bytes(-1)

    def test_mutate_overwrite_preserves_length(self):
        generator = SyntheticDataGenerator(seed=3)
        data = generator.unique_bytes(10_000)
        mutated = bytearray(data)
        generator.mutate_overwrite(mutated, num_edits=5, edit_size=128)
        assert len(mutated) == len(data)
        assert mutated != data

    def test_mutate_overwrite_keeps_most_content(self):
        generator = SyntheticDataGenerator(seed=4)
        data = generator.unique_bytes(50_000)
        mutated = bytearray(data)
        generator.mutate_overwrite(mutated, num_edits=2, edit_size=256)
        differing = sum(1 for a, b in zip(data, mutated) if a != b)
        assert differing <= 2 * 256

    def test_mutate_insert_grows(self):
        generator = SyntheticDataGenerator(seed=5)
        data = bytearray(generator.unique_bytes(1000))
        generator.mutate_insert(data, 2, 50)
        assert len(data) == 1100

    def test_mutate_delete_shrinks(self):
        generator = SyntheticDataGenerator(seed=6)
        data = bytearray(generator.unique_bytes(1000))
        generator.mutate_delete(data, 2, 50)
        assert len(data) == 900

    def test_evolve_zero_change_is_identity(self):
        generator = SyntheticDataGenerator(seed=7)
        data = generator.unique_bytes(1000)
        assert generator.evolve(data, 0.0) == data

    def test_evolve_invalid_fraction(self):
        with pytest.raises(WorkloadError):
            SyntheticDataGenerator().evolve(b"data", 1.5)

    def test_evolve_changes_small_fraction(self):
        generator = SyntheticDataGenerator(seed=8)
        data = generator.unique_bytes(100_000)
        evolved = generator.evolve(data, 0.02)
        assert evolved != data
        # Size may shift slightly due to insert/delete but stays close.
        assert abs(len(evolved) - len(data)) <= 512


class TestSyntheticWorkload:
    def test_snapshot_count(self):
        workload = SyntheticWorkload(num_generations=3, files_per_generation=2, file_size=4096)
        assert len(list(workload.snapshots())) == 3

    def test_files_per_generation(self):
        workload = SyntheticWorkload(num_generations=2, files_per_generation=5, file_size=1024)
        for snapshot in workload.snapshots():
            assert snapshot.file_count == 5

    def test_deterministic(self):
        a = list(SyntheticWorkload(seed=9, num_generations=2).snapshots())
        b = list(SyntheticWorkload(seed=9, num_generations=2).snapshots())
        assert a[1].files[0].data == b[1].files[0].data

    def test_generations_are_similar_but_not_identical(self):
        workload = SyntheticWorkload(
            num_generations=2, files_per_generation=1, file_size=50_000, change_fraction=0.05
        )
        snapshots = list(workload.snapshots())
        first = snapshots[0].files[0].data
        second = snapshots[1].files[0].data
        assert first != second
        # Shift-resilient comparison: most content-defined chunks survive a 5%
        # mutation, which is the redundancy deduplication exploits.
        from repro.chunking.cdc import ContentDefinedChunker

        chunker = ContentDefinedChunker(average_size=1024)
        first_chunks = {chunk.data for chunk in chunker.chunk(first)}
        second_chunks = {chunk.data for chunk in chunker.chunk(second)}
        assert len(first_chunks & second_chunks) > len(first_chunks) * 0.5

    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            SyntheticWorkload(num_generations=0)
        with pytest.raises(WorkloadError):
            SyntheticWorkload(files_per_generation=0)
        with pytest.raises(WorkloadError):
            SyntheticWorkload(file_size=0)

    @pytest.mark.parametrize("change_fraction", [-0.5, 1.5, 7.0])
    def test_change_fraction_out_of_range_fails_at_construction(self, change_fraction):
        with pytest.raises(WorkloadError):
            SyntheticWorkload(change_fraction=change_fraction)

    def test_zero_change_fraction_keeps_every_file(self):
        workload = SyntheticWorkload(
            num_generations=3, files_per_generation=2, file_size=4096, change_fraction=0.0
        )
        payloads = [[file.data for file in snapshot.files] for snapshot in workload.snapshots()]
        assert payloads[0] == payloads[1] == payloads[2]

    def test_describe(self):
        workload = SyntheticWorkload(num_generations=2, files_per_generation=3, file_size=1024)
        info = workload.describe()
        assert info["snapshots"] == 2
        assert info["files"] == 6
        assert info["has_file_metadata"] is True


class TestBlockStreams:
    def test_unique_byte_blocks_lengths(self):
        generator = SyntheticDataGenerator(seed=5)
        blocks = list(generator.unique_byte_blocks(10_000, block_size=4096))
        assert [len(b) for b in blocks] == [4096, 4096, 1808]

    def test_unique_byte_blocks_matches_unique_bytes_stream(self):
        # The same seed must produce the same byte stream either way.
        whole = SyntheticDataGenerator(seed=6).unique_bytes(10_000)
        hmm = b"".join(SyntheticDataGenerator(seed=6).unique_byte_blocks(10_000, block_size=10_000))
        assert hmm == whole

    def test_unique_byte_blocks_rejects_bad_args(self):
        generator = SyntheticDataGenerator(seed=7)
        with pytest.raises(WorkloadError):
            list(generator.unique_byte_blocks(-1))
        with pytest.raises(WorkloadError):
            list(generator.unique_byte_blocks(100, block_size=0))

    def test_workload_file_iter_blocks(self):
        from repro.workloads.base import WorkloadFile

        file = WorkloadFile(path="x", data=bytes(range(256)) * 10)
        blocks = list(file.iter_blocks(block_size=1000))
        assert b"".join(blocks) == file.data
        assert all(len(b) <= 1000 for b in blocks)
