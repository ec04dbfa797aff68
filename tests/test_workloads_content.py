"""Tests for the content workloads (Linux-like and VM-like generators)."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.versioned_source import VersionedSourceWorkload
from repro.workloads.vm_images import VMBackupWorkload
from repro.workloads.trace import materialize_workload, trace_statistics
from repro.chunking.fixed import StaticChunker


class TestVersionedSourceWorkload:
    def test_snapshot_count(self):
        workload = VersionedSourceWorkload(num_versions=4, files_per_version=10)
        assert len(list(workload.snapshots())) == 4

    def test_many_small_files(self):
        workload = VersionedSourceWorkload(num_versions=1, files_per_version=30, mean_file_size=4096)
        snapshot = next(iter(workload.snapshots()))
        assert snapshot.file_count == 30
        assert all(file.size < 64 * 1024 for file in snapshot.files)

    def test_consecutive_versions_share_content(self):
        workload = VersionedSourceWorkload(num_versions=2, files_per_version=20, change_fraction=0.1)
        snapshots = list(workload.snapshots())
        first = {file.path: file.data for file in snapshots[0].files}
        second = {file.path: file.data for file in snapshots[1].files}
        unchanged = sum(1 for path in first if path in second and first[path] == second[path])
        assert unchanged >= len(first) * 0.5

    def test_churn_adds_and_removes_files(self):
        workload = VersionedSourceWorkload(
            num_versions=2, files_per_version=50, churn_fraction=0.1, change_fraction=0.1
        )
        snapshots = list(workload.snapshots())
        first_paths = {file.path for file in snapshots[0].files}
        second_paths = {file.path for file in snapshots[1].files}
        assert second_paths - first_paths  # new files appeared
        assert first_paths - second_paths  # some files disappeared

    def test_deterministic(self):
        a = list(VersionedSourceWorkload(num_versions=2, files_per_version=10, seed=5).snapshots())
        b = list(VersionedSourceWorkload(num_versions=2, files_per_version=10, seed=5).snapshots())
        assert [f.path for f in a[1].files] == [f.path for f in b[1].files]
        assert a[1].files[0].data == b[1].files[0].data

    def test_dedup_ratio_grows_with_versions(self):
        few = materialize_workload(
            VersionedSourceWorkload(num_versions=2, files_per_version=20),
            chunker=StaticChunker(1024),
        )
        many = materialize_workload(
            VersionedSourceWorkload(num_versions=6, files_per_version=20),
            chunker=StaticChunker(1024),
        )
        assert (
            trace_statistics(many)["deduplication_ratio"]
            > trace_statistics(few)["deduplication_ratio"]
        )

    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            VersionedSourceWorkload(num_versions=0)
        with pytest.raises(WorkloadError):
            VersionedSourceWorkload(change_fraction=2.0)

    def test_zero_fractions_keep_the_tree_and_its_contents(self):
        workload = VersionedSourceWorkload(
            num_versions=3, files_per_version=15, change_fraction=0.0, churn_fraction=0.0
        )
        trees = [
            {file.path: file.data for file in snapshot.files} for snapshot in workload.snapshots()
        ]
        assert trees[0] == trees[1] == trees[2]

    def test_has_file_metadata(self):
        assert VersionedSourceWorkload().has_file_metadata is True


class TestVMBackupWorkload:
    def test_one_image_per_vm(self):
        workload = VMBackupWorkload(num_backups=1, num_vms=4, base_image_size=8192)
        snapshot = next(iter(workload.snapshots()))
        assert snapshot.file_count == 4

    def test_image_sizes_are_skewed(self):
        workload = VMBackupWorkload(num_backups=1, num_vms=5, base_image_size=8192, size_skew=1.5)
        snapshot = next(iter(workload.snapshots()))
        sizes = sorted(file.size for file in snapshot.files)
        assert sizes[-1] > sizes[0] * 2

    def test_backups_share_most_blocks(self):
        workload = VMBackupWorkload(
            num_backups=2, num_vms=2, base_image_size=64 * 1024, change_fraction=0.05
        )
        snaps = materialize_workload(workload, chunker=StaticChunker(4096))
        stats = trace_statistics(snaps)
        # Two backups with 5% change should deduplicate to noticeably less
        # than 2x the unique data.
        assert stats["deduplication_ratio"] > 1.5

    def test_paths_stable_across_backups(self):
        workload = VMBackupWorkload(num_backups=2, num_vms=3, base_image_size=8192)
        snapshots = list(workload.snapshots())
        assert [f.path for f in snapshots[0].files] == [f.path for f in snapshots[1].files]

    def test_deterministic(self):
        a = list(VMBackupWorkload(num_backups=2, num_vms=2, base_image_size=8192, seed=3).snapshots())
        b = list(VMBackupWorkload(num_backups=2, num_vms=2, base_image_size=8192, seed=3).snapshots())
        assert a[1].files[0].data == b[1].files[0].data

    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            VMBackupWorkload(num_backups=0)
        with pytest.raises(WorkloadError):
            VMBackupWorkload(base_image_size=100)
        with pytest.raises(WorkloadError):
            VMBackupWorkload(size_skew=0.5)

    @pytest.mark.parametrize("change_fraction", [-0.5, 1.01, 7.0])
    def test_change_fraction_out_of_range(self, change_fraction):
        with pytest.raises(WorkloadError):
            VMBackupWorkload(change_fraction=change_fraction)

    def test_zero_change_fraction_keeps_every_image(self):
        workload = VMBackupWorkload(
            num_backups=3, num_vms=2, base_image_size=64 * 1024, change_fraction=0.0
        )
        images = [[file.data for file in snapshot.files] for snapshot in workload.snapshots()]
        assert images[0] == images[1] == images[2]

    def test_full_change_fraction_is_accepted(self):
        workload = VMBackupWorkload(num_backups=2, num_vms=1, base_image_size=8192, change_fraction=1.0)
        first, second = ([file.data for file in snapshot.files] for snapshot in workload.snapshots())
        assert first != second
