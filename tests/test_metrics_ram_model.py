"""Tests for repro.metrics.ram_model (the Section 4.3 RAM estimate)."""

import pytest

from repro.metrics.ram_model import RamUsageModel
from repro.utils.units import GiB, KiB, MiB, TiB


class TestPaperNumbers:
    """The paper's quoted figures: 100 TB unique data, 64 KB files, 4 KB chunks,
    40 B entries -> DDFS 50 GB, Extreme Binning 62.5 GB, Sigma-Dedupe 32 GB."""

    def setup_method(self):
        self.model = RamUsageModel(
            unique_dataset_bytes=100 * TiB,
            average_file_size=64 * KiB,
            chunk_size=4 * KiB,
            index_entry_bytes=40,
            superchunk_size=1 * MiB,
            handprint_size=8,
            bloom_bits_per_chunk=16,
        )

    def test_ddfs_bloom_filter_about_50_gb(self):
        assert self.model.ddfs_bloom_filter_bytes() / GiB == pytest.approx(50, rel=0.05)

    def test_extreme_binning_about_62_gb(self):
        assert self.model.extreme_binning_file_index_bytes() / GiB == pytest.approx(62.5, rel=0.05)

    def test_sigma_about_32_gb(self):
        assert self.model.sigma_similarity_index_bytes() / GiB == pytest.approx(32, rel=0.05)

    def test_ordering_matches_paper(self):
        # Sigma < DDFS < Extreme Binning for the paper's parameters.
        sigma = self.model.sigma_similarity_index_bytes()
        ddfs = self.model.ddfs_bloom_filter_bytes()
        extreme = self.model.extreme_binning_file_index_bytes()
        assert sigma < ddfs < extreme

    def test_summary_keys(self):
        summary = self.model.summary_gib()
        assert set(summary) == {
            "ddfs_bloom_filter_gib",
            "extreme_binning_file_index_gib",
            "sigma_similarity_index_gib",
            "full_chunk_index_gib",
        }


class TestScaling:
    def test_larger_handprint_costs_more_ram(self):
        small = RamUsageModel(handprint_size=8).sigma_similarity_index_bytes()
        large = RamUsageModel(handprint_size=16).sigma_similarity_index_bytes()
        assert large == 2 * small

    def test_larger_superchunk_costs_less_ram(self):
        small_sc = RamUsageModel(superchunk_size=1 * MiB).sigma_similarity_index_bytes()
        large_sc = RamUsageModel(superchunk_size=16 * MiB).sigma_similarity_index_bytes()
        assert large_sc == small_sc // 16

    def test_counts(self):
        model = RamUsageModel(unique_dataset_bytes=1 * TiB)
        assert model.total_chunks == (1 * TiB) // (4 * KiB)
        assert model.total_files == (1 * TiB) // (64 * KiB)
        assert model.total_superchunks == (1 * TiB) // (1 * MiB)
