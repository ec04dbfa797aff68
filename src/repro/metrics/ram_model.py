"""The RAM-usage comparison of Section 4.3.

"A first-order estimate of RAM usage ... for a 100TB unique dataset with 64KB
average file size, and assuming 4KB chunk size and 40B index entry size, DDFS
requires 50GB RAM for Bloom filter, Extreme Binning uses 62.5GB RAM for file
index, while our scheme only needs 32GB RAM to maintain similarity index."

This module reproduces that estimate as an explicit analytic model so the
numbers (and how they change with the parameters) can be regenerated by the
``bench_ram_usage`` benchmark and sanity-checked by tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.units import GiB, KiB, MiB, TiB


@dataclass
class RamUsageModel:
    """Analytic RAM model for the three intra-node index designs.

    Parameters
    ----------
    unique_dataset_bytes:
        Physical (post-dedup) dataset size (paper: 100 TB).
    average_file_size:
        Average file size (paper: 64 KB) -- drives Extreme Binning's file index.
    chunk_size:
        Average chunk size (paper: 4 KB).
    index_entry_bytes:
        Size of one index entry (paper: 40 B).
    superchunk_size:
        Sigma-Dedupe's routing unit (paper: 1 MB).
    handprint_size:
        Number of representative fingerprints kept per super-chunk (paper: 8).
    bloom_bits_per_chunk:
        Bits the DDFS Bloom filter spends per stored chunk.  The paper's 50 GB
        for 100 TB / 4 KB chunks corresponds to 16 bits per chunk.
    """

    unique_dataset_bytes: int = 100 * TiB
    average_file_size: int = 64 * KiB
    chunk_size: int = 4 * KiB
    index_entry_bytes: int = 40
    superchunk_size: int = 1 * MiB
    handprint_size: int = 8
    bloom_bits_per_chunk: int = 16

    @property
    def total_chunks(self) -> int:
        return self.unique_dataset_bytes // self.chunk_size

    @property
    def total_files(self) -> int:
        return self.unique_dataset_bytes // self.average_file_size

    @property
    def total_superchunks(self) -> int:
        return self.unique_dataset_bytes // self.superchunk_size

    # ------------------------------------------------------------------ #
    # per-scheme RAM usage
    # ------------------------------------------------------------------ #

    def ddfs_bloom_filter_bytes(self) -> int:
        """DDFS keeps a Bloom filter over every chunk fingerprint."""
        return self.total_chunks * self.bloom_bits_per_chunk // 8

    def extreme_binning_file_index_bytes(self) -> int:
        """Extreme Binning keeps one primary-index entry per file.

        The paper charges 40 B per file entry; 100 TB / 64 KB files = 1.5625e9
        files -> 62.5 GB.
        """
        return self.total_files * self.index_entry_bytes

    def sigma_similarity_index_bytes(self) -> int:
        """Sigma-Dedupe keeps ``handprint_size`` entries per stored super-chunk.

        100 TB / 1 MB super-chunks = 1e8 super-chunks x 8 entries x 40 B = 32 GB.
        """
        return self.total_superchunks * self.handprint_size * self.index_entry_bytes

    def full_chunk_index_bytes(self) -> int:
        """A flat in-RAM chunk index (the structure everyone is avoiding)."""
        return self.total_chunks * self.index_entry_bytes

    def summary_gib(self) -> dict:
        """All four figures in GiB, ready for the benchmark table."""
        return {
            "ddfs_bloom_filter_gib": self.ddfs_bloom_filter_bytes() / GiB,
            "extreme_binning_file_index_gib": self.extreme_binning_file_index_bytes() / GiB,
            "sigma_similarity_index_gib": self.sigma_similarity_index_bytes() / GiB,
            "full_chunk_index_gib": self.full_chunk_index_bytes() / GiB,
        }
