"""Figure 1: handprint-based resemblance detection vs the real Jaccard resemblance.

The paper takes the first 8 MB super-chunks of four pair-wise similar files
(Linux 2.6.7 vs 2.6.8 kernel packages, two PPT versions, two DOC versions, two
HTML versions), chunks them with TTTD (1K/2K/4K/32K), and compares the real
Jaccard resemblance against the handprint-estimated resemblance as the
handprint size grows from 1 to 512.

Here the four file pairs are synthesised at four similarity levels (high ~0.9,
medium ~0.65, low ~0.4, poor ~0.2 -- the PPT/HTML pairs of the paper are the
"poor similarity" cases), and the same estimate-vs-real comparison is produced.
The expected shape: the estimate approaches the real value as the handprint
grows, and even small handprints (8-64) detect the poorly similar pairs that a
single representative fingerprint (handprint size 1) misses.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from benchmarks.common import rows_table, run_once
from repro.chunking.tttd import TTTDChunker
from repro.fingerprint.fingerprinter import Fingerprinter
from repro.fingerprint.handprint import compute_handprint, estimate_resemblance, jaccard_resemblance
from repro.workloads.synthetic import SyntheticDataGenerator

SUPERCHUNK_BYTES = 2 * 1024 * 1024  # scaled down from the paper's 8 MB
HANDPRINT_SIZES = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)

#: Synthetic stand-ins for the paper's four file pairs: name -> fraction of the
#: super-chunk rewritten in the second version.
FILE_PAIRS = {
    "linux-kernel-pair": 0.05,
    "doc-pair": 0.20,
    "ppt-pair": 0.45,
    "html-pair": 0.70,
}


def build_pairs() -> Dict[str, Tuple[bytes, bytes]]:
    generator = SyntheticDataGenerator(seed=167)
    pairs = {}
    for name, change_fraction in FILE_PAIRS.items():
        original = generator.unique_bytes(SUPERCHUNK_BYTES)
        revised = generator.evolve(original, change_fraction, edit_size=2048)
        pairs[name] = (original, revised)
    return pairs


def resemblance_series() -> List[List]:
    chunker = TTTDChunker(min_size=1024, backup_mean=2048, main_mean=4096, max_size=32768)
    fingerprinter = Fingerprinter("sha1")
    rows: List[List] = []
    for name, (original, revised) in build_pairs().items():
        fps_a = [r.fingerprint for r in fingerprinter.fingerprint_blocks(original, chunker, keep_data=False)]
        fps_b = [r.fingerprint for r in fingerprinter.fingerprint_blocks(revised, chunker, keep_data=False)]
        real = jaccard_resemblance(fps_a, fps_b)
        row: List = [name, round(real, 3)]
        for k in HANDPRINT_SIZES:
            estimate = estimate_resemblance(compute_handprint(fps_a, k), compute_handprint(fps_b, k))
            row.append(round(estimate, 3))
        rows.append(row)
    return rows


def test_fig1_handprint_resemblance(benchmark):
    rows = run_once(benchmark, resemblance_series)
    headers = ["file pair", "real r"] + [f"k={k}" for k in HANDPRINT_SIZES]
    rows_table(
        "fig1_handprint_resemblance",
        "Figure 1 -- handprint-estimated resemblance vs real Jaccard resemblance (TTTD chunks)",
        headers,
        rows,
    )
    # Reproduction checks: the estimate converges toward the real value, and a
    # reasonable handprint (>= 8) detects similarity for every pair.
    for row in rows:
        real = row[1]
        estimate_at_1 = row[2]
        estimate_large = row[-1]
        assert abs(estimate_large - real) <= abs(estimate_at_1 - real) + 0.05
        estimate_at_8 = row[2 + HANDPRINT_SIZES.index(8)]
        if real >= 0.1:
            assert estimate_at_8 > 0.0
