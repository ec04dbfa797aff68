"""A Linux-kernel-like versioned source tree workload.

Stands in for the paper's "Linux" dataset (kernel sources 1.0 through 3.3.6,
160 GB, dedup ratio ~8).  The properties that matter to cluster deduplication
and that this generator preserves are:

* many small files (kilobytes) organised in a directory tree,
* consecutive versions share most files unchanged,
* a minority of files receive localised edits per version,
* a few files are added and removed per version.

Absolute volume is scaled down so experiments run in seconds of pure Python.

The tree evolves as pure metadata: for every live path only its cumulative
*edit count* is tracked, and file payloads are lazy
:class:`~repro.workloads.base.WorkloadFile` sources that regenerate the
content on demand from a per-path RNG stream (base content plus ``edits``
applications of :meth:`SyntheticDataGenerator.evolve`).  Emitting a snapshot
therefore never materialises the tree's bytes; consumers stream one file at a
time.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List

from repro.errors import WorkloadError
from repro.workloads.base import BackupSnapshot, ContentWorkload, WorkloadFile
from repro.workloads.synthetic import SyntheticDataGenerator

_DIRECTORIES = (
    "kernel", "mm", "fs", "net", "drivers", "arch", "include", "lib",
    "crypto", "sound", "block", "ipc",
)


class VersionedSourceWorkload(ContentWorkload):
    """Synthetic versioned source tree (Linux-kernel-like).

    Parameters
    ----------
    num_versions:
        Number of released versions to back up (each is one snapshot).
    files_per_version:
        Number of source files in the tree.
    mean_file_size:
        Average file size in bytes (source files are small; default 8 KB).
    change_fraction:
        Fraction of files that receive edits between consecutive versions.
    churn_fraction:
        Fraction of files added/removed between consecutive versions.
    seed:
        Determinism seed.
    """

    name = "linux"

    def __init__(
        self,
        num_versions: int = 8,
        files_per_version: int = 120,
        mean_file_size: int = 8 * 1024,
        change_fraction: float = 0.15,
        churn_fraction: float = 0.03,
        seed: int = 26,
    ):
        if num_versions < 1:
            raise WorkloadError("num_versions must be >= 1")
        if files_per_version < 1:
            raise WorkloadError("files_per_version must be >= 1")
        if not 0.0 <= change_fraction <= 1.0 or not 0.0 <= churn_fraction <= 1.0:
            raise WorkloadError("fractions must be within [0, 1]")
        self.num_versions = num_versions
        self.files_per_version = files_per_version
        self.mean_file_size = mean_file_size
        self.change_fraction = change_fraction
        self.churn_fraction = churn_fraction
        self.seed = seed

    # ------------------------------------------------------------------ #
    # lazy per-file content
    # ------------------------------------------------------------------ #

    def _file_payload(self, path: str, edits: int) -> bytes:
        """Content of ``path`` after ``edits`` localised edits.

        Each path owns an independent RNG stream, so any edit level of any
        file is reproducible without the rest of the tree.
        """
        generator = SyntheticDataGenerator(f"{self.seed}:{path}")
        # Source files have a skewed but small size distribution: mostly
        # around the mean, a few several times larger.
        size = generator.randint(self.mean_file_size // 4, self.mean_file_size * 2)
        if generator.random() < 0.05:
            size *= 4
        data = generator.unique_bytes(size)
        for _ in range(edits):
            data = generator.evolve(data, change_fraction=0.08, edit_size=128)
        return data

    def _payload_source(self, path: str, edits: int):
        def blocks() -> Iterator[bytes]:
            yield self._file_payload(path, edits)
        return blocks

    # ------------------------------------------------------------------ #
    # metadata-level tree evolution
    # ------------------------------------------------------------------ #

    def _initial_tree(self) -> Dict[str, int]:
        tree: Dict[str, int] = {}
        for index in range(self.files_per_version):
            directory = _DIRECTORIES[index % len(_DIRECTORIES)]
            tree[f"{directory}/file_{index:05d}.c"] = 0
        return tree

    def _evolve_tree(self, tree: Dict[str, int], rng: random.Random, version: int) -> Dict[str, int]:
        evolved = dict(tree)
        paths = sorted(evolved.keys())
        # Localised edits to a fraction of files.
        num_changed = max(1, int(len(paths) * self.change_fraction)) if self.change_fraction else 0
        for _ in range(num_changed):
            path = rng.choice(paths)
            evolved[path] += 1
        # Remove a few files.
        num_removed = int(len(paths) * self.churn_fraction)
        for _ in range(num_removed):
            path = rng.choice(sorted(evolved.keys()))
            evolved.pop(path, None)
        # Add a few new files.
        num_added = max(num_removed, int(len(paths) * self.churn_fraction))
        for index in range(num_added):
            directory = _DIRECTORIES[rng.randint(0, len(_DIRECTORIES) - 1)]
            evolved[f"{directory}/new_v{version:03d}_{index:04d}.c"] = 0
        return evolved

    def snapshots(self) -> Iterator[BackupSnapshot]:
        rng = random.Random(self.seed)
        tree = self._initial_tree()
        for version in range(self.num_versions):
            if version > 0:
                tree = self._evolve_tree(tree, rng, version)
            files: List[WorkloadFile] = [
                WorkloadFile(path=path, source=self._payload_source(path, edits))
                for path, edits in sorted(tree.items())
            ]
            yield BackupSnapshot(label=f"v{version + 1:03d}", files=files)
