"""Deterministic synthetic data generation and a generic tunable workload.

:class:`SyntheticDataGenerator` produces reproducible pseudo-random byte
buffers and applies version-to-version mutations (in-place edits, insertions,
deletions), which is the primitive the Linux- and VM-like generators build on.
:class:`SyntheticWorkload` is a directly usable workload with an explicit
target redundancy level, handy for tests and the quickstart example.
"""

from __future__ import annotations

import random
from typing import Iterator, List

from repro.errors import WorkloadError
from repro.workloads.base import (
    DEFAULT_STREAM_BLOCK_SIZE,
    BackupSnapshot,
    ContentWorkload,
    WorkloadFile,
)
from repro.workloads.mersenne import randbytes

#: The shortest draw made in C, where it overtakes ``random.Random.randbytes``
#: with a margin (``docs/runs/PR-33.md`` has the table that timed both sides).
_KERNEL_MIN = 32 * 1024


class SyntheticDataGenerator:
    """Seeded generator of unique buffers and realistic mutations.

    ``seed`` may be any value :class:`random.Random` accepts (int or str);
    string seeds let workload generators derive independent per-file streams
    such as ``f"{seed}:{path}"``.  Draws of ``_KERNEL_MIN`` bytes or more continue
    its state in C, the same bytes (:func:`~repro.workloads.mersenne.randbytes`,
    not atomic): a generator belongs to one thread.
    """

    def __init__(self, seed: "int | str" = 2012):
        self._rng = random.Random(seed)

    def unique_bytes(self, length: int) -> bytes:
        """Return ``length`` pseudo-random bytes never produced before by this
        generator (with overwhelming probability)."""
        if length < 0:
            raise WorkloadError("length must be non-negative")
        if length == 0:
            return b""
        if length < _KERNEL_MIN:
            return self._rng.randbytes(length)
        return randbytes(self._rng, length)

    def unique_byte_blocks(
        self, length: int, block_size: int = DEFAULT_STREAM_BLOCK_SIZE
    ) -> Iterator[bytes]:
        """Yield ``length`` pseudo-random bytes as a stream of blocks.

        The streaming counterpart of :meth:`unique_bytes` for feeding
        ``chunk_stream``-based pipelines: no buffer of more than
        ``block_size`` bytes is ever materialised by the generator.
        """
        if length < 0:
            raise WorkloadError("length must be non-negative")
        if block_size < 1:
            raise WorkloadError("block_size must be >= 1")
        remaining = length
        while remaining > 0:
            size = min(block_size, remaining)
            block = self._rng.randbytes(size) if size < _KERNEL_MIN else randbytes(self._rng, size)
            remaining -= len(block)
            yield block

    def choice(self, options):
        return self._rng.choice(options)

    def randint(self, low: int, high: int) -> int:
        return self._rng.randint(low, high)

    def random(self) -> float:
        return self._rng.random()

    # ------------------------------------------------------------------ #
    # mutations
    # ------------------------------------------------------------------ #

    def evolve(self, data: bytes, change_fraction: float, edit_size: int = 256) -> bytes:
        """Produce the "next version" of ``data`` with roughly
        ``change_fraction`` of its bytes affected by edits."""
        if not 0.0 <= change_fraction <= 1.0:
            raise WorkloadError("change_fraction must be within [0, 1]")
        if not data or change_fraction == 0.0:
            return data
        num_edits = max(1, int(len(data) * change_fraction / max(edit_size, 1)))
        buffer = bytearray(data)  # the one copy every edit lands in
        self.mutate_overwrite(buffer, num_edits, edit_size)
        # A small amount of insertion/deletion exercises shift-sensitivity of
        # fixed-size chunking versus CDC.
        if self._rng.random() < 0.5:
            self.mutate_insert(buffer, 1, edit_size)
        else:
            self.mutate_delete(buffer, 1, edit_size)
        return bytes(buffer)

    def mutate_overwrite(self, buffer: bytearray, num_edits: int, edit_size: int) -> None:
        """Overwrite ``num_edits`` spans of ``edit_size`` bytes at random
        offsets, in place."""
        for _ in range(num_edits):
            if len(buffer) <= edit_size:
                offset = 0
                size = len(buffer)
            else:
                offset = self._rng.randrange(0, len(buffer) - edit_size)
                size = edit_size
            buffer[offset:offset + size] = self.unique_bytes(size)

    def mutate_insert(self, buffer: bytearray, num_inserts: int, insert_size: int) -> None:
        """Insert ``num_inserts`` new spans at random offsets, in place
        (shifts content)."""
        for _ in range(num_inserts):
            offset = self._rng.randrange(0, len(buffer) + 1) if buffer else 0
            buffer[offset:offset] = self.unique_bytes(insert_size)

    def mutate_delete(self, buffer: bytearray, num_deletes: int, delete_size: int) -> None:
        """Delete ``num_deletes`` spans at random offsets, in place."""
        for _ in range(num_deletes):
            if len(buffer) <= delete_size:
                break
            offset = self._rng.randrange(0, len(buffer) - delete_size)
            del buffer[offset:offset + delete_size]


class SyntheticWorkload(ContentWorkload):
    """A generic workload with an explicit number of generations and change rate.

    Generation 0 is fresh data; each later generation is the previous one with
    ``change_fraction`` of each file's bytes modified, which makes the ideal
    deduplication ratio approximately ``num_generations`` for small change
    fractions.

    Every file evolves on its own deterministic RNG stream (derived from the
    workload seed and the file index), so payloads are emitted as lazy
    :class:`~repro.workloads.base.WorkloadFile` sources: a file's bytes are
    regenerated on demand when it is consumed, and the generator never holds
    a whole generation -- or even one file -- between snapshots.

    Parameters
    ----------
    num_generations:
        Number of backup snapshots.
    files_per_generation:
        Files in each snapshot.
    file_size:
        Size of each file in bytes (generation 0; later generations drift
        slightly through insert/delete mutations).
    change_fraction:
        Fraction of each file modified between consecutive generations.
    seed:
        Seed for deterministic generation.
    """

    name = "synthetic"

    def __init__(
        self,
        num_generations: int = 3,
        files_per_generation: int = 8,
        file_size: int = 64 * 1024,
        change_fraction: float = 0.05,
        seed: int = 2012,
    ):
        if num_generations < 1:
            raise WorkloadError("num_generations must be >= 1")
        if files_per_generation < 1:
            raise WorkloadError("files_per_generation must be >= 1")
        if file_size < 1:
            raise WorkloadError("file_size must be >= 1")
        if not 0.0 <= change_fraction <= 1.0:
            raise WorkloadError("change_fraction must be within [0, 1]")
        self.num_generations = num_generations
        self.files_per_generation = files_per_generation
        self.file_size = file_size
        self.change_fraction = change_fraction
        self.seed = seed

    def _file_payload(self, index: int, generation: int) -> bytes:
        """Version ``generation`` of file ``index``, regenerated from scratch.

        The file's dedicated RNG stream replays its whole evolution chain, so
        any version is reproducible without storing any earlier one.
        """
        generator = SyntheticDataGenerator(f"{self.seed}:file:{index}")
        data = generator.unique_bytes(self.file_size)
        for _ in range(generation):
            data = generator.evolve(data, self.change_fraction)
        return data

    def _payload_source(self, index: int, generation: int):
        def blocks() -> Iterator[bytes]:
            yield self._file_payload(index, generation)
        return blocks

    def snapshots(self) -> Iterator[BackupSnapshot]:
        for generation in range(self.num_generations):
            files: List[WorkloadFile] = [
                WorkloadFile(
                    path=f"gen{generation:03d}/file{index:04d}.bin",
                    source=self._payload_source(index, generation),
                )
                for index in range(self.files_per_generation)
            ]
            yield BackupSnapshot(label=f"generation-{generation:03d}", files=files)
