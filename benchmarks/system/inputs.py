"""Set-up: every workload's inputs, generated from the seed and written to disk.

Set-up runs in its own interpreter so the measuring process starts with a
clean heap: inputs reach it as files read back in 1 MiB blocks (or, for
``node_plane_replay``, one packed super-chunk file), which keeps
``peak_rss_mb`` a measure of the system and not of the generator.  What
set-up writes next to the data is the manifest the correctness gate checks
against: a SHA-256 per input file and the exact single-node deduplication
ratio that ``nedr`` normalises by.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import time
from typing import Any, Dict, Iterable, Iterator, List, Set

from repro.chunking import build_chunker
from repro.core.partitioner import PartitionerConfig, StreamPartitioner
from repro.core.superchunk import SuperChunk
from repro.fingerprint.fingerprinter import ChunkRecord, Fingerprinter
from repro.workloads.synthetic import SyntheticDataGenerator
from repro.workloads.vm_images import VMBackupWorkload

MB = 1 << 20
AVERAGE_CHUNK = 4096
SUPERCHUNK_SIZE = MB
BLOCK_SIZE = MB
CHANGE_FRACTION = 0.10
#: Generations differ by a few large edits, as files do; the generator's
#: default 256-byte edits would touch nearly every 4 KiB chunk at 10%.
EDIT_BYTES = 32 * 1024

#: Input sizes at scale 1 (``--quick`` divides the byte sizes by 4).  Sized
#: so one round of each workload takes about a second on a 2-core host and
#: a run of ``run_seconds`` holds ten or more of them.
SIZES = {
    "fresh_full": {"files": 8, "file_bytes": 8 * MB},
    "generations_spill": {"files": 4, "file_bytes": 4 * MB, "generations": 6},
    "node_plane_replay": {"vms": 4, "base_image_bytes": 4 * MB, "generations": 6},
    "process_planes": {"files": 6, "file_bytes": 4 * MB},
}

MANIFEST = "manifest.json"
SUPERCHUNK_FILE = "superchunks.bin"
_SC_HEAD = struct.Struct("<II")  # chunk count, generation


def make_chunker() -> Any:
    return build_chunker("gear", average_size=AVERAGE_CHUNK)


def partitioner_config() -> PartitionerConfig:
    return PartitionerConfig(chunker=make_chunker(), superchunk_size=SUPERCHUNK_SIZE)


def compressible_bytes(generator: SyntheticDataGenerator, total: int) -> bytes:
    """Unique but internally repetitive: each 4 KiB region is a fresh random
    1 KiB seed four times over, so chunks stay unique for deduplication
    while a codec shrinks the spill files."""
    parts = [generator.unique_bytes(1024) * 4 for _ in range(-(-total // 4096))]
    return b"".join(parts)[:total]


def read_blocks(path: str) -> Iterator[bytes]:
    """A file as the 1 MiB block stream the backup client ingests."""
    with open(path, "rb") as handle:
        while True:
            block = handle.read(BLOCK_SIZE)
            if not block:
                return
            yield block


class _ExactRatio:
    """Single-node exact deduplication: logical bytes over the bytes of
    distinct chunks, with the workload's own chunker."""

    def __init__(self) -> None:
        self._fingerprinter = Fingerprinter("sha1")
        self._chunker = make_chunker()
        self._seen: Set[bytes] = set()
        self.logical = 0
        self.unique = 0
        self.chunks = 0

    def add_records(self, records: Iterable[ChunkRecord]) -> None:
        seen = self._seen
        for record in records:
            self.logical += record.length
            self.chunks += 1
            if record.fingerprint not in seen:
                seen.add(record.fingerprint)
                self.unique += record.length

    def add_buffer(self, data: bytes) -> None:
        self.add_records(
            self._fingerprinter.fingerprint_blocks(data, self._chunker, keep_data=False)
        )

    @property
    def ratio(self) -> float:
        return self.logical / self.unique if self.unique else 1.0


def _write_session(
    out_dir: str, index: int, payloads: List[bytes], exact: _ExactRatio
) -> Dict[str, Any]:
    session_dir = os.path.join(out_dir, f"s{index:02d}")
    os.makedirs(session_dir)
    files = []
    for number, data in enumerate(payloads):
        name = os.path.join(f"s{index:02d}", f"f{number:03d}.bin")
        with open(os.path.join(out_dir, name), "wb") as handle:
            handle.write(data)
        exact.add_buffer(data)
        files.append({
            "path": f"gen{index:02d}/file{number:03d}.bin",
            "file": name,
            "size": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
        })
    return {"label": f"generation-{index:02d}", "files": files}


def _file_sessions(
    out_dir: str, seed: int, workload: str, scale: int, exact: _ExactRatio
) -> List[Dict[str, Any]]:
    size = SIZES[workload]
    file_bytes = size["file_bytes"] // scale
    generations = {"fresh_full": 1, "process_planes": 2}.get(workload) or size["generations"]
    generators = [
        SyntheticDataGenerator(f"{seed}:{workload}:{number}") for number in range(size["files"])
    ]
    if workload == "generations_spill":
        payloads = [compressible_bytes(generator, file_bytes) for generator in generators]
    else:
        payloads = [generator.unique_bytes(file_bytes) for generator in generators]
    sessions = []
    for generation in range(generations):
        if generation:
            payloads = [
                generator.evolve(data, CHANGE_FRACTION, edit_size=EDIT_BYTES)
                for generator, data in zip(generators, payloads)
            ]
        sessions.append(_write_session(out_dir, generation, payloads, exact))
    return sessions


def _replay_sessions(
    out_dir: str, seed: int, scale: int, exact: _ExactRatio
) -> List[Dict[str, Any]]:
    """Pre-partition six VM-fleet generations into super-chunks with payloads."""
    size = SIZES["node_plane_replay"]
    workload = VMBackupWorkload(
        num_backups=size["generations"],
        num_vms=size["vms"],
        base_image_size=size["base_image_bytes"] // scale,
        seed=seed,
    )
    partitioner = StreamPartitioner(partitioner_config())
    sessions = []
    with open(os.path.join(out_dir, SUPERCHUNK_FILE), "wb") as handle:
        for generation, snapshot in enumerate(workload.snapshots()):
            digest = hashlib.sha256()
            logical = 0
            files = ((entry.path, entry.data) for entry in snapshot.files)
            for superchunk, _contributions in partitioner.partition_files(files):
                if superchunk is None:
                    continue
                exact.add_records(superchunk.chunks)
                lengths = [chunk.length for chunk in superchunk.chunks]
                handle.write(_SC_HEAD.pack(len(lengths), generation))
                handle.write(struct.pack(f"<{len(lengths)}I", *lengths))
                handle.write(b"".join(chunk.fingerprint for chunk in superchunk.chunks))
                for chunk in superchunk.chunks:
                    handle.write(chunk.data)
                    digest.update(chunk.data)
                logical += superchunk.logical_size
            sessions.append({
                "label": snapshot.label,
                "size": logical,
                "sha256": digest.hexdigest(),
            })
    return sessions


def load_superchunks(directory: str) -> List[List[SuperChunk]]:
    """Read back the super-chunks set-up wrote, one list per generation."""
    result: List[List[SuperChunk]] = []
    sequence = 0
    with open(os.path.join(directory, SUPERCHUNK_FILE), "rb") as handle:
        while True:
            head = handle.read(_SC_HEAD.size)
            if not head:
                return result
            count, generation = _SC_HEAD.unpack(head)
            lengths = struct.unpack(f"<{count}I", handle.read(4 * count))
            blob = handle.read(20 * count)
            records = []
            offset = 0
            for index, length in enumerate(lengths):
                records.append(ChunkRecord(
                    blob[20 * index:20 * index + 20], length, offset, handle.read(length)
                ))
                offset += length
            if generation == len(result):
                result.append([])
            result[generation].append(SuperChunk.from_chunks(records, sequence_number=sequence))
            sequence += 1


def build(workload: str, seed: int, scale: int, out_dir: str) -> Dict[str, Any]:
    """Generate ``workload``'s inputs under ``out_dir`` and write the manifest."""
    started = time.perf_counter()
    os.makedirs(out_dir)
    exact = _ExactRatio()
    if workload == "node_plane_replay":
        sessions = _replay_sessions(out_dir, seed, scale, exact)
    else:
        sessions = _file_sessions(out_dir, seed, workload, scale, exact)
    manifest = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "sessions": sessions,
        "logical_bytes": exact.logical,
        "chunks": exact.chunks,
        "single_node_dedup_ratio": exact.ratio,
        "setup_s": time.perf_counter() - started,
    }
    with open(os.path.join(out_dir, MANIFEST), "w") as handle:
        json.dump(manifest, handle)
    return manifest


def load_manifest(directory: str) -> Dict[str, Any]:
    with open(os.path.join(directory, MANIFEST)) as handle:
        return json.load(handle)
