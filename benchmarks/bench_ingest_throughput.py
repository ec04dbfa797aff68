"""End-to-end ingest throughput: workload -> chunk -> fingerprint -> route -> store.

Not a paper figure -- this harness records the repository's ingest
performance trajectory and guards it in CI.  Six stages are measured, each
in MB/s over the same synthetic payload:

* **chunk_only** -- the boundary scan alone (``Chunker.cut_offsets``), the
  historical pure-Python ceiling (~9 MB/s), for the pure-Python gear scan
  and (where ``kernel_status()`` is true) the compiled one;
* **chunk_fingerprint** -- the fused chunk->fingerprint hot path
  (``Fingerprinter.fingerprint_blocks`` slicing one shared memoryview);
* **node_path** -- the cluster data plane alone: pre-partitioned super-chunks
  driven through routing + node dedupe + container store for two generations
  (a unique ingest, then a full repeat backup), on the in-memory and on the
  spill-to-disk container backend;
* **end_to_end** -- a full backup session against an in-memory cluster
  (``SigmaDedupe.backup``: partitioning, SHA-1, handprint routing, node
  dedupe and container store), plus an ``end_to_end_spill`` row for the
  file-backend variant of the same session;
* **parallel_end_to_end** -- the same session through the parallel ingest
  engine for workers in {1, 2, 4}.  The headline ``mb_per_s`` uses the
  shared-memory process front end
  (``SigmaDedupe(workers=N, parallel_executor="process")``): lanes are
  processes chunking and fingerprinting in place over shm slab rings, so
  the front end escapes the GIL and only payload offsets+digests cross
  process boundaries; the historical thread-lane rate rides along as
  ``thread_mb_per_s``.  Results stay byte-identical to serial ingest either
  way.  Each row carries ``gil_bound`` flags: the process front end only
  trips on a single-core host, thread lanes always (the in-process node
  plane shares their GIL);
* **transport_end_to_end** -- the same session over the multiprocess node
  plane (``SigmaDedupe(transport="process")``) for 1, 2 and 4 node worker
  processes: each node runs in its own process behind the binary RPC
  transport, so node-plane dedupe escapes the client GIL entirely and the
  windowed backup pipeline (default depth 4) overlaps super-chunks
  k+1..k+K's routing with k's store -- one batched routing probe per
  super-chunk instead of the seed's c+N+c sequential round-trips;
* **handoff_end_to_end** -- the full stack in one row: 4 shm lane processes
  feeding 4 node worker processes, lane payload memoryviews joined straight
  into the wire train, so payload bytes are copied once in the parent;
* **stage_breakdown** (own top-level block) -- measured per-stage time
  attribution over the same payload: the chunk scan, record build (digest
  + record construction), node plane and wire, each with seconds / MB/s /
  share, plus the combined
  ``front_end_share``.  This is what backs the ``gil_bound`` flags with
  numbers;
* **wire_payload_plane** -- the two candidate zero-copy payload planes,
  measured head to head (parent process shipping chunk-frame trains to a
  child): the transport's socket sender (``wire.send_message``, recorded
  under the ``sendmsg`` key) vs a ``shared_memory`` double-buffered ring.
  The transport keeps the winner (the socket: no staging ring, no credit
  round-trips; the ring's extra copy only pays off for frames far larger
  than containers);
  both rates are recorded so the choice stays auditable;
* **restore** -- the read path on the spill-to-disk backend: a two-generation
  session whose later recipes interleave containers, restored whole (grouped
  by (node, container), one load per distinct container per window) and
  through the streamed iterator;
* **restore_compressed** -- the same two-generation interleaved session over a
  compressible payload, batched restore on uncompressed vs compressed spill
  files, with the raw/stored spill byte totals recorded as
  ``spill_bytes`` so the compression win is visible in the JSON;
* **recovery** -- the durability plane: ``journal-replay`` is the disaster
  path in MB/s (reopen a replicated spill tree cold: manifest-journal replay,
  index rebuild, replica re-mirroring), then the same recovered session is
  restored batched with every node up (``restore-replicated``) and with a
  data-holding node marked down (``restore-failover``), byte-identical both
  ways; the failover read counts land in ``recovery_stats``.

Results are printed and written to ``BENCH_ingest.json`` at the repository
root so successive PRs accumulate comparable data points.  The chunk rows are
best-of-N (single runs swing 10-15% on shared hosts).  Asserted regressions
(the CI smoke gate): where the compiled gear kernel is live
(``kernel_status()``) its scan is >= 30x the pure scan and accelerated
end-to-end ingest is >= 8x the pure end-to-end rate, compressed batched
restore is >= 0.9x the uncompressed batched restore on the same payload, compressed spill files hold <= 0.8x the raw
bytes on the compressible workload, both recovery restore legs are
byte-identical with the failover leg actually serving replica reads and
holding >= 0.25x the healthy replicated rate, and -- on hosts with >= 4 cores,
i.e. the CI runners -- workers=4 shm-lane ingest is >= 2x workers=1 and, where
the scan is the GIL-free compiled kernel, workers=4 thread ingest is >= 1.5x
workers=1 (2-3 cores gate shm lanes at a reduced 1.2x over the pure scan only:
behind the kernel lanes were measured not to scale there; a single-core host
records the rows and skips, since lane scaling is physically impossible).
The process-transport gates: on >= 4 cores, 4 node workers must ingest >=
1.5x the 1-worker rate; on 2-3 cores they must at least not regress below
it (the seed's per-connection dispatch made 4 workers *slower* than 1);
single-core hosts record the rows and skip.

Run directly::

    PYTHONPATH=src python benchmarks/bench_ingest_throughput.py           # full
    PYTHONPATH=src python benchmarks/bench_ingest_throughput.py --smoke   # CI
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import tempfile
import time
from collections import deque
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.chunking.accel import AcceleratedGearChunker, kernel_status
from repro.chunking.base import Chunker
from repro.chunking.gear import GearChunker
from repro.cluster.client import DEFAULT_PIPELINE_DEPTH
from repro.cluster.cluster import DedupeCluster
from repro.cluster.restore import RestoreManager
from repro.core.framework import SigmaDedupe
from repro.core.partitioner import PartitionerConfig, StreamPartitioner
from repro.fingerprint.fingerprinter import Fingerprinter
from repro.node.dedupe_node import NodeConfig
from repro.storage.compression import resolve_compression
from repro.workloads.synthetic import SyntheticDataGenerator

AVERAGE_CHUNK_SIZE = 4096
SUPERCHUNK_SIZE = 256 * 1024
NUM_NODES = 4
NUM_FILES = 4
# Best-of-5: single node-path passes swing on shared CI runners.
NODE_PATH_REPEATS = 5
# Chunk rows are best-of-N too, so a single noisy run must not fail the
# build -- single passes swing 10-15% on shared hosts.  Accel passes are
# cheap (~2 ms at smoke scale), so the smoke gate takes many; the pure scan
# is ~200x slower per pass and only feeds ratio gates with wide margins.
CHUNK_REPEATS_ACCEL = {"full": 16, "smoke": 16}
CHUNK_REPEATS_PURE = 3
PARALLEL_WORKERS = (1, 2, 4)
PARALLEL_REPEATS = 3
# Direct timings inside the stage-breakdown block are best-of-N like the
# chunk rows (they feed attribution shares, not gates, but noisy shares make
# the gil_bound story unreadable).
STAGE_REPEATS = 3
# The shm process front end must scale harder than the thread lanes: payload
# bytes never cross the lane boundary by pickling, so on a >= 4-core host the
# 4-lane row has to at least double the 1-lane row.
PARALLEL_PROCESS_SCALE_GATE = 2.0
# Transport rows: node worker *processes* (each hosting one DedupeNode), the
# GIL-escape axis.  The 4-worker row must scale like the thread-lane gate.
TRANSPORT_WORKERS = (1, 2, 4)
TRANSPORT_REPEATS = 2
TRANSPORT_SCALE_GATE = 1.5
# The wire-plane duel ships this many frames per train (one synthetic
# super-chunk of 4 KB chunks per train).
WIRE_TRAIN_FRAMES = 64
WIRE_FRAME_BYTES = 4096
# Restore rows use small containers so even the smoke payload spreads over
# many spill files (with 4 MiB containers a 3 MB smoke run would fit in one
# container per node).
RESTORE_CONTAINER_CAPACITY = 256 * 1024
RESTORE_REPEATS = 3
# Recovery rows replicate at factor 2 so the failover leg has replicas to
# serve from; the failover restore must hold at least this fraction of the
# healthy replicated rate (replica reads walk the successor chain and skip
# the primary's index fast path, so parity is not expected).
RECOVERY_REPLICATION_FACTOR = 2
RECOVERY_FAILOVER_GATE = 0.25

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_ingest.json"

DATA_BYTES = {"full": 16 * 1024 * 1024, "smoke": 3 * 1024 * 1024}


def gear_backends() -> List[Tuple[str, Callable[[], Chunker]]]:
    backends: List[Tuple[str, Callable[[], Chunker]]] = [
        ("gear-pure", lambda: GearChunker(average_size=AVERAGE_CHUNK_SIZE)),
    ]
    if kernel_status()[0]:
        backends.append(
            ("gear-accel", lambda: AcceleratedGearChunker(average_size=AVERAGE_CHUNK_SIZE))
        )
    return backends


def best_chunker() -> Chunker:
    """The fastest available gear scan (for the node-path measurement)."""
    name, factory = gear_backends()[-1]
    return factory()


def _mbps(num_bytes: int, elapsed: float) -> float:
    return num_bytes / (1024 * 1024) / max(elapsed, 1e-9)


def measure_chunk_only(chunker: Chunker, data: bytes, repeats: int = 1) -> float:
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        count = sum(1 for _ in chunker.cut_offsets(data))
        elapsed = time.perf_counter() - start
        assert count > 0
        best = max(best, _mbps(len(data), elapsed))
    return best


def measure_chunk_fingerprint(chunker: Chunker, data: bytes, repeats: int = 1) -> float:
    best = 0.0
    for _ in range(repeats):
        fingerprinter = Fingerprinter("sha1")
        start = time.perf_counter()
        for _ in fingerprinter.fingerprint_blocks(data, chunker, keep_data=False):
            pass
        elapsed = time.perf_counter() - start
        assert fingerprinter.bytes_fingerprinted == len(data)
        best = max(best, _mbps(len(data), elapsed))
    return best


def measure_node_path(
    superchunks: List, logical_bytes: int, node_config: NodeConfig,
    storage_dir: Optional[str] = None,
) -> float:
    """Cluster data plane MB/s: two generations (unique then repeat) through
    routing + node dedupe + container store, best of NODE_PATH_REPEATS."""
    best = 0.0
    if storage_dir:
        node_config = replace(node_config, container_backend="file", storage_dir=storage_dir)
    for _ in range(NODE_PATH_REPEATS):
        cluster = DedupeCluster(num_nodes=NUM_NODES, node_config=node_config)
        start = time.perf_counter()
        for _generation in range(2):
            for superchunk in superchunks:
                cluster.backup_superchunk(superchunk)
            cluster.flush()
        elapsed = time.perf_counter() - start
        best = max(best, _mbps(2 * logical_bytes, elapsed))
    return best


def measure_end_to_end(
    chunker: Chunker,
    files: List[Tuple[str, bytes]],
    storage_dir: Optional[str] = None,
    workers: Optional[int] = None,
    parallel_executor: str = "thread",
) -> float:
    framework = SigmaDedupe(
        num_nodes=NUM_NODES,
        routing="sigma",
        chunker=chunker,
        superchunk_size=SUPERCHUNK_SIZE,
        storage_dir=storage_dir,
        workers=workers,
        parallel_executor=parallel_executor,
    )
    logical = sum(len(data) for _, data in files)
    start = time.perf_counter()
    report = framework.backup(files, session_label="bench-ingest")
    elapsed = time.perf_counter() - start
    assert report.logical_bytes == logical, (report.logical_bytes, logical)
    return _mbps(logical, elapsed)


def measure_parallel_end_to_end(
    files: List[Tuple[str, bytes]], workers: int, executor: str = "thread"
) -> float:
    """Best-of-repeats parallel ingest on the fastest available chunker."""
    best = 0.0
    for _ in range(PARALLEL_REPEATS):
        best = max(
            best,
            measure_end_to_end(
                best_chunker(), files, workers=workers, parallel_executor=executor
            ),
        )
    return best


def measure_transport_end_to_end(
    files: List[Tuple[str, bytes]],
    node_workers: int,
    lanes: Optional[int] = None,
    executor: str = "thread",
) -> float:
    """Best-of-repeats ingest over the multiprocess node plane.

    ``node_workers`` worker processes each host one node behind the binary
    RPC transport; the backup client runs a bounded in-flight window of
    pipelined stores, so routing of super-chunks k+1..k+K overlaps the store
    of k inside the workers.  With ``lanes``/``executor="process"`` the
    chunk+fingerprint front end additionally fans out across shared-memory
    lane processes whose payload views are joined straight into the wire
    train (the lane->worker hand-off: payload bytes are copied once in the
    parent).
    """
    logical = sum(len(data) for _, data in files)
    best = 0.0
    for _ in range(TRANSPORT_REPEATS):
        framework = SigmaDedupe(
            num_nodes=node_workers,
            routing="sigma",
            chunker=best_chunker(),
            superchunk_size=SUPERCHUNK_SIZE,
            transport="process",
            workers=lanes,
            parallel_executor=executor,
        )
        try:
            start = time.perf_counter()
            report = framework.backup(files, session_label="bench-transport")
            elapsed = time.perf_counter() - start
            assert report.logical_bytes == logical, (report.logical_bytes, logical)
        finally:
            framework.close()
        best = max(best, _mbps(logical, elapsed))
    return best


def measure_stage_breakdown(
    data: bytes, node_plane_rate: float, wire_rate: float
) -> Dict[str, object]:
    """Measured per-stage time attribution over one payload (schema v8).

    The two front-end stages are timed directly (best of
    :data:`STAGE_REPEATS`): the chunk scan (``cut_offsets``) and the fused
    chunk+fingerprint pass minus the scan (digest + record construction).
    The node-plane and wire stages are converted from
    the rates this run already measured on the same payload
    (``node_path/batched`` and the ``sendmsg`` payload-plane row), so every
    share in the block is measured, none annotated by hand.
    """
    chunker = best_chunker()
    assert isinstance(chunker, AcceleratedGearChunker)
    megabytes = len(data) / (1024 * 1024)

    def best_seconds(work: Callable[[], None]) -> float:
        best = float("inf")
        for _ in range(STAGE_REPEATS):
            start = time.perf_counter()
            work()
            best = min(best, time.perf_counter() - start)
        return best

    scan_seconds = best_seconds(
        lambda: deque(chunker.cut_offsets(data), maxlen=0)
    )

    def fused() -> None:
        fingerprinter = Fingerprinter("sha1")
        for _ in fingerprinter.fingerprint_blocks(data, chunker, keep_data=False):
            pass

    fused_seconds = best_seconds(fused)
    build_seconds = max(fused_seconds - scan_seconds, 1e-9)
    node_seconds = megabytes / max(node_plane_rate, 1e-9)
    wire_seconds = megabytes / max(wire_rate, 1e-9)
    seconds = {
        "chunk_scan": scan_seconds,
        "record_build": build_seconds,
        "node_plane": node_seconds,
        "wire": wire_seconds,
    }
    total = sum(seconds.values())
    stages = {
        stage: {
            "seconds": round(value, 4),
            "mb_per_s": round(megabytes / value, 2),
            "share": round(value / total, 4),
        }
        for stage, value in seconds.items()
    }
    front_end = scan_seconds + build_seconds
    return {
        "data_bytes": len(data),
        "stages": stages,
        "front_end_share": round(front_end / total, 4),
    }


def _wire_drain_child(fd: int, trains: int, frames_per_train: int) -> None:
    """Child side of the socket duel: drain whole trains off the socket."""
    import socket as socket_module

    from repro.transport import wire

    sock = socket_module.socket(fileno=fd)
    try:
        for _ in range(trains):
            _header, frames, _nbytes = wire.recv_message(sock)
            assert len(frames) == frames_per_train
    finally:
        sock.close()


def _shm_drain_child(
    shm_name: str, half_bytes: int, trains: int, queue: "object", credits: "object"
) -> None:
    """Child side of the shm-ring duel: copy each train out of the ring half
    named by the queue, then return the credit so the parent can reuse it."""
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(name=shm_name)
    try:
        for _ in range(trains):
            half, length = queue.get()  # type: ignore[attr-defined]
            offset = half * half_bytes
            section = bytes(segment.buf[offset:offset + length])
            assert len(section) == length
            credits.put(half)  # type: ignore[attr-defined]
    finally:
        segment.close()


def measure_wire_payload_plane(total_bytes: int) -> Dict[str, float]:
    """The zero-copy payload-plane duel: the same chunk-frame trains shipped
    parent -> child through the transport's socket sender vs a
    ``shared_memory`` double-buffered ring.  The transport keeps the winner
    (the socket, recorded under the ``sendmsg`` key); both
    rates are recorded so the decision stays auditable in the JSON."""
    import multiprocessing
    import socket as socket_module
    from multiprocessing import shared_memory

    from repro.transport import wire

    rng = random.Random(60902)
    frames = [rng.randbytes(WIRE_FRAME_BYTES) for _ in range(WIRE_TRAIN_FRAMES)]
    train_bytes = WIRE_TRAIN_FRAMES * WIRE_FRAME_BYTES
    trains = max(1, total_bytes // train_bytes)
    shipped = trains * train_bytes
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    )
    rows: Dict[str, float] = {}

    # The socket sender: the plane the transport actually uses.
    parent_sock, child_sock = socket_module.socketpair()
    drainer = context.Process(
        target=_wire_drain_child,
        args=(child_sock.fileno(), trains, WIRE_TRAIN_FRAMES),
    )
    drainer.start()
    start = time.perf_counter()
    for sequence in range(trains):
        wire.send_message(parent_sock, {"seq": sequence}, frames)
    drainer.join()
    rows["sendmsg"] = round(_mbps(shipped, time.perf_counter() - start), 2)
    parent_sock.close()
    child_sock.close()

    # shared_memory double-buffered ring: the measured-and-rejected
    # alternative -- every frame is copied into the ring and out again, and
    # each half costs a credit round-trip before reuse.
    half_bytes = train_bytes
    segment = shared_memory.SharedMemory(create=True, size=2 * half_bytes)
    queue: "multiprocessing.Queue" = context.Queue()
    credits: "multiprocessing.Queue" = context.Queue()
    drainer = context.Process(
        target=_shm_drain_child,
        args=(segment.name, half_bytes, trains, queue, credits),
    )
    drainer.start()
    try:
        for half in range(2):
            credits.put(half)
        start = time.perf_counter()
        for _sequence in range(trains):
            half = credits.get()
            offset = half * half_bytes
            cursor = offset
            for frame in frames:
                segment.buf[cursor:cursor + len(frame)] = frame
                cursor += len(frame)
            queue.put((half, cursor - offset))
        drainer.join()
        rows["shm-ring"] = round(_mbps(shipped, time.perf_counter() - start), 2)
    finally:
        segment.close()
        segment.unlink()
    return rows


def compressible_bytes(generator: SyntheticDataGenerator, total: int) -> bytes:
    """A unique-but-internally-repetitive payload: every 4 KB region is a
    fresh random 1 KB seed repeated four times, so chunks stay unique for
    dedupe accounting while any real codec compresses the spill files well
    below the 0.8x gate (pure ``unique_bytes`` output is incompressible)."""
    parts: List[bytes] = []
    produced = 0
    while produced < total:
        seed = generator.unique_bytes(1024)
        parts.append(seed * 4)
        produced += 4096
    return b"".join(parts)[:total]


def build_restore_session(
    storage_dir: str, data: bytes, compression: Optional[str] = None
) -> Tuple[SigmaDedupe, str, int]:
    """A two-generation spill-backed session whose second recipe interleaves
    old and new containers (unchanged chunks resolve to generation-0 sealed
    containers, edited spans land in fresh ones)."""
    framework = SigmaDedupe(
        num_nodes=NUM_NODES,
        routing="sigma",
        chunker=best_chunker(),
        superchunk_size=SUPERCHUNK_SIZE,
        node_config=NodeConfig(container_capacity=RESTORE_CONTAINER_CAPACITY),
        storage_dir=storage_dir,
        container_compression=compression,
    )
    file_size = len(data) // NUM_FILES
    files = [
        (f"restore/file-{index}.bin", data[index * file_size:(index + 1) * file_size])
        for index in range(NUM_FILES)
    ]
    framework.backup(files, session_label="restore-gen-0")
    rng = random.Random(271828)
    edited = []
    for path, payload in files:
        buffer = bytearray(payload)
        # Dense scattered edits: roughly every other chunk becomes a
        # generation-1 unique, so the generation-1 recipe alternates between
        # generation-0 and generation-1 containers -- the fragmented-restore
        # pattern where one spill reload per chunk is pathological.
        for offset in range(0, len(buffer) - 2048, 2 * AVERAGE_CHUNK_SIZE):
            buffer[offset:offset + 2048] = rng.randbytes(2048)
        edited.append((path, bytes(buffer)))
    report = framework.backup(edited, session_label="restore-gen-1")
    logical = sum(len(payload) for _, payload in edited)
    return framework, report.session_id, logical


def measure_restore(framework: SigmaDedupe, session_id: str, logical: int, mode: str) -> float:
    """Restore the whole session via one consumption shape, best of repeats."""
    best = 0.0
    for _ in range(RESTORE_REPEATS):
        manager = RestoreManager(framework.cluster, framework.director)
        restored_bytes = 0
        start = time.perf_counter()
        for path in framework.director.files_in_session(session_id):
            if mode == "streamed":
                for piece in manager.iter_restore_file(session_id, path):
                    restored_bytes += len(piece)
            else:
                restored_bytes += len(manager.restore_file(session_id, path))
        elapsed = time.perf_counter() - start
        assert restored_bytes == logical, (restored_bytes, logical)
        best = max(best, _mbps(logical, elapsed))
    return best


def measure_recovery(
    storage_dir: str, data: bytes
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """The durability plane: replay a replicated spill tree cold, then
    restore the recovered session with every node up vs with a data-holding
    node marked down.

    ``journal-replay`` times ``recover_storage`` -- manifest-journal replay,
    spill verification, index rebuild and replica re-mirroring -- in MB/s of
    recovered container bytes.  Both restore legs are byte-checked against
    the original payloads before the timed runs; the failover leg must also
    actually serve replica reads and hold :data:`RECOVERY_FAILOVER_GATE`
    times the healthy rate.
    """
    file_size = len(data) // NUM_FILES
    files = [
        (f"recovery/file-{index}.bin", data[index * file_size:(index + 1) * file_size])
        for index in range(NUM_FILES)
    ]
    logical = sum(len(payload) for _, payload in files)

    def build() -> SigmaDedupe:
        return SigmaDedupe(
            num_nodes=NUM_NODES,
            routing="sigma",
            chunker=best_chunker(),
            superchunk_size=SUPERCHUNK_SIZE,
            node_config=NodeConfig(container_capacity=RESTORE_CONTAINER_CAPACITY),
            storage_dir=storage_dir,
            replication_factor=RECOVERY_REPLICATION_FACTOR,
        )

    origin = build()
    report = origin.backup(files, session_label="recovery-gen-0")
    exported = origin.director.export_session(report.session_id)
    origin.close()

    revived = build()
    start = time.perf_counter()
    recoveries = revived.recover_storage()
    elapsed = time.perf_counter() - start
    recovered_containers = sum(len(r.containers) for r in recoveries)
    recovered_bytes = sum(
        container.used for r in recoveries for container in r.containers
    )
    debris = sum(
        r.records_discarded + r.records_dropped + len(r.orphans_removed)
        for r in recoveries
    )
    assert recovered_containers > 0, "recovery bench replayed no containers"
    assert debris == 0, (
        f"cleanly closed spill tree replayed {debris} debris records/files"
    )
    session = revived.director.import_session(exported)

    # Byte-identity on both legs before any timing.
    for path, payload in files:
        assert revived.restore(session.session_id, path) == payload, (
            f"recovered restore of {path} is not byte-identical"
        )
    victim = next(
        node
        for node in revived.cluster.nodes
        if node.container_store.container_count
    )
    revived.cluster.mark_node_down(victim.node_id)
    for path, payload in files:
        assert revived.restore(session.session_id, path) == payload, (
            f"failover restore of {path} is not byte-identical "
            f"(node {victim.node_id} down)"
        )
    revived.cluster.mark_node_up(victim.node_id)

    rows = {
        "journal-replay": round(_mbps(recovered_bytes, elapsed), 2),
        "restore-replicated": round(
            measure_restore(revived, session.session_id, logical, "batched"), 2
        ),
    }
    revived.cluster.mark_node_down(victim.node_id)
    rows["restore-failover"] = round(
        measure_restore(revived, session.session_id, logical, "batched"), 2
    )
    revived.cluster.mark_node_up(victim.node_id)
    failover_reads = revived.cluster.describe()["failover_reads"]
    revived.close()

    assert failover_reads > 0, "failover restore leg served no replica reads"
    assert rows["restore-failover"] >= rows["restore-replicated"] * RECOVERY_FAILOVER_GATE, (
        f"failover restore too slow: {rows['restore-failover']} MB/s vs "
        f"replicated {rows['restore-replicated']} MB/s "
        f"(< {RECOVERY_FAILOVER_GATE}x)"
    )
    stats = {
        "replication_factor": RECOVERY_REPLICATION_FACTOR,
        "recovered_containers": recovered_containers,
        "recovered_bytes": recovered_bytes,
        "failover_reads": failover_reads,
    }
    return rows, stats


def run(scale: str) -> Dict:
    total_bytes = DATA_BYTES[scale]
    generator = SyntheticDataGenerator(seed=1307)
    data = generator.unique_bytes(total_bytes)
    file_size = total_bytes // NUM_FILES
    files = [
        (f"ingest/file-{index}.bin", data[index * file_size:(index + 1) * file_size])
        for index in range(NUM_FILES)
    ]

    results: Dict[str, Dict[str, float]] = {
        "chunk_only": {},
        "chunk_fingerprint": {},
        "node_path": {},
        "end_to_end": {},
    }
    for name, factory in gear_backends():
        repeats = CHUNK_REPEATS_ACCEL[scale] if "accel" in name else CHUNK_REPEATS_PURE
        results["chunk_only"][name] = round(
            measure_chunk_only(factory(), data, repeats=repeats), 2
        )
        results["chunk_fingerprint"][name] = round(
            measure_chunk_fingerprint(factory(), data, repeats=repeats), 2
        )
        results["end_to_end"][name] = round(measure_end_to_end(factory(), files), 2)

    # The node-path rows: identical pre-partitioned super-chunks driven
    # through the cluster plane on each container backend.
    partitioner = StreamPartitioner(
        PartitionerConfig(
            chunker=best_chunker(), superchunk_size=SUPERCHUNK_SIZE, handprint_size=8
        )
    )
    superchunks = [
        superchunk
        for superchunk, _contributions in partitioner.partition_files(
            [("ingest/node-path.bin", data)]
        )
        if superchunk is not None
    ]
    logical = sum(superchunk.logical_size for superchunk in superchunks)
    results["node_path"]["batched"] = round(
        measure_node_path(superchunks, logical, NodeConfig()), 2
    )
    with tempfile.TemporaryDirectory(prefix="bench-ingest-spill-") as spill_dir:
        results["node_path"]["batched-spill"] = round(
            measure_node_path(superchunks, logical, NodeConfig(), storage_dir=spill_dir), 2
        )

        # The same session end to end on the best chunker, on the
        # spill-to-disk backend.
        chunker_name = gear_backends()[-1][0]
        results["end_to_end_spill"] = {
            chunker_name: round(
                measure_end_to_end(
                    best_chunker(), files, storage_dir=str(Path(spill_dir) / "e2e")
                ),
                2,
            )
        }

        # Parallel ingest: the same session through worker lanes.  The
        # headline ``mb_per_s`` is the shm process front end (lanes are
        # processes working in place over shared-memory slabs, so the
        # chunk+fingerprint stages escape the GIL; only the in-process node
        # plane still runs under the parent's), with the historical thread
        # rate recorded alongside.  The gil_bound flag marks rows whose
        # *front end* cannot scale: process lanes only hit that on a
        # single-core host, thread lanes always (in-process node plane
        # shares their GIL) -- the thread flag is kept per-row too.
        cpu_count = os.cpu_count() or 1
        thread_gil_bound = cpu_count == 1 or DedupeCluster.transport == "inproc"
        results["parallel_end_to_end"] = {
            f"workers-{workers}": {
                "mb_per_s": round(
                    measure_parallel_end_to_end(files, workers, "process"), 2
                ),
                "thread_mb_per_s": round(
                    measure_parallel_end_to_end(files, workers, "thread"), 2
                ),
                "executor": "process",
                "gil_bound": cpu_count == 1,
                "thread_gil_bound": thread_gil_bound,
            }
            for workers in PARALLEL_WORKERS
        }

        # The multiprocess node plane: per-core node workers behind real RPC.
        # These rows escape the GIL by construction; only a single-core host
        # (which cannot run workers in parallel at all) marks them bound.
        results["transport_end_to_end"] = {
            f"workers-{workers}": {
                "mb_per_s": round(measure_transport_end_to_end(files, workers), 2),
                "gil_bound": cpu_count == 1,
            }
            for workers in TRANSPORT_WORKERS
        }

        # The full stack: shm lane processes feeding node worker processes,
        # lane payload views joined straight into the wire train (payload
        # bytes are copied once in the parent).  Informational row -- the scaling gates
        # below run on the single-axis rows, where regressions localise.
        results["handoff_end_to_end"] = {
            "lanes-4-workers-4": {
                "mb_per_s": round(
                    measure_transport_end_to_end(
                        files, 4, lanes=4, executor="process"
                    ),
                    2,
                ),
                "gil_bound": cpu_count == 1,
            }
        }

        # The payload-plane duel behind the transport's wire format.
        results["wire_payload_plane"] = measure_wire_payload_plane(
            min(total_bytes, 8 * 1024 * 1024)
        )

        # Measured per-stage attribution over the same payload: where one
        # ingested byte's time actually goes, so the gil_bound flags above
        # rest on numbers rather than annotation.  Front-end stages are
        # timed directly; node plane and wire are converted from the rates
        # this run just measured.
        stage_breakdown = (
            measure_stage_breakdown(
                data,
                node_plane_rate=results["node_path"]["batched"],
                wire_rate=results["wire_payload_plane"]["sendmsg"],
            )
            if kernel_status()[0]
            else None
        )

        # Restore: the spill-backed read path, whole files and streamed, over
        # a session whose recipes interleave containers.
        restore_framework, restore_session, restore_logical = build_restore_session(
            str(Path(spill_dir) / "restore"), data
        )
        results["restore"] = {
            f"{mode}-spill": round(
                measure_restore(restore_framework, restore_session, restore_logical, mode), 2
            )
            for mode in ("batched", "streamed")
        }

        # Compressed spill: the same interleaved two-generation session over a
        # compressible payload, batched restore on raw vs compressed spill
        # files, plus the raw/stored spill byte totals.
        codec = resolve_compression("auto")
        compressible = compressible_bytes(generator, total_bytes // 2)
        plain_framework, plain_session, plain_logical = build_restore_session(
            str(Path(spill_dir) / "restore-plain"), compressible, compression="none"
        )
        packed_framework, packed_session, packed_logical = build_restore_session(
            str(Path(spill_dir) / "restore-packed"), compressible, compression=codec
        )
        results["restore_compressed"] = {
            "batched-uncompressed": round(
                measure_restore(plain_framework, plain_session, plain_logical, "batched"), 2
            ),
            f"batched-{codec}": round(
                measure_restore(packed_framework, packed_session, packed_logical, "batched"), 2
            ),
        }
        spill_bytes_raw = sum(
            node.container_backend.spilled_bytes
            for node in packed_framework.cluster.nodes
        )
        spill_bytes_stored = sum(
            node.container_backend.spilled_bytes_stored
            for node in packed_framework.cluster.nodes
        )
        spill_bytes = {
            "codec": codec,
            "raw": spill_bytes_raw,
            "stored": spill_bytes_stored,
            "ratio": round(spill_bytes_stored / max(spill_bytes_raw, 1), 4),
        }

        # Recovery: cold journal replay of a replicated session, then the
        # healthy vs failover batched restore (byte-checked inside).
        results["recovery"], recovery_stats = measure_recovery(
            str(Path(spill_dir) / "recovery"), data
        )

    # The CI smoke gates: a chunking or ingest regression fails the build.
    if kernel_status()[0]:
        chunk_pure = results["chunk_only"]["gear-pure"]
        chunk_accel = results["chunk_only"]["gear-accel"]
        # The kernel is the pure loop compiled: ~200x measured, so 30x is a
        # floor no host drift reaches and any fall back to interpreted code
        # (or a per-byte ctypes round trip) trips.
        assert chunk_accel >= chunk_pure * 30, (
            f"compiled gear scan regressed: {chunk_accel} MB/s vs pure "
            f"{chunk_pure} MB/s (< 30x)"
        )
        e2e_pure = results["end_to_end"]["gear-pure"]
        e2e_accel = results["end_to_end"]["gear-accel"]
        assert e2e_accel >= e2e_pure * 8, (
            f"accelerated ingest regressed: {e2e_accel} MB/s vs pure {e2e_pure} MB/s"
        )

    # Compression gates: the one-decompression-per-container cost must stay
    # amortised (compressed batched restore within 10% of uncompressed on the
    # same payload), and the codec must actually shrink the spill files.
    restore_plain = results["restore_compressed"]["batched-uncompressed"]
    restore_packed = results["restore_compressed"][f"batched-{codec}"]
    assert restore_packed >= restore_plain * 0.9, (
        f"compressed batched restore regressed: {restore_packed} MB/s vs "
        f"uncompressed {restore_plain} MB/s (< 0.9x, codec={codec})"
    )
    assert spill_bytes["stored"] <= spill_bytes["raw"] * 0.8, (
        f"compressed spill files too large: {spill_bytes['stored']} bytes "
        f"stored vs {spill_bytes['raw']} raw (> 0.8x, codec={codec})"
    )

    # Parallel gates.  The shm process front end escapes the GIL, so on the
    # >= 4 core CI runners the 4-lane row must at least double the 1-lane
    # row, and where the scan is GIL-free (the compiled kernel) thread lanes
    # keep their historical 1.5x.  Both stay as they were on >= 4 cores
    # until a run there says otherwise -- the only post-kernel measurements
    # are from a 2-core host, where behind the kernel neither executor
    # scales any more (the serial front end is no longer the bottleneck and
    # lane hand-off is pure overhead: workers=4 vs workers=1 measured 0.24x
    # shm, 0.83x thread at smoke scale; 0.38x / 0.95x at full scale).  A red
    # gate on a >= 4-core runner is therefore ROADMAP item 4's answer, not
    # noise: record the rows printed below there.  On 2-3 cores the reduced
    # 1.2x shm gate applies where it still can hold -- over the GIL-bound
    # pure scan (no compiler; CI pins that leg with a cold cache and a
    # failing ``CC``) -- and behind the kernel the rows are recorded only.
    # A single-core host records every row and skips.
    cpu_count = os.cpu_count() or 1
    compiled = kernel_status()[0]
    parallel_one = results["parallel_end_to_end"]["workers-1"]
    parallel_four = results["parallel_end_to_end"]["workers-4"]
    print(
        f"parallel rows ({'compiled' if compiled else 'pure'} scan, {cpu_count} cores): "
        f"shm {parallel_one['mb_per_s']} -> {parallel_four['mb_per_s']} MB/s, "
        f"thread {parallel_one['thread_mb_per_s']} -> {parallel_four['thread_mb_per_s']} MB/s "
        "(workers=1 -> workers=4)"
    )
    if cpu_count >= 4 or (cpu_count >= 2 and not compiled):
        process_gate = PARALLEL_PROCESS_SCALE_GATE if cpu_count >= 4 else 1.2
        assert parallel_four["mb_per_s"] >= parallel_one["mb_per_s"] * process_gate, (
            f"shm-lane ingest failed to scale: workers=4 at "
            f"{parallel_four['mb_per_s']} MB/s vs workers=1 at "
            f"{parallel_one['mb_per_s']} MB/s (< {process_gate}x on "
            f"{cpu_count} cores, {'compiled' if compiled else 'pure'} scan)"
        )
        if compiled and cpu_count >= 4:
            assert (
                parallel_four["thread_mb_per_s"] >= parallel_one["thread_mb_per_s"] * 1.5
            ), (
                f"thread-lane ingest failed to scale: workers=4 at "
                f"{parallel_four['thread_mb_per_s']} MB/s vs workers=1 at "
                f"{parallel_one['thread_mb_per_s']} MB/s (< 1.5x on "
                f"{cpu_count} cores)"
            )
    elif cpu_count >= 2:
        print(
            f"[parallel gates not applied: compiled scan on {cpu_count} cores, "
            "where lanes were measured not to scale; rows recorded]"
        )
    else:
        print(
            f"[parallel gates skipped: {cpu_count} core(s) available, worker "
            "lanes cannot scale here]"
        )

    # Transport gates: node worker processes escape the GIL, so on the >= 4
    # core CI runners 4 workers must ingest >= 1.5x the 1-worker rate; on
    # 2-3 cores adding workers must at least not *lose* throughput (the
    # non-regression contract -- the seed's per-connection dispatch walked
    # c+N+c sequential round-trips per super-chunk, so 4 workers ran slower
    # than 1 until the batched routing probe collapsed that to one pipelined
    # burst).  A single-core host records the rows (flagged gil_bound) and
    # skips -- four processes multiplexed onto one core cannot scale.
    transport_one = results["transport_end_to_end"]["workers-1"]["mb_per_s"]
    transport_four = results["transport_end_to_end"]["workers-4"]["mb_per_s"]
    if cpu_count >= 4:
        assert transport_four >= transport_one * TRANSPORT_SCALE_GATE, (
            f"process-transport ingest failed to scale: workers=4 at "
            f"{transport_four} MB/s vs workers=1 at {transport_one} MB/s "
            f"(< {TRANSPORT_SCALE_GATE}x on {cpu_count} cores)"
        )
    elif cpu_count >= 2:
        assert transport_four >= transport_one, (
            f"process-transport ingest regressed with workers: workers=4 at "
            f"{transport_four} MB/s vs workers=1 at {transport_one} MB/s "
            f"(more node workers must never ingest slower)"
        )
    else:
        print(
            f"[transport gates skipped: {cpu_count} core(s) available, worker "
            "processes cannot scale here]"
        )

    return {
        "schema": "bench-ingest-v8",
        "generated_by": "benchmarks/bench_ingest_throughput.py",
        "config": {
            "scale": scale,
            "data_bytes": total_bytes,
            "files": NUM_FILES,
            "average_chunk_size": AVERAGE_CHUNK_SIZE,
            "superchunk_size": SUPERCHUNK_SIZE,
            "num_nodes": NUM_NODES,
            "routing": "sigma",
            "fingerprint_algorithm": "sha1",
            "node_path_generations": 2,
            "node_path_repeats": NODE_PATH_REPEATS,
            "chunk_repeats": {
                "gear-pure": CHUNK_REPEATS_PURE,
                "gear-accel": CHUNK_REPEATS_ACCEL[scale],
            },
            "parallel_workers": list(PARALLEL_WORKERS),
            "parallel_repeats": PARALLEL_REPEATS,
            "parallel_executor": "process",
            "pipeline_depth": DEFAULT_PIPELINE_DEPTH,
            "stage_repeats": STAGE_REPEATS,
            "transport_workers": list(TRANSPORT_WORKERS),
            "transport_repeats": TRANSPORT_REPEATS,
            "wire_train_frames": WIRE_TRAIN_FRAMES,
            "wire_frame_bytes": WIRE_FRAME_BYTES,
            "wire_plane_kept": "sendmsg",
            "restore_container_capacity": RESTORE_CONTAINER_CAPACITY,
            "restore_repeats": RESTORE_REPEATS,
            "recovery_replication_factor": RECOVERY_REPLICATION_FACTOR,
            "compression_codec": codec,
            "compression_data_bytes": total_bytes // 2,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "gear_kernel": kernel_status()[0],
        },
        "results_mb_per_s": results,
        "stage_breakdown": stage_breakdown,
        "spill_bytes": spill_bytes,
        "recovery_stats": recovery_stats,
    }


def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smaller payload for CI smoke checks (3 MB instead of 16 MB)",
    )
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="print results without rewriting BENCH_ingest.json",
    )
    args = parser.parse_args(argv)
    document = run("smoke" if args.smoke else "full")

    results = document["results_mb_per_s"]
    print(f"ingest throughput (MB/s), {document['config']['data_bytes']} bytes:")
    for stage, by_backend in results.items():
        columns = ""
        for name, value in by_backend.items():
            if isinstance(value, dict):
                rate = value["mb_per_s"]
                flag = "*" if value.get("gil_bound") else ""
                columns += f"  {name}={rate}{flag}"
            else:
                columns += f"  {name}={value}"
        print(f"{stage:<20}{columns}")
    print("(* = gil_bound row: front end cannot scale on this host)")
    breakdown = document.get("stage_breakdown")
    if breakdown:
        shares = "  ".join(
            f"{stage}={entry['share'] * 100:.1f}%"
            for stage, entry in breakdown["stages"].items()
        )
        print(
            f"stage breakdown:    {shares}  "
            f"(front end {breakdown['front_end_share'] * 100:.1f}%)"
        )
    spill = document["spill_bytes"]
    print(
        f"spill bytes ({spill['codec']}): raw={spill['raw']} "
        f"stored={spill['stored']} ratio={spill['ratio']}"
    )
    recovery = document["recovery_stats"]
    print(
        f"recovery (factor={recovery['replication_factor']}): "
        f"{recovery['recovered_containers']} containers replayed, "
        f"{recovery['failover_reads']} failover reads served"
    )
    if not kernel_status()[0]:
        print(f"(gear kernel unavailable, accelerated backend skipped: {kernel_status()[1]})")

    if not args.no_write:
        RESULT_PATH.write_text(json.dumps(document, indent=2) + "\n")
        print(f"[saved to {RESULT_PATH}]")
    print("ok: ingest throughput within asserted bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
