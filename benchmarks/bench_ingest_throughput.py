"""Ingest and restore regression gates: workload -> chunk -> fingerprint -> route -> store.

Not a paper figure, and it records nothing: the measuring stick for ingest
and restore is ``benchmarks/system/`` (``BENCHMARK.json``).  This script
keeps only the CI gates that benchmark does not carry yet, each over one
synthetic payload in MB/s:

* where the compiled gear kernel is live (``kernel_status()``), its boundary
  scan (``Chunker.cut_offsets``) is >= 30x the pure-Python scan, and
  accelerated end-to-end ingest (``SigmaDedupe.backup``) is >= 8x the pure
  end-to-end rate;
* over a compressible two-generation spill session whose later recipes
  interleave containers, zlib batched restore is >= 0.9x the uncompressed
  batched restore, and the zlib spill files hold <= 0.8x the raw bytes;
* recovery (asserted as it is measured, before the gates above): a
  replicated spill tree reopened cold (``recover_storage``) replays
  containers and no debris, its session restores byte-identical with every
  node up and with a data-holding node down, and the down leg serves replica
  reads at >= 0.25x the healthy rate;
* lanes (``SigmaDedupe(workers=N, parallel_executor=...)``): on >= 4 cores
  shm-lane ingest with workers=4 is >= 2x workers=1 and, where the scan is
  the GIL-free compiled kernel, thread-lane ingest >= 1.5x; on 2-3 cores shm
  lanes hold >= 1.2x over the pure scan only (behind the kernel lanes were
  measured not to scale there);
* process transport (``SigmaDedupe(transport="process")``): 4 node worker
  processes ingest >= 1.5x one worker on >= 4 cores, and no slower on 2-3
  cores.

A single-core host skips the lane and transport gates.  The lane rows are
printed before their gates, so a red >= 4-core run still shows them (the
executor verdict, ROADMAP item 5(a), reads such rows).  The chunk rows are
best-of-N (single runs swing 10-15% on shared hosts).

Run directly::

    PYTHONPATH=src python benchmarks/bench_ingest_throughput.py           # 16 MB
    PYTHONPATH=src python benchmarks/bench_ingest_throughput.py --smoke   # 3 MB, CI
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.chunking.accel import AcceleratedGearChunker, kernel_status
from repro.chunking.base import Chunker
from repro.chunking.gear import GearChunker
from repro.cluster.restore import RestoreManager
from repro.core.framework import SigmaDedupe
from repro.node.dedupe_node import NodeConfig
from repro.workloads.synthetic import SyntheticDataGenerator

AVERAGE_CHUNK_SIZE = 4096
SUPERCHUNK_SIZE = 256 * 1024
NUM_NODES = 4
NUM_FILES = 4
# Chunk rows are best-of-N, so a single noisy run must not fail the
# build -- single passes swing 10-15% on shared hosts.  Accel passes are
# cheap (~2 ms at smoke scale), so the smoke gate takes many; the pure scan
# is ~200x slower per pass and only feeds ratio gates with wide margins.
CHUNK_REPEATS_ACCEL = {"full": 16, "smoke": 16}
CHUNK_REPEATS_PURE = 3
PARALLEL_WORKERS = (1, 4)
PARALLEL_REPEATS = 3
# The shm process front end must scale harder than the thread lanes: payload
# bytes never cross the lane boundary by pickling, so on a >= 4-core host the
# 4-lane row has to at least double the 1-lane row.
PARALLEL_PROCESS_SCALE_GATE = 2.0
# Transport rows: node worker *processes* (each hosting one DedupeNode), the
# GIL-escape axis.  The 4-worker row must scale like the thread-lane gate.
TRANSPORT_WORKERS = (1, 4)
TRANSPORT_REPEATS = 2
TRANSPORT_SCALE_GATE = 1.5
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
    """The fastest available gear scan."""
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


def measure_end_to_end(
    chunker: Chunker,
    files: List[Tuple[str, bytes]],
    workers: Optional[int] = None,
    parallel_executor: str = "thread",
) -> float:
    framework = SigmaDedupe(
        num_nodes=NUM_NODES,
        routing="sigma",
        chunker=chunker,
        superchunk_size=SUPERCHUNK_SIZE,
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


def measure_transport_end_to_end(files: List[Tuple[str, bytes]], node_workers: int) -> float:
    """Best-of-repeats ingest over the multiprocess node plane.

    ``node_workers`` worker processes each host one node behind the binary
    RPC transport; the backup client runs a bounded in-flight window of
    pipelined stores, so routing of super-chunks k+1..k+K overlaps the store
    of k inside the workers.
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
    storage_dir: str, data: bytes, compression: str
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


def measure_restore(framework: SigmaDedupe, session_id: str, logical: int) -> float:
    """Restore the whole session file by file, best of repeats."""
    best = 0.0
    for _ in range(RESTORE_REPEATS):
        manager = RestoreManager(framework.cluster, framework.director)
        restored_bytes = 0
        start = time.perf_counter()
        for path in framework.director.files_in_session(session_id):
            restored_bytes += len(manager.restore_file(session_id, path))
        elapsed = time.perf_counter() - start
        assert restored_bytes == logical, (restored_bytes, logical)
        best = max(best, _mbps(logical, elapsed))
    return best


def measure_recovery(storage_dir: str, data: bytes) -> None:
    """The durability plane: replay a replicated spill tree cold
    (``recover_storage``: manifest-journal replay, spill verification, index
    rebuild and replica re-mirroring), then restore the recovered session
    with every node up vs with a data-holding node marked down.

    Both restore legs are byte-checked against the original payloads before
    the timed runs; the failover leg must also actually serve replica reads
    and hold :data:`RECOVERY_FAILOVER_GATE` times the healthy rate.
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
    recoveries = revived.recover_storage()
    recovered_containers = sum(len(r.containers) for r in recoveries)
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
        "restore-replicated": round(
            measure_restore(revived, session.session_id, logical), 2
        ),
    }
    revived.cluster.mark_node_down(victim.node_id)
    rows["restore-failover"] = round(
        measure_restore(revived, session.session_id, logical), 2
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


def run(scale: str) -> None:
    total_bytes = DATA_BYTES[scale]
    generator = SyntheticDataGenerator(seed=1307)
    data = generator.unique_bytes(total_bytes)
    file_size = total_bytes // NUM_FILES
    files = [
        (f"ingest/file-{index}.bin", data[index * file_size:(index + 1) * file_size])
        for index in range(NUM_FILES)
    ]

    results: Dict[str, Dict] = {
        "chunk_only": {},
        "end_to_end": {},
    }
    for name, factory in gear_backends():
        repeats = CHUNK_REPEATS_ACCEL[scale] if "accel" in name else CHUNK_REPEATS_PURE
        results["chunk_only"][name] = round(
            measure_chunk_only(factory(), data, repeats=repeats), 2
        )
        results["end_to_end"][name] = round(measure_end_to_end(factory(), files), 2)

    # Parallel ingest: the same session through worker lanes, on the shm
    # process front end (``mb_per_s``: lanes chunk and fingerprint in place
    # over shared-memory slabs, outside the parent's GIL) and on thread lanes.
    results["parallel_end_to_end"] = {
        f"workers-{workers}": {
            "mb_per_s": round(measure_parallel_end_to_end(files, workers, "process"), 2),
            "thread_mb_per_s": round(measure_parallel_end_to_end(files, workers, "thread"), 2),
        }
        for workers in PARALLEL_WORKERS
    }

    # The multiprocess node plane: per-core node workers behind real RPC.
    results["transport_end_to_end"] = {
        f"workers-{workers}": {
            "mb_per_s": round(measure_transport_end_to_end(files, workers), 2),
        }
        for workers in TRANSPORT_WORKERS
    }

    with tempfile.TemporaryDirectory(prefix="bench-ingest-spill-") as spill_dir:
        # Compressed spill: a two-generation session with interleaved recipes
        # over a compressible payload, batched restore on raw vs compressed
        # spill files, plus the raw/stored spill byte totals.
        codec = "zlib"
        compressible = compressible_bytes(generator, total_bytes // 2)
        plain_framework, plain_session, plain_logical = build_restore_session(
            str(Path(spill_dir) / "restore-plain"), compressible, compression="none"
        )
        packed_framework, packed_session, packed_logical = build_restore_session(
            str(Path(spill_dir) / "restore-packed"), compressible, compression=codec
        )
        results["restore_compressed"] = {
            "batched-uncompressed": round(
                measure_restore(plain_framework, plain_session, plain_logical), 2
            ),
            f"batched-{codec}": round(
                measure_restore(packed_framework, packed_session, packed_logical), 2
            ),
        }
        spill_bytes = {
            "raw": sum(
                node.container_backend.spilled_bytes
                for node in packed_framework.cluster.nodes
            ),
            "stored": sum(
                node.container_backend.spilled_bytes_stored
                for node in packed_framework.cluster.nodes
            ),
        }

        # Recovery: cold journal replay of a replicated session, then the
        # healthy vs failover batched restore (gated inside).
        measure_recovery(str(Path(spill_dir) / "recovery"), data)

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
    # shm, 0.83x thread at smoke scale; 0.38x / 0.95x at full scale).  On
    # 2-3 cores the reduced 1.2x shm gate applies where it still can hold --
    # over the GIL-bound pure scan (no compiler; CI pins that leg with a cold
    # cache and a failing ``CC``).  A single-core host skips.
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
            "where lanes were measured not to scale]"
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
    # burst).  A single-core host skips -- four processes multiplexed onto
    # one core cannot scale.
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


def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smaller payload for CI smoke checks (3 MB instead of 16 MB)",
    )
    args = parser.parse_args(argv)
    run("smoke" if args.smoke else "full")
    if not kernel_status()[0]:
        print(f"(gear kernel unavailable, accelerated backend skipped: {kernel_status()[1]})")
    print("ok: ingest throughput within asserted bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
