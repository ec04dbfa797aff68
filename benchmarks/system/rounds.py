"""The four workloads: what one round does, and the loop that repeats it.

A round drives the system only through its public API (``SigmaDedupe``,
``DedupeCluster``), times each phase from outside, verifies every restored
byte against the SHA-256 taken in set-up, and returns one sample per metric.
The measuring loop runs one discarded warm-up round, then rounds of identical
work until the time budget is spent, and returns every round's samples.
"""

from __future__ import annotations

import gc
import glob
import hashlib
import multiprocessing
import os
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import inputs
from spans import LAYERS, RoundTrace, Tracer, percentile

from repro import SigmaDedupe
from repro.cluster.cluster import DedupeCluster
from repro.core.partitioner import StreamPartitioner
from repro.metrics.dedup import normalized_effective_deduplication_ratio
from repro.parallel.engine import ParallelIngestEngine
from repro.parallel.shm import ENV_TEARDOWN_TOKEN, SEGMENT_PREFIX, segment_tag
from repro.utils.stats import mean, population_stddev

MB = 1 << 20
GB = 1 << 30
MIN_ROUNDS = 3
#: Restore passes per round where one pass lasts tens of milliseconds: more
#: passes make a steadier sample.  ``generations_spill`` restores once, so
#: its cold (decompressing) reads are not diluted by cached ones.
RESTORE_PASSES = 4
LANES = min(2, os.cpu_count() or 1)
REPLAY_NODES = 32


def cpu_seconds() -> float:
    """User + system CPU of this process and of every child reaped so far."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


class Round:
    """One round's samples: per-phase wall and CPU, byte counts, operation
    tally and the counters the per-layer metrics are built from."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.wall: Dict[str, float] = {}
        self.cpu: Dict[str, float] = {}
        self.bytes: Dict[str, int] = {}
        self.shape: Dict[str, float] = {}
        self.counters: Dict[str, float] = {}
        self.attempted = 0
        self.failures: List[str] = []

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time one phase; the span opens outside the timed region so its
        bookkeeping is not charged to the system."""
        with self.tracer.span("bench." + name):
            cpu = cpu_seconds()
            started = time.perf_counter()
            try:
                yield
            finally:
                self.wall[name] = self.wall.get(name, 0.0) + time.perf_counter() - started
                self.cpu[name] = self.cpu.get(name, 0.0) + cpu_seconds() - cpu

    def add_bytes(self, name: str, count: int) -> None:
        self.bytes[name] = self.bytes.get(name, 0) + count

    def check(self, ok: bool, what: str) -> None:
        """Tally one operation; a false ``ok`` is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def verify(self, parts: Sequence[bytes], expected_sha256: str, what: str) -> int:
        """Stream restored payloads through SHA-256 (outside any timed phase)."""
        with self.tracer.span("workloads.verify"):
            digest = hashlib.sha256()
            size = 0
            for part in parts:
                digest.update(part)
                size += len(part)
        self.check(digest.hexdigest() == expected_sha256, f"restore mismatch: {what}")
        return size


class Context:
    """What every round of one run shares: inputs, scratch space, tracer."""

    def __init__(self, workload: str, directory: str, work: str, tracer: Tracer):
        self.workload = workload
        self.directory = directory
        self.work = work
        self.tracer = tracer
        self.manifest = inputs.load_manifest(directory)
        self.exact_ratio = float(self.manifest["single_node_dedup_ratio"])
        # Directories other runs left in a shared temp dir are not this run's leaks.
        self.foreign_temp = set(glob.glob(os.path.join(tempfile.gettempdir(), "repro-*")))
        #: node_plane_replay only: the pre-partitioned super-chunks, one
        #: list per generation.
        self.generations: List[List[Any]] = []
        self.load_s = 0.0
        if workload == "node_plane_replay":
            started = time.perf_counter()
            self.generations = inputs.load_superchunks(directory)
            self.load_s = time.perf_counter() - started

    def streams(self, session: Dict[str, Any]) -> Iterator[Tuple[str, Iterator[bytes]]]:
        """``(path, 1 MiB block stream)`` pairs of one session's files."""
        for entry in session["files"]:
            blocks = inputs.read_blocks(os.path.join(self.directory, entry["file"]))
            yield entry["path"], self.tracer.iterate("workloads.read", blocks)


def framework(**kwargs: Any) -> SigmaDedupe:
    return SigmaDedupe(
        routing="sigma",
        chunker=inputs.make_chunker(),
        superchunk_size=inputs.SUPERCHUNK_SIZE,
        **kwargs,
    )


def node_describes(cluster: Any) -> List[Dict[str, float]]:
    remote = getattr(cluster, "node_describes", None)
    if remote is not None:
        return list(remote())
    return [node.describe() for node in cluster.nodes]


def tree_bytes(root: str) -> int:
    total = 0
    for directory, _subdirs, names in os.walk(root):
        total += sum(os.path.getsize(os.path.join(directory, name)) for name in names)
    return total


def record_shape(
    rnd: Round, ctx: Context, cluster: Any, stored_bytes: Optional[int] = None
) -> None:
    """Exact-count metrics and node counters, read once ingest is complete."""
    describes = node_describes(cluster)
    logical = sum(int(entry["logical_bytes"]) for entry in describes)
    physical = sum(int(entry["physical_bytes"]) for entry in describes)
    usages = [int(entry["stored_bytes"]) for entry in describes]
    dedup = logical / physical
    rnd.shape.update({
        "dedup_ratio": dedup,
        "nedr": normalized_effective_deduplication_ratio(dedup, ctx.exact_ratio, usages),
        "storage_skew": 1.0 + population_stddev(usages) / mean(usages),
        "lookup_msgs_per_chunk": cluster.messages.total / rnd.bytes["chunks"],
        "stored_bytes_per_logical_byte":
            (physical if stored_bytes is None else stored_bytes) / logical,
    })

    def total(key: str) -> float:
        return float(sum(entry.get(key, 0) for entry in describes))

    lookups = total("cache_hits") + total("cache_misses")
    rnd.counters.update({
        "logical_bytes": logical,
        "physical_bytes": physical,
        "stored_bytes": physical if stored_bytes is None else stored_bytes,
        "resemblance_queries": total("resemblance_queries"),
        "pre_routing_msgs": cluster.messages.pre_routing,
        "cache_hit_rate": total("cache_hits") / lookups if lookups else 0.0,
        "disk_index_lookups": total("disk_index_lookups"),
        "disk_index_hit_rate":
            total("disk_index_hits") / total("disk_index_lookups")
            if total("disk_index_lookups") else 0.0,
        "container_prefetches": total("container_prefetches"),
        "intra_lookup_msgs": total("intra_node_lookup_messages"),
        "containers_sealed": total("containers"),
        "wire_msgs": cluster.messages.total_wire_messages,
        "wire_bytes": cluster.messages.total_wire_bytes,
    })


def local_storage_counters(rnd: Round, cluster: Any) -> None:
    """Counters only an in-process node exposes (worker internals are opaque)."""
    loads = 0
    resident = 0
    for node in cluster.nodes:
        loads += getattr(node.container_backend, "spill_loads", 0)
        replica_store = node.replica_store
        if replica_store is not None and replica_store.backend is not None:
            loads += replica_store.backend.spill_loads
        resident += node.container_store.resident_payload_bytes
    rnd.counters["container_loads"] = rnd.counters.get("container_loads", 0) + loads
    rnd.counters["resident_payload_bytes"] = max(
        rnd.counters.get("resident_payload_bytes", 0), resident
    )


def ingest_session(rnd: Round, ctx: Context, fw: SigmaDedupe, session: Dict[str, Any]) -> str:
    with rnd.phase("ingest"):
        report = fw.backup(ctx.streams(session), session_label=session["label"])
    expected = sum(entry["size"] for entry in session["files"])
    rnd.check(report.logical_bytes == expected, f"short ingest: {session['label']}")
    rnd.add_bytes("logical", report.logical_bytes)
    rnd.add_bytes("chunks", report.unique_chunks + report.duplicate_chunks)
    return report.session_id


def restore_session(
    rnd: Round, fw: SigmaDedupe, session_id: str, session: Dict[str, Any], phase: str
) -> None:
    for entry in session["files"]:
        with rnd.phase(phase):
            parts = list(fw.iter_restore_file(session_id, entry["path"]))
        rnd.add_bytes(phase, rnd.verify(parts, entry["sha256"], entry["path"]))


def restore_newest_first(
    rnd: Round, fw: SigmaDedupe, session_ids: List[str], sessions: List[Dict[str, Any]]
) -> None:
    """Every session, newest first: the common restore, and the one that
    reads containers written by every earlier generation."""
    for session_id, session in zip(reversed(session_ids), reversed(sessions)):
        restore_session(rnd, fw, session_id, session, "restore")


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------


def round_fresh_full(rnd: Round, ctx: Context) -> None:
    """First full backup of unique data through the serial in-process path."""
    session = ctx.manifest["sessions"][0]
    with rnd.phase("construct"):
        fw = framework(num_nodes=4)
    session_id = ingest_session(rnd, ctx, fw, session)
    record_shape(rnd, ctx, fw.cluster)
    local_storage_counters(rnd, fw.cluster)
    for _ in range(RESTORE_PASSES):
        restore_session(rnd, fw, session_id, session, "restore")
    with rnd.phase("close"):
        fw.close()


def round_generations_spill(rnd: Round, ctx: Context) -> None:
    """Six incremental generations on the durable path, then crash recovery
    and a restore with a node down."""
    sessions = ctx.manifest["sessions"]
    storage_dir = tempfile.mkdtemp(prefix="spill-", dir=ctx.work)
    settings = dict(
        num_nodes=4, storage_dir=storage_dir,
        container_compression="zlib", replication_factor=2,
    )
    with rnd.phase("construct"):
        fw = framework(**settings)
    session_ids = [ingest_session(rnd, ctx, fw, session) for session in sessions]
    restore_newest_first(rnd, fw, session_ids, sessions)
    local_storage_counters(rnd, fw.cluster)
    with rnd.phase("close"):
        exports = [fw.director.export_session(sid) for sid in session_ids]
        fw.close()
    record_shape(rnd, ctx, fw.cluster, stored_bytes=tree_bytes(storage_dir))

    with rnd.phase("recover"):
        fw = framework(**settings)
        recoveries = fw.recover_storage()
        for export in exports:
            fw.director.import_session(export)
    recovered = sum(len(recovery.containers) for recovery in recoveries)
    rnd.add_bytes("recovered", sum(recovery.recovered_bytes for recovery in recoveries))
    rnd.counters["recovered_containers"] = recovered
    rnd.check(
        recovered == rnd.counters["containers_sealed"]
        and all(fw.director.get_session(sid).file_count == len(session["files"])
                for sid, session in zip(session_ids, sessions)),
        "recovery lost a committed session",
    )
    fw.cluster.mark_node_down(0)
    for index in (0, -1):
        restore_session(rnd, fw, session_ids[index], sessions[index], "failover_restore")
    rnd.counters["failover_reads"] = fw.describe().get("failover_reads", 0)
    local_storage_counters(rnd, fw.cluster)
    with rnd.phase("close"):
        fw.close()
    shutil.rmtree(storage_dir)
    audit_teardown(rnd, ctx)


def round_node_plane_replay(rnd: Round, ctx: Context) -> None:
    """Replay pre-partitioned super-chunks straight into a 32-node cluster."""
    with rnd.phase("construct"):
        cluster = DedupeCluster(num_nodes=REPLAY_NODES)
    # Per generation: where each super-chunk went, as the read requests a
    # file recipe would hold.
    recipes: List[List[Tuple[int, List[Tuple[bytes, Optional[int]]]]]] = []
    for batch in ctx.generations:
        placed = []
        with rnd.phase("ingest"):
            for superchunk in batch:
                decision = cluster.route_superchunk(superchunk)
                result = cluster.backup_superchunk(superchunk, decision)
                placed.append((superchunk, decision.target_node, result.chunk_locations))
            cluster.flush()
        with ctx.tracer.span("workloads.plan"):
            recipes.append([
                (node_id, [(chunk.fingerprint, locations[chunk.fingerprint])
                           for chunk in superchunk.chunks])
                for superchunk, node_id, locations in placed
            ])
    rnd.add_bytes("logical", ctx.manifest["logical_bytes"])
    rnd.add_bytes("chunks", ctx.manifest["chunks"])
    record_shape(rnd, ctx, cluster)
    rnd.check(rnd.counters["logical_bytes"] == ctx.manifest["logical_bytes"], "short ingest")
    local_storage_counters(rnd, cluster)
    for _ in range(RESTORE_PASSES):
        for recipe, session in zip(recipes, ctx.manifest["sessions"]):
            parts: List[bytes] = []
            with rnd.phase("restore"):
                for node_id, requests in recipe:
                    parts.extend(cluster.read_chunks(node_id, requests))
            rnd.add_bytes("restore", rnd.verify(parts, session["sha256"], session["label"]))
    with rnd.phase("close"):
        cluster.close()


def round_process_planes(rnd: Round, ctx: Context) -> None:
    """The same front end and node core, reached through shm lanes and RPC."""
    sessions = ctx.manifest["sessions"]
    with rnd.phase("construct"):
        fw = framework(
            num_nodes=2, workers=LANES, parallel_executor="process",
            transport="process", pipeline_depth=4,
        )
    session_ids = [ingest_session(rnd, ctx, fw, session) for session in sessions]
    for _ in range(RESTORE_PASSES // 2):
        restore_newest_first(rnd, fw, session_ids, sessions)
    record_shape(rnd, ctx, fw.cluster)
    with rnd.phase("close"):
        fw.close()
    audit_teardown(rnd, ctx)


ROUNDS: Dict[str, Callable[[Round, Context], None]] = {
    "fresh_full": round_fresh_full,
    "generations_spill": round_generations_spill,
    "node_plane_replay": round_node_plane_replay,
    "process_planes": round_process_planes,
}


def audit_teardown(rnd: Round, ctx: Context) -> None:
    """After ``close()``: no child process, no tagged shm segment, no temp
    or runtime directory may survive.  Each leak is a failed operation."""
    children = multiprocessing.active_children()
    rnd.check(not children, f"surviving children: {[child.name for child in children]}")
    pattern = f"/dev/shm/{SEGMENT_PREFIX}-{segment_tag()}-*"
    rnd.check(not glob.glob(pattern), f"leaked shm segments: {pattern}")
    leftovers = sorted(
        set(glob.glob(os.path.join(tempfile.gettempdir(), "repro-*"))) - ctx.foreign_temp
    ) + glob.glob(os.path.join(ctx.work, "spill-*"))
    rnd.check(not leftovers, f"leaked directories: {leftovers}")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(rnd: Round) -> Dict[str, float]:
    logical = rnd.bytes["logical"]
    sample = {
        "ingest_mb_s": logical / MB / rnd.wall["ingest"],
        "restore_mb_s": rnd.bytes["restore"] / MB / rnd.wall["restore"],
        "cpu_s_per_gb": sum(rnd.cpu.values()) / (logical / GB),
        "round_s": sum(rnd.wall.values()),
    }
    sample.update(rnd.shape)
    return sample


def per_layer(rnd: Round, trace: RoundTrace) -> Dict[str, float]:
    """One traced round's layer metrics (seconds are self time)."""
    own, calls, counters = trace.self_s, trace.calls, rnd.counters
    logical = rnd.bytes["logical"]
    restored_mb = (rnd.bytes["restore"] + rnd.bytes.get("failover_restore", 0)) / MB

    def rate(byte_count: float, seconds: float) -> float:
        return byte_count / MB / seconds if seconds > 0 else 0.0

    # Where the parent does no chunking (replay; process lanes) the front-end
    # seconds are zero and so are the rates.
    chunking_s = own["chunking.scan"] + own["chunking.stream"]
    front_end_bytes = logical if chunking_s > 0 else 0
    metrics = {
        "workloads.read_s": own["workloads.read"],
        "workloads.verify_s": own["workloads.verify"],
        "workloads.plan_s": own["workloads.plan"],
        "chunking.scan_s": own["chunking.scan"],
        "chunking.stream_s": own["chunking.stream"],
        "chunking.bytes": front_end_bytes,
        "chunking.chunks": rnd.bytes["chunks"] if chunking_s > 0 else 0,
        "chunking.mb_s": rate(front_end_bytes, chunking_s),
        "fingerprint.digest_s": own["fingerprint.digest"],
        "fingerprint.records": rnd.bytes["chunks"] if own["fingerprint.digest"] > 0 else 0,
        "fingerprint.mb_s": rate(front_end_bytes, own["fingerprint.digest"]),
        "core.group_s": own["core.group"],
        "core.superchunks": calls["routing.route"] if own["core.group"] > 0 else 0,
        "parallel.partition_wait_s": own["parallel.partition_wait"],
        "routing.route_s": own["routing.route"],
        "routing.calls": calls["routing.route"],
        "routing.route_p50_ms": percentile(trace.durations_ms["routing.route"], 0.50),
        "routing.route_p99_ms": percentile(trace.durations_ms["routing.route"], 0.99),
        "routing.resemblance_queries": counters["resemblance_queries"],
        "routing.pre_routing_msgs": counters["pre_routing_msgs"],
        "node.store_s": own["node.store"],
        "node.store_p50_ms": percentile(trace.durations_ms["node.store"], 0.50),
        "node.store_p99_ms": percentile(trace.durations_ms["node.store"], 0.99),
        "node.cache_hit_rate": counters["cache_hit_rate"],
        "node.disk_index_lookups": counters["disk_index_lookups"],
        "node.disk_index_hit_rate": counters["disk_index_hit_rate"],
        "node.container_prefetches": counters["container_prefetches"],
        "node.intra_lookup_msgs": counters["intra_lookup_msgs"],
        "node.read_s": own["node.read"],
        "node.recover_s": own["node.recover"],
        "storage.append_s": own["storage.append"],
        "storage.seal_write_s": own["storage.seal_write"],
        "storage.containers_sealed": counters["containers_sealed"],
        "storage.bytes_written": counters["stored_bytes"],
        "storage.write_amplification": counters["stored_bytes"] / counters["physical_bytes"],
        "storage.load_s": own["storage.load"],
        "storage.container_loads": counters.get("container_loads", 0),
        "storage.loads_per_restored_mb": counters.get("container_loads", 0) / restored_mb,
        "storage.journal_replay_s": own["storage.journal_replay"],
        "storage.recovered_containers": counters.get("recovered_containers", 0),
        "storage.recovery_mb_s": rate(rnd.bytes.get("recovered", 0), rnd.wall.get("recover", 0.0)),
        "storage.resident_payload_mb": counters.get("resident_payload_bytes", 0) / MB,
        "cluster.client_s": own["cluster.client"],
        "cluster.director_s": own["cluster.director"],
        "cluster.flush_s": own["cluster.flush"] + own["node.flush"],
        "cluster.restore_s": own["cluster.restore"] + own["cluster.read"],
        "cluster.replication_sync_s": own["cluster.replication_sync"],
        "cluster.failover_reads": counters.get("failover_reads", 0),
        "cluster.failover_restore_mb_s": rate(
            rnd.bytes.get("failover_restore", 0), rnd.wall.get("failover_restore", 0.0)
        ),
        "transport.spawn_s": own["transport.spawn"],
        "transport.route_probe_s": own["transport.route_probe"],
        "transport.send_s": own["transport.send"],
        "transport.settle_wait_s": own["transport.settle_wait"],
        "transport.read_s": own["transport.read"],
        "transport.close_s": own["transport.close"],
        "transport.wire_msgs": counters["wire_msgs"],
        "transport.wire_bytes": counters["wire_bytes"],
        "transport.wire_bytes_per_logical_byte": counters["wire_bytes"] / logical,
        "transport.children_cpu_s": counters["children_cpu_s"],
        "trace.wall_s": trace.wall_s,
        "trace.coverage": trace.coverage(),
        "trace.spans": trace.span_count,
        "trace.ingest_front_end_share": trace.phase_share("ingest", ("chunking", "fingerprint")),
        "trace.ingest_node_plane_share": trace.phase_share("ingest", ("routing", "node", "storage")),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = trace.layer_self_s(layer)
    return metrics


def partition_rates(ctx: Context) -> Dict[str, float]:
    """The front end alone over the first session's files, three ways:
    serial, thread lanes, shm process lanes (MB/s, untraced, one pass each)."""
    session = ctx.manifest["sessions"][0]
    size = sum(entry["size"] for entry in session["files"])
    config = inputs.partitioner_config()
    candidates = {
        "parallel.serial_mb_s":
            lambda: StreamPartitioner(config).partition_files(ctx.streams(session)),
        "parallel.thread_lanes_mb_s":
            lambda: ParallelIngestEngine(workers=LANES, executor="thread")
            .partition_files(config, ctx.streams(session)),
        "parallel.shm_lanes_mb_s":
            lambda: ParallelIngestEngine(workers=LANES, executor="process")
            .partition_files(config, ctx.streams(session)),
    }
    rates = {}
    for name, partition in candidates.items():
        started = time.perf_counter()
        for _pair in partition():
            pass
        rates[name] = size / MB / (time.perf_counter() - started)
    return rates


def calibrate() -> float:
    """Seconds for a fixed amount of the two kernels the front end leans on
    (a NumPy table gather and SHA-1), to tell host drift from regression.
    The fastest of five passes: interference only ever adds time."""
    import numpy

    table = numpy.arange(256, dtype=numpy.uint64) * numpy.uint64(0x9E3779B97F4A7C15)
    buffer = bytes(range(256)) * (4 * MB // 256)
    indices = numpy.frombuffer(buffer, dtype=numpy.uint8)
    passes = []
    for _ in range(5):
        started = time.perf_counter()
        for _ in range(3):
            table[indices].sum()
            hashlib.sha1(buffer).digest()
        passes.append(time.perf_counter() - started)
    return min(passes)


def run_round(ctx: Context, traced: bool) -> Tuple[Round, Optional[RoundTrace]]:
    tracer = ctx.tracer
    rnd = Round(tracer)
    gc.collect()
    children_cpu = resource.getrusage(resource.RUSAGE_CHILDREN)
    if traced:
        tracer.reset()
        tracer.install()
    try:
        with tracer.span("bench.round"):
            ROUNDS[ctx.workload](rnd, ctx)
    finally:
        if traced:
            tracer.uninstall()
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    rnd.counters["children_cpu_s"] = (
        reaped.ru_utime + reaped.ru_stime - children_cpu.ru_utime - children_cpu.ru_stime
    )
    return rnd, RoundTrace(tracer) if traced else None


def measure(
    workload: str, directory: str, work: str, seconds: float, trace: bool, trace_path: str
) -> Dict[str, Any]:
    """Run ``workload`` for ``seconds`` and return every round's samples."""
    os.environ.setdefault(ENV_TEARDOWN_TOKEN, f"sysbench-{os.getpid()}")
    tracer = Tracer()
    ctx = Context(workload, directory, work, tracer)
    calibration = [calibrate()] if trace else []
    attempted = 0
    failures: List[str] = []
    shapes: List[Dict[str, float]] = []
    samples: Dict[str, List[float]] = {}
    layer_samples: Dict[str, List[float]] = {}

    def account(rnd: Round) -> None:
        nonlocal attempted
        attempted += rnd.attempted
        failures.extend(rnd.failures)
        shapes.append(dict(rnd.shape))

    warm_up, _ = run_round(ctx, traced=False)
    account(warm_up)
    started = time.perf_counter()
    untraced_budget = seconds / 3 if trace else seconds
    round_id = 0
    while round_id < MIN_ROUNDS or time.perf_counter() - started < untraced_budget:
        round_id += 1
        rnd, _ = run_round(ctx, traced=False)
        account(rnd)
        for name, value in end_to_end(rnd).items():
            samples.setdefault(name, []).append(value)
    traced_rounds = 0
    while trace and (traced_rounds < MIN_ROUNDS or time.perf_counter() - started < seconds):
        round_id += 1
        traced_rounds += 1
        rnd, round_trace = run_round(ctx, traced=True)
        account(rnd)
        metrics = per_layer(rnd, round_trace)
        metrics["trace.overhead_ratio"] = (
            sum(rnd.wall.values()) / statistics.median(samples["round_s"])
        )
        metrics["trace.negative_self_spans"] = round_trace.negative_self
        for name, value in metrics.items():
            layer_samples.setdefault(name, []).append(value)
    # Exact-count metrics depend on the inputs alone: any round that
    # disagrees with the first is a failed operation.
    attempted += 1
    if any(shape != shapes[0] for shape in shapes):
        failures.append("exact-count metrics differ between rounds")

    result: Dict[str, Any] = {
        "workload": workload,
        "rounds": round_id,
        "attempted": attempted,
        "failures": failures,
        "load_s": ctx.load_s,
        "samples": layer_samples if trace else samples,
    }
    if trace:
        tracer.write_jsonl(trace_path, round_id)
        layer_samples["trace.unresolved_targets"] = [tracer.unresolved]
        rates = partition_rates(ctx) if workload == "process_planes" else {}
        for name in ("parallel.serial_mb_s", "parallel.thread_lanes_mb_s", "parallel.shm_lanes_mb_s"):
            layer_samples[name] = [rates.get(name, 0.0)]
        calibration.append(calibrate())
        layer_samples["host.calibration_s"] = calibration
        layer_samples["host.calibration_drift"] = [
            abs(calibration[1] - calibration[0]) / min(calibration)
        ]
    else:
        own = resource.getrusage(resource.RUSAGE_SELF)
        reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
        samples["peak_rss_mb"] = [(own.ru_maxrss + reaped.ru_maxrss) / 1024]
    return result
