"""Benchmark-owned tracing: spans around the layers' public callables.

Nothing under ``src/`` knows about this module.  For a traced round the
benchmark replaces the public callables listed in :data:`TARGETS` with
wrappers that record one span per call -- or, for callables that return lazy
iterators, one span per ``__next__`` -- so a generator is charged to the
layer whose code runs, not to the layer that pulls.  Spans nest by call
stack; a span's *self time* is its duration minus its direct children's.

The load generator is one thread, so the span stack is a plain list.  Forked
children (ingest lanes, node workers) inherit the patched classes; an
``os.register_at_fork`` hook switches recording off in them, so what the
parent sees of a child is only the time it spends waiting on it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layers are the repo's packages; ``bench`` is the harness itself (round and
#: phase spans); its self time is what :meth:`RoundTrace.coverage` leaves out.
LAYERS = (
    "workloads", "chunking", "fingerprint", "core", "parallel",
    "routing", "cluster", "transport", "node", "storage",
)

#: ``(module:Class, attribute, kind, span name)``.  ``call`` wraps a function
#: or method; ``iter`` wraps a callable returning an iterator (a span for the
#: call, then one per ``__next__``).  Only public names: a target that a
#: later refactor removes is skipped and counted in ``trace.unresolved_targets``
#: rather than breaking the run.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.chunking.base:Chunker", "chunk_stream", "iter", "chunking.stream"),
    ("repro.chunking.gear:GearChunker", "cut_offsets", "iter", "chunking.scan"),
    ("repro.chunking.accel:AcceleratedGearChunker", "cut_offsets", "iter", "chunking.scan"),
    ("repro.fingerprint.fingerprinter:Fingerprinter", "fingerprint_blocks", "iter", "fingerprint.digest"),
    ("repro.core.partitioner:StreamPartitioner", "partition_file_records", "iter", "core.group"),
    ("repro.core.framework:SigmaDedupe", "__init__", "call", "core.construct"),
    ("repro.parallel.engine:ParallelIngestEngine", "iter_file_records", "iter", "parallel.partition_wait"),
    ("repro.cluster.cluster:DedupeCluster", "route_superchunk", "call", "routing.route"),
    ("repro.transport.cluster:TransportCluster", "route_superchunk", "call", "routing.route"),
    ("repro.cluster.client:BackupClient", "backup_files", "call", "cluster.client"),
    ("repro.cluster.cluster:DedupeCluster", "__init__", "call", "cluster.lifecycle"),
    ("repro.cluster.cluster:DedupeCluster", "close", "call", "cluster.lifecycle"),
    ("repro.cluster.cluster:DedupeCluster", "backup_superchunk", "call", "cluster.backup"),
    ("repro.cluster.cluster:DedupeCluster", "flush", "call", "cluster.flush"),
    ("repro.cluster.cluster:DedupeCluster", "read_chunks", "call", "cluster.read"),
    ("repro.cluster.cluster:DedupeCluster", "recover_storage", "call", "cluster.recover"),
    ("repro.cluster.director:Director", "record_file_chunks", "call", "cluster.director"),
    ("repro.cluster.director:Director", "export_session", "call", "cluster.director"),
    ("repro.cluster.director:Director", "import_session", "call", "cluster.director"),
    ("repro.cluster.restore:RestoreManager", "iter_restore_file", "iter", "cluster.restore"),
    ("repro.cluster.replication:ReplicationManager", "sync_node", "call", "cluster.replication_sync"),
    ("repro.cluster.replication:ReplicationManager", "sync", "call", "cluster.replication_sync"),
    ("repro.cluster.replication:ReplicationManager", "read_chunks_failover", "call", "cluster.failover_read"),
    ("repro.transport.cluster:TransportCluster", "__init__", "call", "transport.spawn"),
    ("repro.transport.cluster:TransportCluster", "routing_probe", "call", "transport.route_probe"),
    ("repro.transport.cluster:TransportCluster", "backup_superchunk_send", "call", "transport.send"),
    ("repro.transport.cluster:PendingBackup", "result", "call", "transport.settle_wait"),
    ("repro.transport.cluster:TransportCluster", "flush", "call", "cluster.flush"),
    ("repro.transport.cluster:TransportCluster", "read_chunks", "call", "transport.read"),
    ("repro.transport.cluster:TransportCluster", "close", "call", "transport.close"),
    ("repro.node.dedupe_node:DedupeNode", "backup_superchunk", "call", "node.store"),
    ("repro.node.dedupe_node:DedupeNode", "read_chunks", "call", "node.read"),
    ("repro.node.dedupe_node:DedupeNode", "flush", "call", "node.flush"),
    ("repro.node.dedupe_node:DedupeNode", "recover_storage", "call", "node.recover"),
    ("repro.storage.container_store:ContainerStore", "store_chunks", "call", "storage.append"),
    ("repro.storage.container_store:ContainerStore", "read_chunks", "call", "storage.load"),
    ("repro.storage.backends:InMemoryBackend", "on_seal", "call", "storage.seal_write"),
    ("repro.storage.backends:FileContainerBackend", "on_seal", "call", "storage.seal_write"),
    ("repro.storage.backends:FileContainerBackend", "replay_journal", "call", "storage.journal_replay"),
)


class Tracer:
    """In-memory span store for one traced round (column lists, not objects:
    a round records ~10^5 spans and each costs two clock reads and five list
    operations)."""

    def __init__(self) -> None:
        self.labels: List[str] = []
        self._label_ids: Dict[str, int] = {}
        self.enabled = [False]  # one-element list: wrappers read it without an attribute lookup
        self._installed: List[Tuple[type, str, Any, bool]] = []
        self.unresolved = 0
        self.reset()
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled[0] = False

    def reset(self) -> None:
        self.names: List[int] = []
        self.parents: List[int] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.stack: List[int] = [-1]

    def label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    # -- recording ---------------------------------------------------------

    def open(self, label_id: int) -> int:
        index = len(self.starts)
        self.names.append(label_id)
        self.parents.append(self.stack[-1])
        self.ends.append(0)
        self.stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self.stack.pop()

    def span(self, label: str) -> "_SpanContext":
        """Context manager for the harness's own round and phase spans."""
        return _SpanContext(self, self.label_id(label))

    def iterate(self, label: str, iterator: Iterator[Any]) -> Iterator[Any]:
        """Charge each ``__next__`` of a harness-owned iterator to ``label``."""
        if not self.enabled[0]:
            return iterator
        return _SpanIterator(self, self.label_id(label), iterator)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Patch every resolvable target; start recording."""
        self.unresolved = 0
        for path, attribute, kind, label in TARGETS:
            owner = _resolve(path)
            original = getattr(owner, attribute, None) if owner is not None else None
            if original is None:
                self.unresolved += 1
                continue
            had_own = attribute in vars(owner)
            wrap = _wrap_iter if kind == "iter" else _wrap_call
            setattr(owner, attribute, wrap(self, self.label_id(label), original))
            self._installed.append((owner, attribute, original, had_own))
        self.enabled[0] = True

    def uninstall(self) -> None:
        self.enabled[0] = False
        for owner, attribute, original, had_own in reversed(self._installed):
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._installed.clear()

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path: str, round_id: int) -> None:
        with open(path, "w") as handle:
            for index, start in enumerate(self.starts):
                label = self.labels[self.names[index]]
                handle.write(json.dumps({
                    "id": index, "name": label, "layer": label.split(".", 1)[0],
                    "start_ns": start, "end_ns": self.ends[index],
                    "parent": self.parents[index], "round": round_id,
                }) + "\n")


class _SpanContext:
    __slots__ = ("_tracer", "_label", "_index")

    def __init__(self, tracer: Tracer, label_id: int):
        self._tracer = tracer
        self._label = label_id
        self._index = -1

    def __enter__(self) -> None:
        if self._tracer.enabled[0]:
            self._index = self._tracer.open(self._label)

    def __exit__(self, *exc: object) -> None:
        if self._index >= 0:
            self._tracer.close(self._index)


class _SpanIterator:
    """Iterator proxy: one span per ``__next__`` (the exhausting call too)."""

    __slots__ = ("_tracer", "_label", "_iterator")

    def __init__(self, tracer: Tracer, label_id: int, iterator: Iterator[Any]):
        self._tracer = tracer
        self._label = label_id
        self._iterator = iterator

    def __iter__(self) -> "_SpanIterator":
        return self

    def __next__(self) -> Any:
        tracer = self._tracer
        if not tracer.enabled[0]:
            return next(self._iterator)
        index = tracer.open(self._label)
        try:
            return next(self._iterator)
        finally:
            tracer.close(index)


def _resolve(path: str) -> Optional[type]:
    module_name, _, class_name = path.partition(":")
    try:
        return getattr(importlib.import_module(module_name), class_name, None)
    except ImportError:
        return None


def _wrap_call(tracer: Tracer, label_id: int, function: Callable[..., Any]) -> Callable[..., Any]:
    enabled = tracer.enabled

    @functools.wraps(function)
    def traced(*args: Any, **kwargs: Any) -> Any:
        if not enabled[0]:
            return function(*args, **kwargs)
        index = tracer.open(label_id)
        try:
            return function(*args, **kwargs)
        finally:
            tracer.close(index)

    return traced


def _wrap_iter(tracer: Tracer, label_id: int, function: Callable[..., Any]) -> Callable[..., Any]:
    enabled = tracer.enabled

    @functools.wraps(function)
    def traced(*args: Any, **kwargs: Any) -> Any:
        if not enabled[0]:
            return function(*args, **kwargs)
        index = tracer.open(label_id)
        try:
            iterator = iter(function(*args, **kwargs))
        finally:
            tracer.close(index)
        return _SpanIterator(tracer, label_id, iterator)

    return traced


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


class RoundTrace:
    """Self-time totals of one traced round, by span name and by phase."""

    def __init__(self, tracer: Tracer):
        count = len(tracer.starts)
        labels = tracer.labels
        duration = [tracer.ends[i] - tracer.starts[i] for i in range(count)]
        own = list(duration)
        for index, parent in enumerate(tracer.parents):
            if parent >= 0:
                own[parent] -= duration[index]
        self.span_count = count
        self.negative_self = sum(1 for value in own if value < 0)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.durations_ms: Dict[str, List[float]] = defaultdict(list)
        #: (phase, layer) -> self seconds, where a span's phase is its
        #: nearest enclosing ``bench.<phase>`` span.
        self.phase_layer_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.phase_wall_s: Dict[str, float] = defaultdict(float)
        self.wall_s = 0.0
        phases: List[str] = [""] * count
        for index in range(count):
            label = labels[tracer.names[index]]
            layer = label.split(".", 1)[0]
            parent = tracer.parents[index]
            if layer == "bench" and label != "bench.round":
                phases[index] = label[len("bench."):]
                self.phase_wall_s[phases[index]] += duration[index] / 1e9
            elif parent >= 0:
                phases[index] = phases[parent]
            if label == "bench.round":
                self.wall_s += duration[index] / 1e9
            seconds = own[index] / 1e9
            self.self_s[label] += seconds
            self.calls[label] += 1
            self.phase_layer_s[(phases[index], layer)] += seconds
            if label in ("routing.route", "node.store"):
                self.durations_ms[label].append(duration[index] / 1e6)

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(value for label, value in self.self_s.items() if label.startswith(prefix))

    def coverage(self) -> float:
        """Share of the round's wall spent inside a layer's span (harness
        glue between spans is the remainder)."""
        if self.wall_s <= 0:
            return 0.0
        return 1.0 - self.layer_self_s("bench") / self.wall_s

    def phase_share(self, phase: str, layers: Tuple[str, ...]) -> float:
        wall = self.phase_wall_s.get(phase, 0.0)
        if wall <= 0:
            return 0.0
        return sum(self.phase_layer_s.get((phase, layer), 0.0) for layer in layers) / wall


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]
