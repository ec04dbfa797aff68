"""The repo-specific contract registry the invariant checkers enforce.

Three of the four checkers are scoped by this module:

* **stats-purity** -- which modules/methods form the read path, and which
  method names count dedupe statistics (and are therefore banned there);
* **streaming-discipline** -- which modules form the streaming path, and
  which constructs materialise whole streams;
* **error-taxonomy** -- which exception constructions are allowed outside the
  :class:`~repro.errors.ReproError` hierarchy.

The lock-discipline checker is *not* scoped here: its registry is the
``# guarded-by:`` / ``# holds-lock:`` annotations in the source itself, so a
new guarded class only has to annotate its attributes to join the contract.

Paths are POSIX-relative to the ``repro`` package root.  A scope of ``"*"``
covers a whole module; otherwise scopes name ``Class.method`` qualnames.
A path that matches no file, or a qualname that matches no definition, is a
configuration error (``python -m repro.analysis`` exits 2): a renamed method
must not silently leave the contract.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

# --------------------------------------------------------------------- #
# stats purity: the read path may only use stats-free probes
# --------------------------------------------------------------------- #

#: Method names that advance dedupe statistics (lookup/hit counters, LRU
#: recency, simulated index I/O) or mutate index/cache state.  None of these
#: may be called from a read-path scope; the stats-free alternatives are
#: ``peek`` / ``peek_many`` and the plain container reads.
STATS_MUTATING_CALLS: FrozenSet[str] = frozenset(
    {
        "lookup",
        "lookup_handprint",
        "match_batch",
        "probe_batch",
        "resemblance_count",
        "resemblance_query",
        "record_lookups",
        "commit_lookups",
        "touch_many",
        "drop_stale",
        "add_fingerprint",
        "add_fingerprints",
        "prefetch_container",
        "prefetch_metadata",
        "insert",
        "insert_batch",
        "index_handprint",
        "store_chunk",
        "store_chunks",
    }
)

#: Read-path scopes: module -> method qualnames that must stay stats-free
#: (``("*",)`` marks the whole module as read-path).
READ_PATH_SCOPES: Dict[str, Tuple[str, ...]] = {
    "cluster/restore.py": ("*",),
    "cluster/cluster.py": (
        "DedupeCluster.sample_match_count",
        "DedupeCluster.read_chunks",
        "DedupeCluster.read_columns",
    ),
    # Replica reads are failover restore reads: like every restore path they
    # must stay invisible to dedupe statistics (replicas never dedupe).
    "cluster/replication.py": (
        "ReplicaStore.read_chunks",
        "ReplicationManager.read_chunks_failover",
    ),
    # Both node handles: a routing sample or a restore read is stats-free
    # whichever side of a process boundary serves it.  (The worker-side
    # handlers delegate straight to the scoped DedupeNode methods below.)
    "cluster/handle.py": (
        "LocalNodeHandle.sample_match_count",
        "LocalNodeHandle.read_chunks",
        "LocalNodeHandle.replica_read",
    ),
    "transport/proxy.py": (
        "NodeProxy.sample_match_count",
        "NodeProxy._read",
        "NodeProxy.read_chunks",
        "NodeProxy.replica_read",
    ),
    "node/dedupe_node.py": (
        "DedupeNode.sample_match_count",
        "DedupeNode._resolve_restore_container",
        "DedupeNode.read_chunks",
        "DedupeNode.replica_read",
    ),
}

# --------------------------------------------------------------------- #
# streaming discipline: no whole-stream materialisation on the ingest path
# --------------------------------------------------------------------- #

#: Modules whose code must never materialise a whole file/stream: the
#: client-side partitioning pipeline, the parallel ingest engine and the
#: workload generators that feed them.
STREAMING_MODULES: FrozenSet[str] = frozenset(
    {
        "core/partitioner.py",
        "parallel/engine.py",
        "parallel/pipeline.py",
        # Shared-memory lanes move one bounded slab region per record batch.
        "parallel/shm.py",
        "cluster/client.py",
        "workloads/base.py",
        "workloads/mersenne.py",
        "workloads/synthetic.py",
        "workloads/versioned_source.py",
        "workloads/vm_images.py",
        "workloads/mail.py",
        "workloads/web.py",
        "workloads/trace.py",
        # The spill plane: codecs and the file backend handle one bounded
        # container data section at a time, never a whole stream.
        "storage/compression.py",
        "storage/backends.py",
        # The durability plane: journal replay, offline recovery, replica
        # mirroring and fault hooks all operate per sealed container (bounded
        # by container capacity), never on whole backup streams.
        "storage/journal.py",
        "storage/recovery.py",
        "cluster/replication.py",
        "faults/plan.py",
        # The transport plane: wire trains carry one super-chunk or one
        # sealed container per message (bounded by super-chunk/container
        # capacity), joined into one buffer per send -- never a whole
        # backup stream.
        "transport/wire.py",
        "transport/worker.py",
        "transport/proxy.py",
        "transport/cluster.py",
        "cluster/handle.py",
    }
)

#: Functions/methods that produce lazy block or record streams; wrapping a
#: call to one of these in ``list()`` / ``tuple()`` / ``bytes()`` buffers the
#: whole stream and defeats the bounded-memory ingest path.
BLOCK_STREAM_PRODUCERS: FrozenSet[str] = frozenset(
    {
        "iter_blocks",
        "chunk_stream",
        "committed_segments",
        "fingerprint_blocks",
        "iter_chunk_records",
        "iter_file_records",
        "iter_restore_file",
    }
)

#: Variable names that conventionally hold whole-stream payloads on the
#: ingest path; ``bytes(<name>)`` / ``b"".join(<name>)`` over one of these is
#: a materialisation (``# streaming-ok: <reason>`` waives documented sites).
STREAM_PAYLOAD_NAMES: FrozenSet[str] = frozenset(
    {"payload", "payloads", "blocks", "stream", "streams", "data_stream"}
)

# --------------------------------------------------------------------- #
# error taxonomy
# --------------------------------------------------------------------- #

#: Exception classes that may be raised without being ReproError subclasses:
#: iterator-protocol signalling and internal unreachable-code guards.
TAXONOMY_ALLOWED_EXCEPTIONS: FrozenSet[str] = frozenset(
    {"StopIteration", "StopAsyncIteration", "AssertionError", "NotImplementedError"}
)
