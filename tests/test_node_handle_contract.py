"""The `NodeHandle` contract, over every handle.

The cluster core is written once against
:class:`~repro.cluster.handle.NodeHandle`; this suite replays one
super-chunk sequence through the in-process handle, through the RPC handle
to worker processes and through the RPC handle to nodes served on threads
(:class:`~tests.helpers.ThreadCarrier`), and requires the same answers from
every operation of the protocol --
the stores, the routing queries, restore reads over the two read columns
(container ids given, missing or mixed, and empty columns), an export ->
store_replica -> replica_read round trip with its misses, recovery and
``describe`` -- and :class:`~repro.errors.ValidationError` for read columns of
unequal length, and :class:`~repro.errors.NodeUnavailableError` from a node
that is marked down or whose worker is dead (or whose serving end is closed).  (The Hypothesis cross-transport
suites remain the end-to-end reference; this is the per-operation one.)
"""

import dataclasses
import os
import signal

import pytest

from repro.cluster.cluster import DedupeCluster
from repro.errors import NodeUnavailableError, ReproError
from repro.node.dedupe_node import NodeConfig
from repro.transport import TransportCluster
from tests.helpers import ThreadCarrier, superchunk_from_seeds

KINDS = {"inproc": DedupeCluster, "process": TransportCluster, "thread": ThreadCarrier}

# Three super-chunks: fresh data, a half-duplicate, an exact repeat.  With
# 2 KiB containers the sequence seals several containers before the flush.
SEQUENCE = [
    [1, 2, 3, 4, 5, 6],
    [4, 5, 6, 7, 8, 9],
    [1, 2, 3, 4, 5, 6],
]


def open_cluster(kind, storage_dir):
    """Two nodes that mirror each other; the contract drives the handles
    directly, never the cluster's own logic."""
    return KINDS[kind](
        num_nodes=2,
        node_config=NodeConfig(container_capacity=2048, storage_dir=str(storage_dir)),
        replication_factor=2,
    )


def superchunks():
    return [superchunk_from_seeds(seeds, handprint_size=4) for seeds in SEQUENCE]


def error_of(operation, *args):
    """The name of the error ``operation(*args)`` raises."""
    with pytest.raises(ReproError) as raised:
        operation(*args)
    return type(raised.value).__name__


def observe(kind, storage_dir):
    """Replay ``SEQUENCE`` into handle 0 and record what every operation of
    the protocol answers."""
    seen = {}
    cluster = open_cluster(kind, storage_dir)
    try:
        origin, successor = cluster.handles
        seen["ids"] = (origin.node_id, successor.node_id)
        results = [origin.backup(superchunk).result() for superchunk in superchunks()]
        seen["backups"] = [dataclasses.asdict(result) for result in results]
        assert origin.flush().result() is None

        probe = superchunks()[1]
        fingerprints = [chunk.fingerprint for chunk in probe.chunks]
        seen["usage"] = (origin.storage_usage, successor.storage_usage)
        seen["resemblance"] = (
            origin.resemblance_query(probe.handprint),
            successor.resemblance_query(probe.handprint),
        )
        # Repeats count once per occurrence; unknown fingerprints count for nothing.
        seen["sample"] = origin.sample_match_count(
            fingerprints + fingerprints[:2] + [b"\x00" * 20]
        )

        locations = results[0].chunk_locations
        read = [chunk.fingerprint for chunk in superchunks()[0].chunks]
        pinned = [locations[fingerprint] for fingerprint in read]
        # Container ids the node resolves itself: all missing, or every other one.
        seen["reads"] = origin.read_chunks(read, [None] * len(read))
        assert origin.read_chunks(read, pinned) == seen["reads"]
        mixed = [None if index % 2 else container_id for index, container_id in enumerate(pinned)]
        assert origin.read_chunks(read, mixed) == seen["reads"]
        seen["empty_read"] = origin.read_chunks([], [])
        seen["uneven_reads"] = [
            error_of(origin.read_chunks, read, pinned[:-1]),
            error_of(origin.read_chunks, read[:-1], [None] * len(read)),
        ]

        sealed = origin.drain_sealed()
        seen["sealed"] = (sealed, origin.sealed_ids(), origin.drain_sealed())
        # Mirror the first sealed container only: chunks of the others come
        # back None from the successor.
        exported = origin.export_container(sealed[0])
        assert successor.store_replica(0, sealed[0], exported).result() is None
        seen["replica_stats"] = (origin.replica_stats(), successor.replica_stats())
        seen["replica_reads"] = successor.replica_read(0, read, pinned)
        seen["no_replicas_of_node_1"] = origin.replica_read(1, read, pinned)
        seen["empty_replica_read"] = successor.replica_read(0, [], [])
        seen["uneven_replica_reads"] = [
            error_of(successor.replica_read, 0, read, pinned[:-1]),
            error_of(origin.replica_read, 1, read[:-1], pinned),
        ]

        seen["describes"] = [origin.describe().result(), successor.describe().result()]
    finally:
        cluster.close()

    revived = open_cluster(kind, storage_dir)
    try:
        origin = revived.handle(0)
        recovery = origin.recover(4).result()
        if isinstance(recovery, dict):  # a worker's flat summary
            seen["recovered"] = (recovery["containers"], recovery["recovered_bytes"])
        else:
            seen["recovered"] = (len(recovery.containers), recovery.recovered_bytes)
        seen["reads_after_recovery"] = origin.read_chunks(read, pinned)
    finally:
        revived.close()
    return seen


@pytest.fixture(scope="module")
def observations(tmp_path_factory):
    return {kind: observe(kind, tmp_path_factory.mktemp(kind)) for kind in KINDS}


@pytest.mark.parametrize("kind", ["process", "thread"])
def test_rpc_handles_give_the_in_process_answers(observations, kind):
    inproc, rpc = observations["inproc"], observations[kind]
    assert set(inproc) == set(rpc)
    for operation in inproc:
        assert rpc[operation] == inproc[operation], operation


@pytest.mark.parametrize("kind", KINDS)
def test_answers_are_the_right_ones(observations, kind):
    seen = observations[kind]
    first, second, repeat = seen["backups"]
    assert (first["unique_chunks"], first["duplicate_chunks"]) == (6, 0)
    assert (second["unique_chunks"], second["duplicate_chunks"]) == (3, 3)
    assert (repeat["unique_chunks"], repeat["duplicate_chunks"]) == (0, 6)
    assert repeat["chunk_locations"] == first["chunk_locations"]
    assert all(result["node_id"] == 0 for result in seen["backups"])

    assert seen["usage"] == (9 * 512, 0)
    assert seen["resemblance"] == (4, 0)
    assert seen["sample"] == 6 + 2
    assert seen["reads"] == [chunk.data for chunk in superchunks()[0].chunks]
    assert seen["reads_after_recovery"] == seen["reads"]
    assert seen["empty_read"] == [] and seen["empty_replica_read"] == []
    assert seen["uneven_reads"] == seen["uneven_replica_reads"] == ["ValidationError"] * 2

    sealed, sealed_ids, drained_again = seen["sealed"]
    assert len(sealed) >= 2 and sealed == sealed_ids and drained_again == []
    assert seen["recovered"] == (len(sealed), 9 * 512)
    assert seen["replica_stats"][0] == (0, 0)
    assert seen["replica_stats"][1][0] == 1
    replica_reads = seen["replica_reads"]
    assert [payload for payload in replica_reads if payload is not None] == [
        expected
        for expected, payload in zip(seen["reads"], replica_reads)
        if payload is not None
    ]
    assert None in replica_reads and any(replica_reads)
    assert seen["no_replicas_of_node_1"] == [None] * 6

    origin, successor = seen["describes"]
    assert origin["node_id"] == 0 and successor["node_id"] == 1
    assert origin["logical_bytes"] == 18 * 512
    assert origin["physical_bytes"] == origin["stored_bytes"] == 9 * 512
    assert origin["containers"] == len(sealed)
    assert successor["logical_bytes"] == 0


def kill_worker(cluster):
    process = cluster.worker_process(0)
    os.kill(process.pid, signal.SIGKILL)
    process.join(timeout=10)
    assert not process.is_alive()


def close_worker_end(carrier):
    carrier.kill(0)


DEAD = (kill_worker, close_worker_end)

UNAVAILABLE = [
    ("inproc", lambda cluster: cluster.handle(0).mark_down()),
    ("process", lambda cluster: cluster.handle(0).mark_down()),
    ("process", kill_worker),
    ("thread", close_worker_end),
]


@pytest.mark.parametrize(
    "kind, take_down",
    UNAVAILABLE,
    ids=["inproc-down", "process-down", "process-dead", "thread-dead"],
)
def test_a_down_or_dead_node_is_unavailable(tmp_path, kind, take_down):
    cluster = open_cluster(kind, tmp_path)
    try:
        handle = cluster.handle(0)
        superchunk = superchunks()[0]
        result = handle.backup(superchunk).result()
        fingerprints = list(result.chunk_locations)
        container_ids = list(result.chunk_locations.values())
        assert not handle.is_down
        take_down(cluster)
        with pytest.raises(NodeUnavailableError):
            handle.read_chunks(fingerprints, container_ids)
        with pytest.raises(NodeUnavailableError):
            handle.backup(superchunk).result()
        assert handle.is_down
        if take_down not in DEAD:
            handle.mark_up()
            assert not handle.is_down
            assert handle.read_chunks(fingerprints, container_ids) == [
                chunk.data for chunk in superchunk.chunks
            ]
    finally:
        cluster.close()
