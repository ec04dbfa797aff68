"""Equivalence suite: per-chunk vs batched vs spill-to-disk node data plane.

The batched data plane (`DedupeNode.backup_superchunk`) and the spill-to-disk
container backend must be invisible to every observable surface:
`SuperChunkBackupResult`s, per-node statistics, cluster message accounting
and restored bytes all match the per-chunk reference path exactly.  The
reference is ``tests/oracles.py``: `PerChunkNode` for one node,
`per_chunk_plane()` for the nodes a whole framework builds.

The full-statistics comparisons run at cache capacities where no LRU eviction
interleaves with a super-chunk (the default configuration and far beyond any
benchmarked regime).  Under eviction *pressure* the two execution orders may
attribute a hit to the cache vs the disk index differently (the batched plane
classifies a wave against one snapshot of the cache while the per-chunk path
interleaves its stores), so the tiny-cache test pins down the invariants that
survive eviction *as long as the disk index is enabled*: classification,
stored bytes and restored content.  With the disk index disabled (the
Figure 5(b) ablation) an eviction interleaving can additionally change
classification itself; that ablation is compared only at non-evicting
capacities, where the per-chunk reference serves it.
``tests/test_node_plane_regimes.py``
generates the streams, tiny caches included, and detects the one event after
which the two may differ.
"""

import random

import pytest

from repro.core.framework import SigmaDedupe
from repro.core.superchunk import SuperChunk
from repro.node.dedupe_node import DedupeNode, NodeConfig
from tests.helpers import chunk_records_from_seeds, superchunk_from_seeds
from tests.oracles import PerChunkNode, per_chunk_plane

pytestmark = []


def node_state(node: DedupeNode) -> dict:
    """Every observable node surface the execution modes must agree on."""
    store = node.container_store
    return {
        "describe": node.describe(),
        "container_ids": store.container_ids(),
        "container_fingerprints": {
            container_id: store.get(container_id).fingerprints()
            for container_id in store.container_ids()
        },
        "container_sealed": {
            container_id: store.get(container_id).sealed
            for container_id in store.container_ids()
        },
        "container_reads": store.container_reads,
        "container_writes": store.container_writes,
        "stored_bytes": store.stored_bytes,
        "stored_chunks": store.stored_chunks,
        # Raw LRU order: the batched plane replays each hit's touch and each
        # newly opened container's insertion at its per-chunk position.
        "cache_lru_order": list(node.fingerprint_cache._containers),
        "cache_hits": node.fingerprint_cache.hits,
        "cache_misses": node.fingerprint_cache.misses,
        "cache_prefetches": node.fingerprint_cache.prefetches,
        "cached_fingerprints": node.fingerprint_cache.cached_fingerprints,
        "disk_index_len": len(node.disk_index),
        "disk_index_lookups": node.disk_index.lookups,
        "disk_index_hits": node.disk_index.lookup_hits,
        "disk_index_inserts": node.disk_index.inserts,
        "similarity_entries": dict(
            (fp, node.similarity_index.lookup(fp))
            for fp in list(node.similarity_index.fingerprints())
        ),
    }


def random_superchunk_stream(seed: int, num_superchunks: int = 40):
    """Deterministic super-chunks mixing fresh, repeated and intra-duplicate chunks."""
    rng = random.Random(seed)
    pool = list(range(200))
    for sequence in range(num_superchunks):
        size = rng.randint(1, 24)
        seeds = []
        for _ in range(size):
            roll = rng.random()
            if roll < 0.45:
                seeds.append(rng.choice(pool))  # likely-repeated chunk
            elif roll < 0.60 and seeds:
                seeds.append(rng.choice(seeds))  # intra-super-chunk duplicate
            else:
                seeds.append(1000 + sequence * 100 + len(seeds))  # fresh chunk
        records = chunk_records_from_seeds(seeds, length=rng.choice([64, 256, 512]))
        yield SuperChunk.from_chunks(
            records,
            handprint_size=4,
            stream_id=rng.choice([0, 0, 0, 1]),
            sequence_number=sequence,
        )


def replay(node: DedupeNode, seed: int, flush_every: int = 13):
    results = []
    for index, superchunk in enumerate(random_superchunk_stream(seed)):
        results.append(node.backup_superchunk(superchunk))
        if (index + 1) % flush_every == 0:
            node.flush()
    node.flush()
    return results


class TestNodeLevelEquivalence:
    """Direct DedupeNode comparisons on randomized super-chunk streams."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_batched_matches_per_chunk(self, seed):
        per_chunk = PerChunkNode(0, NodeConfig(container_capacity=2048))
        batched = DedupeNode(0, NodeConfig(container_capacity=2048))
        results_ref = replay(per_chunk, seed)
        results_new = replay(batched, seed)
        assert results_ref == results_new
        assert node_state(per_chunk) == node_state(batched)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_spill_backend_matches_per_chunk(self, seed, tmp_path):
        per_chunk = PerChunkNode(0, NodeConfig(container_capacity=2048))
        spilled = DedupeNode(
            0,
            NodeConfig(
                container_capacity=2048,
                container_backend="file",
                storage_dir=str(tmp_path),
            ),
        )
        results_ref = replay(per_chunk, seed)
        results_new = replay(spilled, seed)
        assert results_ref == results_new
        assert node_state(per_chunk) == node_state(spilled)
        # And every stored chunk restores bit-for-bit from the spill files.
        for superchunk in random_superchunk_stream(seed):
            for chunk in superchunk.chunks:
                assert spilled.read_chunks([(chunk.fingerprint, None)]) == [chunk.data]

    def test_disk_index_disabled_mode(self):
        config = dict(container_capacity=2048, enable_disk_index=False)
        per_chunk = PerChunkNode(0, NodeConfig(**config))
        batched = DedupeNode(0, NodeConfig(**config))
        assert replay(per_chunk, 7) == replay(batched, 7)
        assert node_state(per_chunk) == node_state(batched)

    def test_intra_superchunk_duplicates_only(self):
        records = chunk_records_from_seeds([1, 1, 2, 1, 2, 3], length=128)
        superchunk = SuperChunk.from_chunks(records, handprint_size=4)
        per_chunk = PerChunkNode(0)
        batched = DedupeNode(0)
        result_ref = per_chunk.backup_superchunk(superchunk)
        result_new = batched.backup_superchunk(superchunk)
        assert result_ref == result_new
        assert result_new.unique_chunks == 3
        assert result_new.duplicate_chunks == 3
        assert node_state(per_chunk) == node_state(batched)

    def test_single_chunk_superchunk(self):
        superchunk = superchunk_from_seeds([42], handprint_size=1, length=64)
        per_chunk = PerChunkNode(0)
        batched = DedupeNode(0)
        assert per_chunk.backup_superchunk(superchunk) == batched.backup_superchunk(superchunk)
        assert node_state(per_chunk) == node_state(batched)

    def test_oversized_chunks_inside_superchunk(self):
        config = dict(container_capacity=300)
        per_chunk = PerChunkNode(0, NodeConfig(**config))
        batched = DedupeNode(0, NodeConfig(**config))
        records = chunk_records_from_seeds([1, 2], length=128) + chunk_records_from_seeds(
            [3], length=900
        ) + chunk_records_from_seeds([4, 5], length=128)
        superchunk = SuperChunk.from_chunks(records, handprint_size=4)
        assert per_chunk.backup_superchunk(superchunk) == batched.backup_superchunk(superchunk)
        assert node_state(per_chunk) == node_state(batched)

    @pytest.mark.parametrize("seed", [11, 12])
    def test_tiny_cache_classification_invariants(self, seed):
        """Under eviction pressure the execution orders may differ in hit
        attribution, but never in what is stored or restored."""
        config = dict(container_capacity=1024, cache_capacity_containers=2)
        per_chunk = PerChunkNode(0, NodeConfig(**config))
        batched = DedupeNode(0, NodeConfig(**config))
        results_ref = replay(per_chunk, seed)
        results_new = replay(batched, seed)
        for ref, new in zip(results_ref, results_new):
            assert (ref.unique_chunks, ref.duplicate_chunks) == (
                new.unique_chunks,
                new.duplicate_chunks,
            )
        assert per_chunk.stats.physical_bytes == batched.stats.physical_bytes
        for superchunk in random_superchunk_stream(seed):
            for chunk in superchunk.chunks:
                assert batched.read_chunks([(chunk.fingerprint, None)]) == [chunk.data]


def run_cluster_session(storage_dir=None, workers=None, transport=None):
    """One multi-generation backup+restore session against a full cluster."""
    node_config = NodeConfig(container_capacity=64 * 1024)
    framework = SigmaDedupe(
        num_nodes=3,
        routing="sigma",
        chunker="gear",
        superchunk_size=16 * 1024,
        node_config=node_config,
        storage_dir=storage_dir,
        workers=workers,
        # No keyword at all when unset, so the default side exercises
        # SigmaDedupe's own default transport.
        **({} if transport is None else {"transport": transport}),
    )
    try:
        rng = random.Random(1337)
        files = [
            (f"dir/file-{index}.bin", rng.randbytes(48 * 1024)) for index in range(4)
        ]
        reports = [framework.backup(files, session_label="gen-0")]
        for generation in (1, 2):
            edited = []
            for path, data in files:
                buffer = bytearray(data)
                offset = rng.randrange(0, len(buffer) - 2048)
                buffer[offset:offset + 2048] = rng.randbytes(2048)
                edited.append((path, bytes(buffer)))
            files = edited
            reports.append(framework.backup(files, session_label=f"gen-{generation}"))
        restored = {
            path: data for path, data in framework.restore_session(reports[-1].session_id)
        }
        cluster = framework.cluster
        return {
            "reports": reports,
            "cluster_describe": framework.describe(),
            "node_describes": cluster.node_describes(),
            "restored": restored,
            "expected": dict(files),
        }
    finally:
        framework.close()


class TestClusterLevelEquivalence:
    """Whole-framework sessions: reports, stats, messages and restores match."""

    def test_three_modes_agree(self, tmp_path):
        with per_chunk_plane():
            per_chunk = run_cluster_session()
        batched = run_cluster_session()
        spilled = run_cluster_session(storage_dir=str(tmp_path / "spill"))

        assert per_chunk["reports"] == batched["reports"] == spilled["reports"]
        assert (
            per_chunk["cluster_describe"]
            == batched["cluster_describe"]
            == spilled["cluster_describe"]
        )
        assert (
            per_chunk["node_describes"]
            == batched["node_describes"]
            == spilled["node_describes"]
        )
        for mode in (per_chunk, batched, spilled):
            assert mode["restored"] == mode["expected"]
        assert per_chunk["restored"] == batched["restored"] == spilled["restored"]


class TestParallelIngestEquivalence:
    """Parallel ingest lanes must be invisible: every observable surface --
    reports, cluster/node statistics, message accounting, restored bytes --
    matches serial ingest for any worker count, on both container backends."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_workers_match_serial_memory_backend(self, workers):
        serial = run_cluster_session()
        parallel = run_cluster_session(workers=workers)
        assert serial["reports"] == parallel["reports"]
        assert serial["cluster_describe"] == parallel["cluster_describe"]
        assert serial["node_describes"] == parallel["node_describes"]
        assert parallel["restored"] == parallel["expected"]
        assert serial["restored"] == parallel["restored"]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_workers_match_serial_file_backend(self, workers, tmp_path):
        serial = run_cluster_session(storage_dir=str(tmp_path / "serial"))
        parallel = run_cluster_session(
            workers=workers, storage_dir=str(tmp_path / f"workers-{workers}")
        )
        assert serial["reports"] == parallel["reports"]
        assert serial["cluster_describe"] == parallel["cluster_describe"]
        assert serial["node_describes"] == parallel["node_describes"]
        assert parallel["restored"] == parallel["expected"]

    def test_workers_match_serial_per_chunk_plane(self):
        # Parallel lanes compose with the per-chunk reference node plane too.
        with per_chunk_plane():
            serial = run_cluster_session()
            parallel = run_cluster_session(workers=4)
        assert serial["reports"] == parallel["reports"]
        assert serial["node_describes"] == parallel["node_describes"]
        assert parallel["restored"] == parallel["expected"]


class TestProcessTransportEquivalence:
    """The multiprocess node plane must be invisible too: the same session
    over ``transport="process"`` (per-node worker processes behind the binary
    RPC transport, with the one-deep pipelined backup loop) matches the
    in-process default on every observable surface -- and the in-process
    default remains exactly what it was."""

    def test_process_transport_matches_inproc_memory_backend(self):
        inproc = run_cluster_session()
        process = run_cluster_session(transport="process")
        assert inproc["reports"] == process["reports"]
        assert inproc["cluster_describe"] == process["cluster_describe"]
        assert inproc["node_describes"] == process["node_describes"]
        assert process["restored"] == process["expected"]
        assert inproc["restored"] == process["restored"]

    def test_process_transport_matches_inproc_file_backend(self, tmp_path):
        inproc = run_cluster_session(storage_dir=str(tmp_path / "inproc"))
        process = run_cluster_session(
            storage_dir=str(tmp_path / "process"), transport="process"
        )
        assert inproc["reports"] == process["reports"]
        assert inproc["cluster_describe"] == process["cluster_describe"]
        assert inproc["node_describes"] == process["node_describes"]
        assert process["restored"] == process["expected"]

    def test_inproc_default_is_unchanged(self):
        # The default transport stays in-process and byte-identical to an
        # explicit transport="inproc" request (and never spawns workers).
        default = run_cluster_session()
        explicit = run_cluster_session(transport="inproc")
        assert default["reports"] == explicit["reports"]
        assert default["cluster_describe"] == explicit["cluster_describe"]
        assert default["node_describes"] == explicit["node_describes"]
        assert default["restored"] == explicit["restored"]
