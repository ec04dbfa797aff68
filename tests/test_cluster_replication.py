"""Tests for repro.cluster.replication (mirroring, failover reads, policy)."""

import random
import zlib

import pytest

from repro.cluster.cluster import DedupeCluster
from repro.cluster.replication import (
    REPLICA_ID_STRIDE,
    REPLICA_SUBDIR,
    FailoverPolicy,
    ReplicaStore,
)
from repro.core.framework import SigmaDedupe
from repro.errors import (
    NodeUnavailableError,
    RestoreIntegrityError,
    StorageError,
    ValidationError,
)
from repro.node.dedupe_node import DedupeNode, NodeConfig
from repro.storage.backends import FileContainerBackend
from repro.storage.container import Container
from tests.helpers import chunk_records_from_seeds, superchunk_from_seeds


def sealed_container(tmp_path, seeds=(1, 2, 3, 4)):
    """A sealed, spilled container plus its node (caller closes the node);
    ``node.export_container(container.container_id)`` is its mirror form."""
    node = DedupeNode(
        0,
        config=NodeConfig(
            container_capacity=2048,
            storage_dir=str(tmp_path / "donor"),
            container_backend="file",
        ),
    )
    node.backup_superchunk(superchunk_from_seeds(list(seeds)))
    node.flush()
    container = node.container_store.get(node.container_store.container_ids()[0])
    return node, container


def make_framework(tmp_path=None, **overrides):
    options = dict(
        num_nodes=3,
        node_config=NodeConfig(container_capacity=2048),
        superchunk_size=4096,
        replication_factor=2,
    )
    if tmp_path is not None:
        options["storage_dir"] = str(tmp_path)
    options.update(overrides)
    return SigmaDedupe(**options)


def backup_corpus(framework, num_files=4, file_size=6000, seed=17):
    rng = random.Random(seed)
    files = [(f"file-{i}", rng.randbytes(file_size)) for i in range(num_files)]
    report = framework.backup(files)
    return report.session_id, files


class TestFailoverPolicy:
    def test_delay_sequence_is_exponential(self):
        policy = FailoverPolicy(max_retries=3, backoff_base=0.01, backoff_multiplier=2.0)
        assert list(policy.delays()) == [0.01, 0.02, 0.04]

    def test_zero_retries_yields_nothing(self):
        assert list(FailoverPolicy(max_retries=0).delays()) == []

    def test_validation(self):
        with pytest.raises(ValidationError):
            FailoverPolicy(max_retries=-1)
        with pytest.raises(ValidationError):
            FailoverPolicy(backoff_base=-0.1)
        with pytest.raises(ValidationError):
            FailoverPolicy(backoff_multiplier=0.0)


class TestReplicaStore:
    def test_replica_is_independent_of_origin_storage(self, tmp_path):
        node, container = sealed_container(tmp_path)
        store = ReplicaStore(node_id=1)
        store.adopt(0, container.container_id, node.export_container(container.container_id))
        expected = {
            record.fingerprint: record.data
            for record in chunk_records_from_seeds([1, 2, 3, 4])
        }
        # Destroy the origin's spill plane; the replica must still serve reads.
        node.close()
        for fingerprint, payload in expected.items():
            assert store.read_chunks(0, [fingerprint], [container.container_id])[0] == payload

    def test_adopt_is_idempotent_and_counts_once(self, tmp_path):
        node, container = sealed_container(tmp_path)
        section = node.export_container(container.container_id)
        store = ReplicaStore(node_id=1)
        store.adopt(0, container.container_id, section)
        store.adopt(0, container.container_id, section)
        assert store.container_count() == 1
        assert store.snapshot_bytes() == container.used
        assert store.holds(0, container.container_id)
        assert not store.holds(1, container.container_id)
        node.close()

    def test_file_backed_store_spills_composite_ids(self, tmp_path):
        node, container = sealed_container(tmp_path)
        backend = FileContainerBackend(tmp_path / REPLICA_SUBDIR)
        store = ReplicaStore(node_id=1, backend=backend)
        store.adopt(0, container.container_id, node.export_container(container.container_id))
        composite = 0 * REPLICA_ID_STRIDE + container.container_id
        assert backend.spill_path(composite).exists()
        fingerprint = container.fingerprints()[0]
        assert (
            store.read_chunks(0, [fingerprint], [container.container_id])[0]
            == container.read_chunks([fingerprint])[0]
        )
        store.close()
        node.close()

    def test_codec_mismatch_is_refused(self, tmp_path):
        node, container = sealed_container(tmp_path)
        section = node.export_container(container.container_id)
        other = "zlib" if section.stored.codec == "none" else "none"
        backend = FileContainerBackend(tmp_path / REPLICA_SUBDIR, compression=other)
        store = ReplicaStore(node_id=1, backend=backend)
        with pytest.raises(StorageError, match="codec"):
            store.adopt(0, container.container_id, section)
        assert store.container_count() == 0
        store.close()
        node.close()

    def test_read_chunks_aligns_misses(self, tmp_path):
        node, container = sealed_container(tmp_path)
        store = ReplicaStore(node_id=1)
        store.adopt(0, container.container_id, node.export_container(container.container_id))
        fingerprint = container.fingerprints()[0]
        results = store.read_chunks(
            0,
            [fingerprint, fingerprint, b"\x00" * 20],  # ..., unknown fingerprint
            [container.container_id, container.container_id + 999,  # unknown container
             container.container_id],
        )
        assert results[0] is not None
        assert results[1] is None
        assert results[2] is None
        node.close()


class TestReplicationManager:
    def test_factor_validation(self, tmp_path):
        with pytest.raises(ValidationError):
            DedupeCluster(num_nodes=2, replication_factor=3)
        with pytest.raises(ValidationError):
            DedupeCluster(num_nodes=2, replication_factor=0)
        # factor 1 simply disables replication.
        assert DedupeCluster(num_nodes=2, replication_factor=1).replication is None

    def test_successor_ring(self):
        cluster = DedupeCluster(num_nodes=4, replication_factor=3)
        assert cluster.replication.successors(0) == [1, 2]
        assert cluster.replication.successors(3) == [0, 1]

    def test_seals_are_mirrored_to_successors(self, tmp_path):
        framework = make_framework(tmp_path)
        session_id, _files = backup_corpus(framework)
        cluster = framework.cluster
        for node in cluster.nodes:
            for container_id in node.container_store.container_ids():
                successor = cluster.node((node.node_id + 1) % cluster.num_nodes)
                assert successor.replica_store.holds(node.node_id, container_id)
        summary = cluster.describe()
        total = sum(
            node.container_store.container_count for node in cluster.nodes
        )
        assert summary["replication_factor"] == 2
        assert summary["replicated_containers"] == total
        framework.close()

    def test_replicas_spill_under_replica_subdir(self, tmp_path):
        framework = make_framework(tmp_path)
        backup_corpus(framework)
        spilled = [
            list((tmp_path / f"node-{node.node_id}" / REPLICA_SUBDIR).glob("*.cdata"))
            for node in framework.cluster.nodes
        ]
        assert any(files for files in spilled)
        framework.close()


class TestFailoverReads:
    @pytest.mark.parametrize("backed", ["file", "memory"])
    def test_restore_is_byte_identical_with_any_single_node_down(
        self, tmp_path, backed
    ):
        framework = make_framework(tmp_path if backed == "file" else None)
        session_id, files = backup_corpus(framework)
        cluster = framework.cluster
        before = cluster.describe()["failover_reads"]
        for node in cluster.nodes:
            cluster.mark_node_down(node.node_id)
            for path, payload in files:
                assert framework.restore(session_id, path) == payload
            cluster.mark_node_up(node.node_id)
        assert cluster.describe()["failover_reads"] > before
        framework.close()

    def test_a_short_replica_reply_raises_integrity_error(self, monkeypatch):
        framework = make_framework()
        session_id, files = backup_corpus(framework)
        down = framework.director.get_recipe(session_id, files[0][0]).node_ids[0]
        framework.cluster.mark_node_down(down)
        original = DedupeNode.replica_read
        monkeypatch.setattr(
            DedupeNode, "replica_read", lambda node, *columns: original(node, *columns)[:-1]
        )
        with pytest.raises(RestoreIntegrityError, match=f"node {(down + 1) % 3} answered"):
            framework.restore(session_id, files[0][0])
        framework.close()

    def test_failover_restore_loads_each_replica_container_once(self, tmp_path, monkeypatch):
        # Raw spill files and a second, edited generation: its recipes
        # alternate between old and new containers, so a replica read per
        # chunk would take a loader call per chunk (and reload a spill file
        # at every alternation the LRU does not hold).
        framework = make_framework(
            tmp_path, num_nodes=2, container_compression="none",
            node_config=NodeConfig(container_capacity=8192),
        )
        _first, files = backup_corpus(framework, file_size=40_000)
        rng = random.Random(5)
        edited = []
        for path, payload in files:
            buffer = bytearray(payload)
            for offset in range(3000, len(buffer), 9000):
                buffer[offset:offset + 500] = rng.randbytes(500)
            edited.append((path, bytes(buffer)))
        session_id = framework.backup(edited).session_id
        cluster = framework.cluster
        sections_served = []
        load_section = Container.load_section

        def counted(container):
            sections_served.append(container)
            return load_section(container)

        monkeypatch.setattr(Container, "load_section", counted)
        for down in cluster.nodes:
            replicas = cluster.node(1 - down.node_id).replica_store
            cluster.mark_node_down(down.node_id)
            for path, payload in edited:
                recipe = framework.director.get_recipe(session_id, path)
                distinct = {
                    location.container_id
                    for location in recipe
                    if location.node_id == down.node_id
                }
                loads = replicas.backend.spill_loads
                sections_served.clear()
                assert framework.restore(session_id, path) == payload
                assert replicas.backend.spill_loads - loads <= len(distinct)
                held = set(map(id, replicas._replicas.values()))
                # One section (one loader call) per replica container.
                assert sum(id(c) in held for c in sections_served) <= len(distinct)
            cluster.mark_node_up(down.node_id)
        assert cluster.describe()["failover_reads"] > 0
        framework.close()

    def test_down_node_without_replication_raises(self, tmp_path):
        framework = make_framework(tmp_path, replication_factor=1)
        session_id, files = backup_corpus(framework)
        used = {
            location.node_id
            for recipe in framework.director.iter_recipes(session_id)
            for location in recipe
        }
        framework.cluster.mark_node_down(next(iter(used)))
        with pytest.raises(NodeUnavailableError):
            for path, _payload in files:
                framework.restore(session_id, path)
        framework.close()

    def test_all_replica_holders_down_raises(self, tmp_path):
        framework = make_framework(tmp_path)
        session_id, files = backup_corpus(framework)
        for node in framework.cluster.nodes:
            node.mark_down()
        with pytest.raises(NodeUnavailableError):
            for path, _payload in files:
                framework.restore(session_id, path)
        framework.close()

    def test_missing_spill_file_fails_over_after_retries(self, tmp_path):
        # Raw spill files: under a codec the primaries would serve these reads
        # from their write-through LRU and never miss the deleted files.
        framework = make_framework(
            tmp_path,
            failover_policy=FailoverPolicy(max_retries=1, backoff_base=0.0),
            container_compression="none",
        )
        session_id, files = backup_corpus(framework)
        # Vaporise one node's primary spill plane (keep its replicas intact).
        victim = next(
            node
            for node in framework.cluster.nodes
            if node.container_store.container_count
        )
        for spill in (tmp_path / f"node-{victim.node_id}").glob("*.cdata"):
            spill.unlink()
        for path, payload in files:
            assert framework.restore(session_id, path) == payload
        assert framework.cluster.describe()["failover_reads"] > 0
        framework.close()

    @pytest.mark.parametrize("compression", ["none", "zlib"])
    def test_short_compressed_section_fails_over(self, tmp_path, compression):
        # Node 0's spill file becomes one byte short: a raw file truncated,
        # or a valid zlib stream of a section one byte short.  The read that
        # finds it must not leave a split list in the LRU: the retry would
        # read it from there and the restore would fail its length check
        # instead of failing over.
        settings = dict(
            num_nodes=2, container_compression=compression, replication_factor=2,
            storage_dir=str(tmp_path),
        )
        framework = SigmaDedupe(**settings)
        data = random.Random(3).randbytes(3 << 20)
        exported = framework.director.export_session(
            framework.backup([("big", data)]).session_id
        )
        framework.close()
        # Reopened: the sealing framework would serve every read from the
        # raw sections its seals admitted to the LRU, never the files.
        revived = SigmaDedupe(**settings)
        revived.recover_storage()
        session = revived.director.import_session(exported)
        spills = list((tmp_path / "node-0").glob("*.cdata"))
        assert spills
        for spill in spills:
            stored = spill.read_bytes()
            spill.write_bytes(
                stored[:-1] if compression == "none"
                else zlib.compress(zlib.decompress(stored)[:-1])
            )
        assert revived.restore(session.session_id, "big") == data
        assert revived.cluster.describe()["failover_reads"] > 0
        revived.close()

    def test_stale_replica_plane_cleared_and_remirrored(self, tmp_path):
        framework = make_framework(tmp_path)
        session_id, files = backup_corpus(framework)
        exported = framework.director.export_session(session_id)
        framework.close()
        # Plant debris a killed process could have left in a replica plane.
        stale = tmp_path / "node-0" / REPLICA_SUBDIR / "container-00099999.cdata"
        stale.parent.mkdir(parents=True, exist_ok=True)
        stale.write_bytes(b"stale replica debris")

        revived = make_framework(tmp_path)
        assert not stale.exists()  # cleared when the ReplicaStore took over
        revived.recover_storage()
        session = revived.director.import_session(exported)
        revived.cluster.mark_node_down(0)
        for path, payload in files:
            assert revived.restore(session.session_id, path) == payload
        revived.close()

    def test_recovered_cluster_restores_with_node_down(self, tmp_path):
        framework = make_framework(tmp_path)
        session_id, files = backup_corpus(framework)
        exported = framework.director.export_session(session_id)
        framework.close()

        revived = make_framework(tmp_path)
        revived.recover_storage()
        session = revived.director.import_session(exported)
        for node in revived.cluster.nodes:
            revived.cluster.mark_node_down(node.node_id)
            for path, payload in files:
                assert revived.restore(session.session_id, path) == payload
            revived.cluster.mark_node_up(node.node_id)
        revived.close()
