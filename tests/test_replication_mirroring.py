"""Replication moves the stored section verbatim (no codec on the mirror path).

The contract under test: a replica is the primary's spill file, byte for
byte, journaled with the primary's own record -- at ingest, at
``recover_storage`` re-mirroring and at ``resync_into`` -- over both the
in-process and the process-transport replication managers; the only codec
work a sealed container ever costs is its one compression at seal time; and
a primary spill file damaged between seal and sync is refused at adoption,
never copied.
"""

import random

import pytest

import repro.storage.backends as backends_module
from repro.cluster.replication import REPLICA_ID_STRIDE, REPLICA_SUBDIR
from repro.core.framework import SigmaDedupe
from repro.errors import RpcDroppedError, SimulatedCrashError, StorageError
from repro.faults import FaultPlan
from repro.node.dedupe_node import NodeConfig
from repro.storage.compression import build_codec
from repro.storage.journal import MANIFEST_NAME, ManifestJournal
from tests.helpers import superchunk_from_seeds

CODECS = ["none", "zlib"]
TRANSPORTS = ["inproc", "process"]


def make_framework(tmp_path, **overrides):
    options = dict(
        num_nodes=3,
        node_config=NodeConfig(container_capacity=2048),
        superchunk_size=4096,
        storage_dir=str(tmp_path),
        replication_factor=2,
    )
    options.update(overrides)
    return SigmaDedupe(**options)


def compressible_corpus(num_files=4, file_size=6000, seed=17):
    """Unique per file, repetitive inside it, so codecs really shrink it."""
    rng = random.Random(seed)
    return [
        (f"file-{index}", rng.randbytes(file_size // 8) * 8)
        for index in range(num_files)
    ]


def journal_records(directory):
    """``{container_id: record}`` of a spill directory's manifest (the last
    record of an id wins, as in replay)."""
    replay = ManifestJournal(directory / MANIFEST_NAME).replay()
    return {int(record["container_id"]): record for record in replay.records}


def assert_replicas_mirror_primaries(tmp_path, num_nodes, factor):
    """Every primary spill file has ``factor - 1`` byte-identical replicas
    whose journal records equal its own modulo the composite id."""
    mirrored = 0
    for origin in range(num_nodes):
        primary_dir = tmp_path / f"node-{origin}"
        primary_records = journal_records(primary_dir)
        for container_id, record in primary_records.items():
            stored = (primary_dir / f"container-{container_id:08d}.cdata").read_bytes()
            for offset in range(1, factor):
                replica_dir = (
                    tmp_path / f"node-{(origin + offset) % num_nodes}" / REPLICA_SUBDIR
                )
                composite = origin * REPLICA_ID_STRIDE + container_id
                replica = replica_dir / f"container-{composite:08d}.cdata"
                assert replica.read_bytes() == stored
                assert journal_records(replica_dir)[composite] == {
                    **record, "container_id": composite,
                }
                mirrored += 1
    assert mirrored > 0
    return mirrored


class TestReplicasAreVerbatimStoredSections:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("codec", CODECS)
    def test_replica_files_and_records_equal_the_primary(
        self, tmp_path, codec, transport
    ):
        framework = make_framework(
            tmp_path, container_compression=codec, transport=transport
        )
        try:
            framework.backup(compressible_corpus())
            mirrored = assert_replicas_mirror_primaries(tmp_path, 3, 2)
            assert framework.describe()["replicated_containers"] == mirrored
        finally:
            framework.close()

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_recovery_remirrors_verbatim_and_node_zero_down_restores(
        self, tmp_path, transport
    ):
        settings = dict(
            container_compression="zlib", transport=transport, replication_factor=3
        )
        framework = make_framework(tmp_path, **settings)
        files = compressible_corpus()
        report = framework.backup(files)
        exported = framework.director.export_session(report.session_id)
        framework.close()

        revived = make_framework(tmp_path, **settings)
        try:
            revived.recover_storage()
            assert_replicas_mirror_primaries(tmp_path, 3, 3)
            session = revived.director.import_session(exported)
            revived.cluster.mark_node_down(0)
            for path, payload in files:
                assert revived.restore(session.session_id, path) == payload
            assert revived.describe()["failover_reads"] > 0
        finally:
            revived.close()

    def test_crash_then_recovery_restores_with_node_zero_down(self, tmp_path):
        settings = dict(container_compression="zlib")
        framework = make_framework(tmp_path, **settings)
        files = compressible_corpus()
        report = framework.backup(files)
        exported = framework.director.export_session(report.session_id)
        plan = FaultPlan(seed=1, kill_at_spill=2, kill_phase="torn-journal")
        plan.install(framework)
        with pytest.raises(SimulatedCrashError):
            framework.backup(compressible_corpus(seed=99))
        framework.close()

        revived = make_framework(tmp_path, **settings)
        try:
            revived.recover_storage()
            assert_replicas_mirror_primaries(tmp_path, 3, 2)
            session = revived.director.import_session(exported)
            revived.cluster.mark_node_down(0)
            for path, payload in files:
                assert revived.restore(session.session_id, path) == payload
        finally:
            revived.close()


class CountingCodec:
    """Counts the codec calls of every backend built while it is patched in."""

    compressions = 0
    decompressions = 0

    def __init__(self, inner):
        self._inner = inner
        self.name = inner.name

    def compress(self, section):
        CountingCodec.compressions += 1
        return self._inner.compress(section)

    def decompress(self, blob, expected_size):
        CountingCodec.decompressions += 1
        return self._inner.decompress(blob, expected_size)


@pytest.fixture
def counting_codec(monkeypatch):
    def build(name):
        inner = build_codec(name)
        return None if inner is None else CountingCodec(inner)

    monkeypatch.setattr(CountingCodec, "compressions", 0)
    monkeypatch.setattr(CountingCodec, "decompressions", 0)
    monkeypatch.setattr(backends_module, "build_codec", build)
    return CountingCodec


class TestMirroringRunsNoCodec:
    @pytest.mark.parametrize("factor", [2, 3])
    def test_one_compress_and_no_decompress_per_sealed_container(
        self, tmp_path, counting_codec, factor
    ):
        settings = dict(container_compression="zlib", replication_factor=factor)
        framework = make_framework(tmp_path, **settings)
        framework.backup(compressible_corpus())
        sealed = sum(
            node.container_store.container_count for node in framework.cluster.nodes
        )
        assert sealed > 0
        # The phantom loads are gone with the read-back: no primary spill
        # file was loaded to produce a replica.
        assert all(
            node.container_backend.spill_loads == 0
            for node in framework.cluster.nodes
        )
        framework.close()

        revived = make_framework(tmp_path, **settings)
        recoveries = revived.recover_storage()
        assert sum(len(recovery.containers) for recovery in recoveries) == sealed
        assert revived.describe()["replicated_containers"] == sealed * (factor - 1)
        assert all(
            node.container_backend.spill_loads == 0 for node in revived.cluster.nodes
        )
        revived.close()

        assert counting_codec.compressions == sealed
        assert counting_codec.decompressions == 0


def flush_without_sync(framework, node_id):
    """Seal ``node_id``'s open container behind the replication manager's
    back, leaving the seal in the log for the next sync."""
    if framework.transport == "process":
        framework.cluster._proxy(node_id).call("flush")
    else:
        framework.cluster.node(node_id).flush()


class TestCorruptPrimaryIsRefused:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("codec", ["none", "zlib"])
    def test_spill_file_corrupted_between_seal_and_sync(
        self, tmp_path, codec, transport
    ):
        framework = make_framework(
            tmp_path, container_compression=codec, transport=transport
        )
        try:
            # One small super-chunk: stored, but its container stays open.
            result = framework.cluster.backup_superchunk(
                superchunk_from_seeds([1, 2, 3], length=256)
            )
            origin = result.node_id
            flush_without_sync(framework, origin)
            (spill,) = (tmp_path / f"node-{origin}").glob("container-*.cdata")
            damaged = bytearray(spill.read_bytes())
            damaged[len(damaged) // 2] ^= 0xFF
            spill.write_bytes(bytes(damaged))

            with pytest.raises(StorageError, match="CRC"):
                framework.cluster.replication.sync()
            # Refused, not propagated: the successor holds no replica of it.
            replica_dir = tmp_path / f"node-{(origin + 1) % 3}" / REPLICA_SUBDIR
            assert not list(replica_dir.glob("container-*.cdata"))
            assert framework.describe()["replicated_containers"] == 0
        finally:
            framework.close()


class TestFailedMirrorKeepsTheRestPending:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_the_next_sync_mirrors_what_a_failed_push_left(
        self, tmp_path, monkeypatch, transport
    ):
        framework = make_framework(
            tmp_path, container_compression="zlib", transport=transport
        )
        try:
            cluster = framework.cluster
            # Back up with the manager unplugged, so every seal waits in its
            # node's log and one sync drains a batch of several.
            manager, cluster.replication = cluster.replication, None
            framework.backup(compressible_corpus(num_files=8))
            cluster.replication = manager
            sealed = {
                node_id: len(journal_records(tmp_path / f"node-{node_id}"))
                for node_id in range(3)
            }
            origin = max(sealed, key=sealed.get)
            assert sealed[origin] >= 3
            target = cluster.handle(manager.successors(origin)[0])
            push, pushed = type(target).store_replica, []

            def drop_the_second(handle, *args):
                if handle is target:
                    pushed.append(args)
                    if len(pushed) == 2:
                        raise RpcDroppedError("injected drop of the second mirror")
                return push(handle, *args)

            monkeypatch.setattr(type(target), "store_replica", drop_the_second)
            with pytest.raises(RpcDroppedError):
                manager.sync_node(origin)
            assert manager.sync() == sum(sealed.values()) - 1
            assert len(pushed) == sealed[origin] + 1  # the dropped one was pushed again
            assert assert_replicas_mirror_primaries(tmp_path, 3, 2) == sum(sealed.values())
            assert manager.sync() == 0
        finally:
            framework.close()


class TestResyncPushesOnlyToTheRestartedNode:
    def test_other_successors_are_not_rewritten(self, tmp_path):
        framework = make_framework(
            tmp_path,
            container_compression="zlib",
            transport="process",
            replication_factor=3,
        )
        try:
            framework.backup(compressible_corpus())

            def replica_journal_lines(node_id):
                manifest = tmp_path / f"node-{node_id}" / REPLICA_SUBDIR / MANIFEST_NAME
                return len(manifest.read_bytes().splitlines())

            # Node 1 shadows nodes 0 and 2; restarting it wipes only its own
            # replica plane.  Node 2 (shadowing 0 and 1) must see re-pushes
            # of node 1's recovered seals only, node 0 likewise -- never a
            # second copy of a container whose origin did not restart.
            before = {node_id: replica_journal_lines(node_id) for node_id in (0, 2)}
            origin_one = len(journal_records(tmp_path / "node-1"))
            framework.cluster.restart_node(1)
            for node_id in (0, 2):
                assert replica_journal_lines(node_id) == before[node_id] + origin_one
            assert_replicas_mirror_primaries(tmp_path, 3, 3)
        finally:
            framework.close()
