"""Tests for repro.faults (deterministic crash/fault injection)."""

import random

import pytest

from repro.core.framework import SigmaDedupe
from repro.errors import (
    FaultInjectionError,
    InjectedReadError,
    SimulatedCrashError,
    ValidationError,
)
from repro.faults import KILL_PHASES, FaultPlan, NodeDownWindow
from repro.node.dedupe_node import DedupeNode, NodeConfig
from repro.storage.journal import MANIFEST_NAME
from tests.helpers import superchunk_from_seeds


def make_framework(tmp_path, **overrides):
    options = dict(
        num_nodes=2,
        node_config=NodeConfig(container_capacity=2048),
        superchunk_size=4096,
        storage_dir=str(tmp_path),
    )
    options.update(overrides)
    return SigmaDedupe(**options)


def corpus(num_files=3, file_size=6000, seed=23):
    rng = random.Random(seed)
    return [(f"file-{i}", rng.randbytes(file_size)) for i in range(num_files)]


class TestPlanValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValidationError):
            FaultPlan(kill_phase="sideways")
        with pytest.raises(ValidationError):
            FaultPlan(kill_at_spill=0)
        with pytest.raises(ValidationError):
            FaultPlan(torn_fraction=1.5)
        with pytest.raises(ValidationError):
            FaultPlan(read_error_probability=-0.1)
        with pytest.raises(ValidationError):
            NodeDownWindow(0, 5, 2)
        with pytest.raises(ValidationError):
            NodeDownWindow(-1, 0, 1)

    def test_install_rejects_unknown_targets(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan().install(object())

    def test_install_dispatch_counts_hooks(self, tmp_path):
        framework = make_framework(tmp_path)
        plan = FaultPlan()
        # cluster hook + one spill hook per file-backed node.
        assert plan.install(framework) == 1 + framework.cluster.num_nodes
        node = DedupeNode(
            0,
            config=NodeConfig(
                container_capacity=2048,
                storage_dir=str(tmp_path / "solo"),
                container_backend="file",
            ),
        )
        assert plan.install(node) == 1
        assert plan.install(node.container_backend) == 1
        # Memory-backed nodes have no spill plane to instrument.
        memory_node = DedupeNode(
            1,
            config=NodeConfig(container_capacity=2048, container_backend="memory"),
        )
        assert plan.install(memory_node) == 0
        node.close()
        framework.close()


class TestKillPhases:
    @pytest.mark.parametrize("phase", KILL_PHASES)
    def test_each_phase_crashes_once_and_recovers_clean(self, tmp_path, phase):
        framework = make_framework(tmp_path)
        plan = FaultPlan(seed=1, kill_at_spill=2, kill_phase=phase, torn_fraction=0.5)
        plan.install(framework)
        with pytest.raises(SimulatedCrashError):
            framework.backup(corpus())
        assert plan.describe()["crashed"] == 1
        framework.close()

        revived = make_framework(tmp_path)
        recoveries = revived.recover_storage()
        # Exactly the spills before the kill survive; the killed seal is gone
        # whichever phase it died in.
        assert sum(len(r.containers) for r in recoveries) == 1
        debris = sum(
            r.records_discarded + r.records_dropped + len(r.orphans_removed)
            for r in recoveries
        )
        if phase == "before-data":
            assert debris == 0  # nothing of the killed seal ever hit disk
        else:
            assert debris >= 1
        # The planes are clean: directories hold exactly the recovered spills.
        for node in revived.cluster.nodes:
            plane = tmp_path / f"node-{node.node_id}"
            spills = list(plane.glob("container-*.cdata"))
            assert len(spills) == node.container_store.container_count
        revived.close()

    def test_torn_journal_leaves_partial_line(self, tmp_path):
        framework = make_framework(tmp_path)
        plan = FaultPlan(seed=1, kill_at_spill=1, kill_phase="torn-journal", torn_fraction=0.4)
        plan.install(framework)
        with pytest.raises(SimulatedCrashError):
            framework.backup(corpus())
        journals = [
            path
            for path in tmp_path.glob(f"node-*/{MANIFEST_NAME}")
            if path.stat().st_size
        ]
        assert journals, "the torn write must leave journal bytes behind"
        assert not journals[0].read_bytes().endswith(b"\n")
        framework.close()

    def test_crash_fires_exactly_once(self, tmp_path):
        framework = make_framework(tmp_path)
        plan = FaultPlan(seed=1, kill_at_spill=1, kill_phase="after-data")
        plan.install(framework)
        with pytest.raises(SimulatedCrashError):
            framework.backup(corpus())
        framework.close()
        # Same plan re-armed on a recovered framework: already fired, so the
        # backup completes (a crashed process would build a fresh plan).
        revived = make_framework(tmp_path)
        revived.recover_storage()
        plan.install(revived)
        report = revived.backup(corpus(seed=99))
        assert report.files == 3
        assert plan.describe()["crashed"] == 1
        revived.close()

    def test_acknowledged_sessions_survive_a_later_crash(self, tmp_path):
        framework = make_framework(tmp_path)
        files = corpus()
        report = framework.backup(files)
        exported = framework.director.export_session(report.session_id)
        plan = FaultPlan(seed=1, kill_at_spill=1, kill_phase="mid-data")
        plan.install(framework)
        with pytest.raises(SimulatedCrashError):
            framework.backup(corpus(seed=77))  # second session dies mid-spill
        framework.close()

        revived = make_framework(tmp_path)
        revived.recover_storage()
        session = revived.director.import_session(exported)
        for path, payload in files:
            assert revived.restore(session.session_id, path) == payload
        revived.close()


class TestReadFaults:
    def test_read_errors_are_deterministic_per_seed(self, tmp_path):
        # Replicated so an unlucky retry-exhausting streak fails over instead
        # of surfacing; the assertion is about determinism, not availability.
        framework = make_framework(tmp_path, replication_factor=2)
        files = corpus()
        report = framework.backup(files)
        histories = []
        for _run in range(2):
            plan = FaultPlan(seed=42, read_error_probability=0.4)
            plan.install(framework)
            for path, payload in files:
                assert framework.restore(report.session_id, path) == payload
            histories.append(plan.describe())
        assert histories[0] == histories[1]
        assert histories[0]["reads_seen"] > 0
        framework.close()

    def test_certain_read_fault_raises_without_replication(self, tmp_path):
        framework = make_framework(tmp_path)
        files = corpus()
        report = framework.backup(files)
        plan = FaultPlan(seed=1, read_error_probability=1.0)
        plan.install(framework)
        with pytest.raises(InjectedReadError):
            for path, _payload in files:
                framework.restore(report.session_id, path)
        framework.close()

    def test_certain_read_fault_fails_over_with_replication(self, tmp_path):
        framework = make_framework(tmp_path, replication_factor=2)
        files = corpus()
        report = framework.backup(files)
        plan = FaultPlan(seed=1, read_error_probability=1.0)
        plan.install(framework)
        for path, payload in files:
            assert framework.restore(report.session_id, path) == payload
        assert framework.cluster.describe()["failover_reads"] > 0
        framework.close()


    def test_read_faults_fire_on_a_decompressed_lru_hit(self, tmp_path):
        # After a first restore every compressed container is served from the
        # part list its backend's LRU keeps, yet each read still passes the
        # read-fault hook: a cached container fails like a cold one.
        framework = make_framework(tmp_path, container_compression="zlib")
        files = corpus()
        report = framework.backup(files)
        for path, payload in files:
            assert framework.restore(report.session_id, path) == payload
        held = [
            section
            for node in framework.cluster.nodes
            for _size, section in node.container_backend._decompressed.values()
        ]
        assert held and all(isinstance(section, list) for section in held)
        plan = FaultPlan(seed=1, read_error_probability=1.0)
        plan.install(framework)
        with pytest.raises(InjectedReadError):
            framework.restore(report.session_id, files[0][0])
        seen = plan.describe()
        assert seen["injected_read_errors"] == seen["reads_seen"] > 0
        assert all(node.container_backend.spill_loads == 0 for node in framework.cluster.nodes)
        framework.close()

    def test_replicated_ingest_reads_no_primary_spill_file(self, tmp_path):
        # Mirroring exports the stored section raw: it is not a load, so it
        # neither counts as one nor consumes a read-fault draw -- every
        # ``reads_seen`` tick in the cases above is a restore read.
        framework = make_framework(tmp_path, replication_factor=2)
        plan = FaultPlan(seed=42, read_error_probability=1.0)
        plan.install(framework)
        framework.backup(corpus())
        assert plan.describe()["reads_seen"] == 0
        assert framework.cluster.describe()["replicated_containers"] > 0
        assert all(
            node.container_backend.spill_loads == 0
            for node in framework.cluster.nodes
        )
        framework.close()


class TestReplicaPlaneHooks:
    def test_verbatim_adoption_fires_the_spill_hooks(self, tmp_path):
        # Plans leave replica backends alone unless installed on them; one
        # that is sees each adoption as a spill, at the same two hook sites
        # as a seal, so a kill-at-spill-K schedule lands where it always did.
        framework = make_framework(tmp_path, replication_factor=2)
        plan = FaultPlan(seed=1, kill_at_spill=2, kill_phase="after-data")
        for node in framework.cluster.nodes:
            assert plan.install(node.replica_store.backend) == 1
        with pytest.raises(SimulatedCrashError):
            framework.backup(corpus())
        assert plan.describe()["spills_seen"] == 2
        replica_dirs = [tmp_path / f"node-{n}" / "replicas" for n in range(2)]
        # after-data: the second replica's file is down, its record is not.
        assert sum(len(list(d.glob("container-*.cdata"))) for d in replica_dirs) == 2
        assert sum(
            len((d / MANIFEST_NAME).read_bytes().splitlines())
            for d in replica_dirs
            if (d / MANIFEST_NAME).exists()
        ) == 1
        framework.close()


class TestNodeDownWindows:
    def test_window_arithmetic(self):
        window = NodeDownWindow(node_id=1, start_op=2, end_op=4)
        assert not window.contains(1)
        assert window.contains(2)
        assert window.contains(3)
        assert not window.contains(4)

    def test_window_dark_node_fails_over_then_returns(self, tmp_path):
        framework = make_framework(tmp_path, replication_factor=2)
        files = corpus()
        report = framework.backup(files)
        used = sorted(
            {
                location.node_id
                for recipe in framework.director.iter_recipes(report.session_id)
                for location in recipe
            }
        )
        plan = FaultPlan(
            seed=1,
            node_down_windows=[NodeDownWindow(node_id, 0, 10_000) for node_id in used],
        )
        plan.install(framework)
        for path, payload in files:
            assert framework.restore(report.session_id, path) == payload
        assert framework.cluster.describe()["failover_reads"] > 0
        # Past the window the primaries serve again.
        done = plan.describe()["ops_seen"]
        plan2 = FaultPlan(
            seed=1,
            node_down_windows=[NodeDownWindow(node_id, 0, 0) for node_id in used],
        )
        plan2.install(framework)
        before = framework.cluster.describe()["failover_reads"]
        for path, payload in files:
            assert framework.restore(report.session_id, path) == payload
        assert framework.cluster.describe()["failover_reads"] == before
        assert done > 0
        framework.close()
