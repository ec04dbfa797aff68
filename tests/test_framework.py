"""Tests for the high-level SigmaDedupe framework facade."""

import pytest

from repro import SigmaDedupe
from repro.errors import RecipeError
from repro.chunking.fixed import StaticChunker
from repro.routing.stateless import StatelessRouting
from tests.helpers import deterministic_bytes


def small_framework(**kwargs):
    defaults = dict(
        num_nodes=4,
        chunker=StaticChunker(256),
        superchunk_size=2048,
        handprint_size=4,
    )
    defaults.update(kwargs)
    return SigmaDedupe(**defaults)


class TestConstruction:
    def test_routing_by_name(self):
        framework = small_framework(routing="stateless")
        assert framework.cluster.routing_scheme.name == "stateless"

    def test_routing_by_instance(self):
        framework = small_framework(routing=StatelessRouting())
        assert isinstance(framework.cluster.routing_scheme, StatelessRouting)

    def test_unknown_routing_name_raises(self):
        with pytest.raises(ValueError):
            small_framework(routing="quantum")

    def test_default_configuration(self):
        framework = SigmaDedupe()
        assert framework.cluster.num_nodes == 4
        assert framework.cluster.routing_scheme.name == "sigma"


class TestBackupRestore:
    def test_backup_and_restore_roundtrip(self):
        framework = small_framework()
        files = [("a.bin", deterministic_bytes(3000, seed=1)), ("b.bin", deterministic_bytes(2000, seed=2))]
        report = framework.backup(files)
        assert report.files == 2
        assert framework.restore(report.session_id, "a.bin") == files[0][1]
        assert framework.restore(report.session_id, "b.bin") == files[1][1]

    def test_restore_session(self):
        framework = small_framework()
        files = [("x", deterministic_bytes(1000, seed=3)), ("y", deterministic_bytes(1500, seed=4))]
        report = framework.backup(files)
        assert dict(framework.restore_session(report.session_id)) == dict(files)

    def test_iter_restore_file_yields_the_file_chunk_by_chunk(self):
        framework = small_framework()
        data = deterministic_bytes(20_000, seed=9)
        report = framework.backup([("big", data)])
        pieces = list(framework.iter_restore_file(report.session_id, "big"))
        assert [len(piece) for piece in pieces] == [256] * 78 + [32]
        assert b"".join(pieces) == data

    def test_iter_restore_file_of_unknown_path_raises_before_reading(self):
        framework = small_framework()
        report = framework.backup([("a", deterministic_bytes(1000, seed=10))])
        with pytest.raises(RecipeError, match="no recipe"):
            framework.iter_restore_file(report.session_id, "ghost")

    def test_restore_from_unknown_session_raises(self):
        framework = small_framework()
        framework.backup([("a", deterministic_bytes(1000, seed=11))])
        with pytest.raises(RecipeError, match="unknown backup session"):
            framework.restore("session-000404", "a")

    def test_restore_session_of_empty_backup_is_empty(self):
        framework = small_framework()
        report = framework.backup([])
        assert report.files == 0
        assert framework.restore_session(report.session_id) == []

    def test_repeated_backup_improves_dedup_ratio(self):
        framework = small_framework()
        files = [("a", deterministic_bytes(5000, seed=5))]
        framework.backup(files)
        report = framework.backup(files)
        assert report.cluster_deduplication_ratio > 1.5
        assert framework.deduplication_ratio == report.cluster_deduplication_ratio

    def test_clients_are_cached_by_id(self):
        framework = small_framework()
        assert framework.client("alpha") is framework.client("alpha")
        assert framework.client("alpha") is not framework.client("beta")

    def test_node_storage_usages_length(self):
        framework = small_framework(num_nodes=3)
        framework.backup([("f", deterministic_bytes(4000, seed=6))])
        usages = framework.node_storage_usages()
        assert len(usages) == 3
        assert sum(usages) > 0

    def test_describe_keys(self):
        framework = small_framework()
        framework.backup([("f", deterministic_bytes(1000, seed=7))])
        summary = framework.describe()
        assert "cluster_deduplication_ratio" in summary
        assert summary["num_nodes"] == 4

    def test_backup_report_fields(self):
        framework = small_framework()
        data = deterministic_bytes(4096, seed=8)
        report = framework.backup([("f", data)])
        assert report.logical_bytes == len(data)
        assert report.unique_chunks > 0
        assert report.transferred_bytes <= report.logical_bytes
