"""The windowed transport pipeline: depth contract, batched routing probe,
eager sends.

Covers the pieces the windowed send path is built from: the client's bounded
in-flight window (``pipeline_depth``), the single batched ``routing_probe``
RPC that replaced the seed's per-candidate query sequence, and the eager
send every backup train takes -- the hash-placed schemes, which put several
trains to one worker between probe rounds, included.
"""

import pytest

from repro.cluster.client import DEFAULT_PIPELINE_DEPTH, BackupClient
from repro.cluster.cluster import DedupeCluster
from repro.cluster.director import Director
from repro.core.framework import SigmaDedupe
from repro.errors import ValidationError
from repro.fingerprint.handprint import Handprint
from repro.workloads.synthetic import SyntheticDataGenerator


def session_files(total_bytes: int = 96 * 1024):
    generator = SyntheticDataGenerator(seed=523)
    data = generator.unique_bytes(total_bytes)
    third = total_bytes // 3
    return [
        (f"win/file-{index}.bin", data[index * third:(index + 1) * third])
        for index in range(3)
    ]


def run_session(files, **kwargs):
    framework = SigmaDedupe(
        num_nodes=2, routing=kwargs.pop("routing", "sigma"),
        superchunk_size=8192, **kwargs
    )
    try:
        report = framework.backup(files, session_label="window")
        restored = dict(framework.restore_session(report.session_id))
        return report, framework.describe(), restored
    finally:
        framework.close()


class TestPipelineDepth:
    def test_rejects_nonpositive_depth(self):
        cluster = DedupeCluster(num_nodes=2)
        with pytest.raises(ValidationError):
            BackupClient("client-0", cluster, Director(), pipeline_depth=0)

    def test_default_depth(self):
        cluster = DedupeCluster(num_nodes=2)
        client = BackupClient("client-0", cluster, Director())
        assert client.pipeline_depth == DEFAULT_PIPELINE_DEPTH
        assert DEFAULT_PIPELINE_DEPTH == 4

    def test_depths_are_byte_identical_over_process_transport(self):
        files = session_files()
        baseline = run_session(files)
        for depth in (1, 2, 8):
            windowed = run_session(
                files, transport="process", pipeline_depth=depth
            )
            assert windowed == baseline

    def test_hash_placed_schemes_are_byte_identical_over_process_transport(self):
        # Wire-silent routing (no cluster queries) sends consecutive backup
        # trains to one worker with no probe round between them; each goes
        # on the wire when it is sent, and the results must not move.
        files = session_files()
        for routing in ("stateless", "extreme_binning"):
            baseline = run_session(files, routing=routing)
            eager = run_session(files, routing=routing, transport="process")
            assert eager == baseline


class TestRoutingProbe:
    def test_default_probe_matches_individual_queries(self):
        cluster = DedupeCluster(num_nodes=4)
        files = session_files()
        framework = SigmaDedupe(num_nodes=4, superchunk_size=8192)
        try:
            framework.backup(files, session_label="seed")
            live = framework.cluster
            handprint = Handprint(
                representative_fingerprints=tuple(
                    bytes([value]) * 20 for value in range(4)
                )
            )
            candidates = [0, 2, 3]
            resemblances, usages = live.routing_probe(candidates, handprint)
            assert resemblances == [
                live.resemblance_query(node, handprint) for node in candidates
            ]
            assert usages == [
                live.node_storage_usage(node) for node in range(4)
            ]
        finally:
            framework.close()
        cluster.close()

    def test_transport_probe_matches_inproc(self):
        files = session_files()
        inproc = SigmaDedupe(num_nodes=3, superchunk_size=8192)
        process = SigmaDedupe(num_nodes=3, superchunk_size=8192, transport="process")
        try:
            inproc.backup(files, session_label="probe")
            process.backup(files, session_label="probe")
            handprint = Handprint(
                representative_fingerprints=tuple(
                    bytes([value + 1]) * 20 for value in range(6)
                )
            )
            candidates = [1, 2]
            assert process.cluster.routing_probe(
                candidates, handprint
            ) == inproc.cluster.routing_probe(candidates, handprint)
        finally:
            inproc.close()
            process.close()

