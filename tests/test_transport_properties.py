"""Property-based byte-identity: the process transport vs the in-process plane.

Hypothesis drives whole backup + restore sessions with arbitrary block
compositions (shared block pools create duplicates within files, across files
and across sessions) through both ``transport="inproc"`` and
``transport="process"`` frameworks, over worker counts 1/2/4 and both
container backends.  Every observable surface -- backup reports, cluster
describe, per-node describes, restored bytes -- must match exactly: the RPC
plane, the pipelined send path and the wire codec are not allowed to change
a single observable byte.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.framework import SigmaDedupe
from repro.node.dedupe_node import NodeConfig


@st.composite
def backup_workload(draw):
    """Two backup generations composed from a shared pool of byte blocks."""
    pool = draw(
        st.lists(st.binary(min_size=1, max_size=1500), min_size=1, max_size=5)
    )
    sessions = []
    for _generation in range(2):
        files = []
        for index in range(draw(st.integers(min_value=1, max_value=3))):
            picks = draw(
                st.lists(
                    st.integers(min_value=0, max_value=len(pool) - 1),
                    min_size=1,
                    max_size=6,
                )
            )
            files.append(
                (f"dir/file-{index}.bin", b"".join(pool[pick] for pick in picks))
            )
        sessions.append(files)
    return sessions


def run_session(sessions, transport, num_nodes, backend):
    framework = SigmaDedupe(
        num_nodes=num_nodes,
        routing="sigma",
        chunker="gear",
        superchunk_size=4096,
        node_config=NodeConfig(container_capacity=8192, container_backend=backend),
        transport=transport,
    )
    try:
        reports = [
            framework.backup(files, session_label=f"gen-{index}")
            for index, files in enumerate(sessions)
        ]
        restored = [
            dict(framework.restore_session(report.session_id)) for report in reports
        ]
        cluster = framework.cluster
        return {
            "reports": reports,
            "cluster_describe": framework.describe(),
            "node_describes": cluster.node_describes(),
            "restored": restored,
        }
    finally:
        framework.close()


class TestProcessTransportProperties:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        sessions=backup_workload(),
        num_nodes=st.sampled_from([1, 2, 4]),
        backend=st.sampled_from(["memory", "file"]),
    )
    def test_process_transport_is_byte_identical(self, sessions, num_nodes, backend):
        inproc = run_session(sessions, "inproc", num_nodes, backend)
        process = run_session(sessions, "process", num_nodes, backend)
        assert process["reports"] == inproc["reports"]
        assert process["cluster_describe"] == inproc["cluster_describe"]
        assert process["node_describes"] == inproc["node_describes"]
        assert process["restored"] == inproc["restored"]
        # Restores round-trip the original bytes on both planes.
        for files, restored in zip(sessions, inproc["restored"]):
            assert dict(files) == restored
