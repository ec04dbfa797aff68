"""Property-based byte-identity: the shm process front end vs serial ingest.

Hypothesis drives whole backup + restore sessions with arbitrary block
compositions (shared block pools create duplicates within files, across files
and across sessions) through a serial baseline and through
``parallel_executor="process"`` frameworks -- shared-memory lane processes
chunking and fingerprinting in place -- over worker counts 1/2/4, both
container backends, both transports and pipeline windows 1 and 4.  Every
observable surface -- backup reports, cluster describe, per-node describes
(including message counters), restored bytes -- must match exactly: slab
placement, lane scheduling, the packed reply codec and the windowed send
path are not allowed to change a single observable byte.
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


def run_session(
    sessions,
    backend,
    transport="inproc",
    workers=None,
    executor="thread",
    pipeline_depth=4,
):
    framework = SigmaDedupe(
        num_nodes=2,
        routing="sigma",
        chunker="gear",
        superchunk_size=4096,
        node_config=NodeConfig(container_capacity=8192, container_backend=backend),
        transport=transport,
        workers=workers,
        parallel_executor=executor,
        pipeline_depth=pipeline_depth,
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


class TestProcessExecutorProperties:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        sessions=backup_workload(),
        workers=st.sampled_from([1, 2, 4]),
        backend=st.sampled_from(["memory", "file"]),
        pipeline_depth=st.sampled_from([1, 4]),
    )
    def test_process_lanes_are_byte_identical_to_serial(
        self, sessions, workers, backend, pipeline_depth
    ):
        serial = run_session(sessions, backend)
        lanes = run_session(
            sessions,
            backend,
            workers=workers,
            executor="process",
            pipeline_depth=pipeline_depth,
        )
        assert lanes["reports"] == serial["reports"]
        assert lanes["cluster_describe"] == serial["cluster_describe"]
        assert lanes["node_describes"] == serial["node_describes"]
        assert lanes["restored"] == serial["restored"]
        for files, restored in zip(sessions, serial["restored"]):
            assert dict(files) == restored

    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        sessions=backup_workload(),
        pipeline_depth=st.sampled_from([1, 4]),
    )
    def test_full_handoff_stack_is_byte_identical_to_serial(
        self, sessions, pipeline_depth
    ):
        """Lanes + process transport: slab views reach the wire train with
        no copy out to bytes, and the windowed pipeline changes nothing
        observable."""
        serial = run_session(sessions, "memory")
        handoff = run_session(
            sessions,
            "memory",
            transport="process",
            workers=2,
            executor="process",
            pipeline_depth=pipeline_depth,
        )
        assert handoff["reports"] == serial["reports"]
        assert handoff["cluster_describe"] == serial["cluster_describe"]
        assert handoff["node_describes"] == serial["node_describes"]
        assert handoff["restored"] == serial["restored"]
