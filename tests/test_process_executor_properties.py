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

The last two tests pin what lanes hand the process transport: records that
own their payload ``bytes``, and no shared memory beyond the lane slabs.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import DedupeCluster
from repro.core.framework import SigmaDedupe
from repro.node.dedupe_node import NodeConfig
from repro.parallel.shm import DEFAULT_SLOT_BYTES, ShmLanePool


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
    def test_lanes_over_process_transport_are_byte_identical_to_serial(
        self, sessions, pipeline_depth
    ):
        """Lanes + process transport + the windowed pipeline change nothing
        observable."""
        serial = run_session(sessions, "memory")
        stacked = run_session(
            sessions,
            "memory",
            transport="process",
            workers=2,
            executor="process",
            pipeline_depth=pipeline_depth,
        )
        assert stacked["reports"] == serial["reports"]
        assert stacked["cluster_describe"] == serial["cluster_describe"]
        assert stacked["node_describes"] == serial["node_describes"]
        assert stacked["restored"] == serial["restored"]


def lanes_into_process_transport(sessions):
    """Back up ``sessions`` through 2 shm lanes into a 2-worker process
    transport, the ``process_planes`` benchmark's stack; return the restores."""
    framework = SigmaDedupe(
        num_nodes=2,
        routing="sigma",
        chunker="gear",
        transport="process",
        workers=2,
        parallel_executor="process",
        pipeline_depth=4,
    )
    try:
        reports = [framework.backup(files) for files in sessions]
        return [dict(framework.restore_session(report.session_id)) for report in reports]
    finally:
        framework.close()


def evolved_sessions(file_count, file_size, seed=11):
    """Two sessions of unique files, the second with 10% of each file rewritten."""
    rng = random.Random(seed)
    first = [(f"vm/disk-{index}.img", rng.randbytes(file_size)) for index in range(file_count)]
    second = []
    for path, data in first:
        edited = bytearray(data)
        for _ in range(10):
            at = rng.randrange(0, file_size - file_size // 100)
            edited[at:at + file_size // 100] = rng.randbytes(file_size // 100)
        second.append((path, bytes(edited)))
    return [first, second]


def test_lanes_hand_the_wire_owned_bytes(monkeypatch):
    payload_types = set()
    send = DedupeCluster.backup_superchunk_send

    def spy(self, superchunk, decision=None):
        payload_types.update(type(chunk.data) for chunk in superchunk.chunks)
        return send(self, superchunk, decision)

    monkeypatch.setattr(DedupeCluster, "backup_superchunk_send", spy)
    sessions = evolved_sessions(file_count=4, file_size=256 * 1024)
    restored = lanes_into_process_transport(sessions)
    assert payload_types == {bytes}
    assert restored == [dict(files) for files in sessions]


def test_lanes_create_no_segment_beyond_their_slabs(monkeypatch):
    created = []
    create = ShmLanePool._create_segment

    def spy(self, size):
        created.append(size)
        return create(self, size)

    monkeypatch.setattr(ShmLanePool, "_create_segment", spy)
    sessions = evolved_sessions(file_count=6, file_size=4 * 1024 * 1024)
    restored = lanes_into_process_transport(sessions)
    # One pool per session, one two-slot slab per lane, and nothing else:
    # every file fits a slot, and a slot is free again as soon as its
    # file's records have copied their payloads out.
    assert created == [2 * DEFAULT_SLOT_BYTES] * 4
    assert restored == [dict(files) for files in sessions]
