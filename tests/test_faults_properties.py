"""Property-based tests: journal replay is prefix-consistent under any crash.

The crash model: a kill point leaves (a) the journal truncated at an
arbitrary byte, and (b) each spill file either intact, truncated, or
missing.  For every such interleaving, recovery must rebuild exactly the
containers of the journal's complete-line prefix whose data files verify
intact -- byte-identical payloads, no debris left behind, and a second
replay must be a clean no-op (idempotence).
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.storage.backends import FileContainerBackend
from repro.storage.container_store import ContainerStore
from repro.storage.journal import MANIFEST_NAME, decode_line
from tests.helpers import chunk_records_from_seeds

#: Per-spill-file crash outcome: survives, torn mid-write, or never made it.
FILE_FATES = ("keep", "truncate", "delete")

crash_interleavings = st.fixed_dictionaries(
    {
        "num_chunks": st.integers(min_value=1, max_value=20),
        # Journal cut as a fraction of its final size (scaled in the test).
        "journal_cut": st.floats(min_value=0.0, max_value=1.0),
        "file_fates": st.lists(
            st.sampled_from(FILE_FATES), min_size=8, max_size=8
        ),
    }
)


def seal_corpus(storage_dir: Path, num_chunks: int):
    """Seal ``num_chunks`` 64-byte chunks through a journaled backend.

    Returns (expected payloads by fingerprint, container ids in seal order).
    """
    backend = FileContainerBackend(storage_dir)
    store = ContainerStore(256, backend=backend)
    records = chunk_records_from_seeds(range(num_chunks), length=64)
    store.store_chunks(records)
    store.flush()
    backend.close()
    expected = {record.fingerprint: record.data for record in records}
    return expected, sorted(
        backend._spill_file_id(path)
        for path in storage_dir.glob("container-*.cdata")
    )


def complete_line_prefix_ids(journal_bytes: bytes, cut: int):
    """Container ids of the journal lines fully contained in the first
    ``cut`` bytes -- what prefix-consistent replay must accept."""
    ids = []
    offset = 0
    for line in journal_bytes.splitlines(keepends=True):
        if not line.endswith(b"\n") or offset + len(line) > cut:
            break
        record = decode_line(line[:-1])
        assert record is not None  # the pristine journal is all-valid
        ids.append(int(record["container_id"]))
        offset += len(line)
    return ids


class TestReplayPrefixConsistency:
    @given(plan=crash_interleavings)
    @settings(max_examples=30, deadline=None)
    def test_arbitrary_crash_state_recovers_the_intact_prefix(self, plan):
        with tempfile.TemporaryDirectory(prefix="repro-crash-prop-") as tmp:
            storage_dir = Path(tmp)
            expected, container_ids = seal_corpus(storage_dir, plan["num_chunks"])

            journal_path = storage_dir / MANIFEST_NAME
            pristine = journal_path.read_bytes()
            cut = int(len(pristine) * plan["journal_cut"])
            journal_path.write_bytes(pristine[:cut])
            prefix_ids = complete_line_prefix_ids(pristine, cut)

            fates = {
                container_id: plan["file_fates"][index % len(plan["file_fates"])]
                for index, container_id in enumerate(container_ids)
            }
            for container_id, fate in fates.items():
                path = storage_dir / f"container-{container_id:08d}.cdata"
                if fate == "delete":
                    path.unlink()
                elif fate == "truncate":
                    data = path.read_bytes()
                    path.write_bytes(data[: len(data) // 2])

            backend = FileContainerBackend.recover(storage_dir)
            recovery = backend.last_recovery

            # Exactly the journal-prefix records whose data survived; a
            # truncated 64-byte-chunk container can never verify intact.
            survivors = sorted(
                container_id
                for container_id in prefix_ids
                if fates[container_id] == "keep"
            )
            recovered_ids = sorted(
                container.container_id for container in recovery.containers
            )
            assert recovered_ids == survivors

            # Byte-identical payloads for everything recovered.
            for container in recovery.containers:
                for fingerprint in container.fingerprints():
                    assert container.read_chunks([fingerprint])[0] == expected[fingerprint]

            # No debris: the directory holds exactly the recovered spills.
            remaining = sorted(
                backend._spill_file_id(path)
                for path in storage_dir.glob("container-*.cdata")
            )
            assert remaining == survivors
            backend.close()

            # Idempotence: a second recovery replays the repaired plane
            # cleanly to the same state.
            again = FileContainerBackend.recover(storage_dir)
            assert sorted(
                container.container_id for container in again.last_recovery.containers
            ) == survivors
            assert again.last_recovery.records_discarded == 0
            assert again.last_recovery.records_dropped == 0
            assert again.last_recovery.orphans_removed == []
            again.close()

    @given(
        num_chunks=st.integers(min_value=1, max_value=20),
        journal_cut=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_journal_tear_alone_keeps_every_intact_file_in_prefix(
        self, num_chunks, journal_cut
    ):
        with tempfile.TemporaryDirectory(prefix="repro-tear-prop-") as tmp:
            storage_dir = Path(tmp)
            _expected, _ids = seal_corpus(storage_dir, num_chunks)
            journal_path = storage_dir / MANIFEST_NAME
            pristine = journal_path.read_bytes()
            cut = int(len(pristine) * journal_cut)
            journal_path.write_bytes(pristine[:cut])
            prefix_ids = complete_line_prefix_ids(pristine, cut)

            backend = FileContainerBackend.recover(storage_dir)
            assert sorted(
                container.container_id
                for container in backend.last_recovery.containers
            ) == sorted(prefix_ids)
            # The journal now ends exactly at its valid prefix.
            replay_size = journal_path.stat().st_size
            assert replay_size <= cut
            backend.close()
