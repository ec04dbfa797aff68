"""Tests for the REPRO_LOCK_ASSERTS runtime lock-ownership mode."""

from __future__ import annotations

import threading

import pytest

from repro.utils.guarded_lock import (
    ENV_LOCK_ASSERTS,
    OwnershipLock,
    assert_owned,
    guarded_lock,
    lock_asserts_enabled,
)
from repro.errors import LockOwnershipError, ReproError
from tests.helpers import superchunk_from_seeds


class TestOwnershipLock:
    def test_tracks_owner(self):
        lock = OwnershipLock("test")
        assert not lock.held_by_current_thread()
        with lock:
            assert lock.held_by_current_thread()
        assert not lock.held_by_current_thread()

    def test_release_by_non_owner_raises(self):
        lock = OwnershipLock("test")
        lock.acquire()
        error: list = []

        def release_from_other_thread():
            try:
                lock.release()
            except LockOwnershipError as exc:
                error.append(exc)

        thread = threading.Thread(target=release_from_other_thread)
        thread.start()
        thread.join()
        assert error
        lock.release()

    def test_reentrant_mode(self):
        lock = OwnershipLock("test", reentrant=True)
        with lock:
            with lock:
                assert lock.held_by_current_thread()
            assert lock.held_by_current_thread()
        assert not lock.held_by_current_thread()

    def test_mutual_exclusion(self):
        lock = OwnershipLock("test")
        counter = {"value": 0}

        def bump():
            for _ in range(200):
                with lock:
                    counter["value"] += 1

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter["value"] == 800


class TestGuardedLockFactory:
    def test_disabled_returns_plain_lock(self, monkeypatch):
        monkeypatch.delenv(ENV_LOCK_ASSERTS, raising=False)
        assert not lock_asserts_enabled()
        lock = guarded_lock("test")
        assert not isinstance(lock, OwnershipLock)
        # assert_owned is a no-op on plain locks, held or not.
        assert_owned(lock, "anywhere")

    def test_enabled_returns_ownership_lock(self, monkeypatch):
        monkeypatch.setenv(ENV_LOCK_ASSERTS, "1")
        assert lock_asserts_enabled()
        lock = guarded_lock("test")
        assert isinstance(lock, OwnershipLock)
        assert lock.name == "test"

    def test_assert_owned_raises_when_unheld(self, monkeypatch):
        monkeypatch.setenv(ENV_LOCK_ASSERTS, "1")
        lock = guarded_lock("test")
        with pytest.raises(LockOwnershipError):
            assert_owned(lock, "somewhere")
        with lock:
            assert_owned(lock, "somewhere")

    def test_truthy_spellings_enable_asserts(self, monkeypatch):
        for value in ("1", "true", " YES ", "On"):
            monkeypatch.setenv(ENV_LOCK_ASSERTS, value)
            assert lock_asserts_enabled(), value
        for value in ("", "0", "false", "off", "2"):
            monkeypatch.setenv(ENV_LOCK_ASSERTS, value)
            assert not lock_asserts_enabled(), value

    @pytest.mark.parametrize("asserts", ["", "1"], ids=["plain", "ownership"])
    def test_reentrant_flag_is_honoured(self, monkeypatch, asserts):
        # Non-blocking acquires, so a wrong lock kind fails instead of hanging.
        monkeypatch.setenv(ENV_LOCK_ASSERTS, asserts)
        reentrant = guarded_lock("test", reentrant=True)
        with reentrant:
            assert reentrant.acquire(blocking=False)
            reentrant.release()
        plain = guarded_lock("test")
        with plain:
            assert not plain.acquire(blocking=False)

    def test_lock_ownership_error_is_repro_error(self):
        assert issubclass(LockOwnershipError, ReproError)


class TestNodeUnderLockAsserts:
    @pytest.fixture
    def node(self, monkeypatch):
        monkeypatch.setenv(ENV_LOCK_ASSERTS, "1")
        from repro.node.dedupe_node import DedupeNode

        return DedupeNode(0)

    def test_plane_lock_is_ownership_lock(self, node):
        assert isinstance(node._plane_lock, OwnershipLock)

    def test_backup_works_under_asserts(self, node):
        superchunk = superchunk_from_seeds(range(10))
        result = node.backup_superchunk(superchunk)
        assert result.unique_chunks == 10
        # Restore path still works (peeks take no lock by contract).
        chunk = superchunk.chunks[0]
        assert node.read_chunks([chunk.fingerprint], [None])[0] == chunk.data

    def test_direct_plane_call_without_lock_raises(self, node):
        superchunk = superchunk_from_seeds(range(10))
        with pytest.raises(LockOwnershipError):
            node._backup_superchunk_batched(superchunk)
        with pytest.raises(LockOwnershipError):
            node._lookup_chunk_locked(b"\x00" * 32)

    @pytest.mark.parametrize(
        "lane_stride, unique_chunks",
        # Four lanes of distinct seeds store everything; four lanes of the
        # same seeds store one stream's 50 chunks once.
        [(1000, 4 * 50), (0, 50)],
        ids=["distinct-streams", "identical-streams"],
    )
    def test_concurrent_backups_hold_discipline(self, node, lane_stride, unique_chunks):
        errors: list = []

        def ingest(offset):
            try:
                for index in range(5):
                    seeds = range(offset + index * 10, offset + index * 10 + 10)
                    node.backup_superchunk(superchunk_from_seeds(seeds))
            except ReproError as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=ingest, args=(lane * lane_stride,)) for lane in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert node.stats.superchunks_received == 20
        assert node.stats.unique_chunks == unique_chunks

    def test_container_store_lock_wrapped(self, node):
        assert isinstance(node.container_store._lock, OwnershipLock)
        with pytest.raises(LockOwnershipError):
            node.container_store._get_locked(0)


class TestClusterUnderLockAsserts:
    def test_backup_and_restore_roundtrip(self, monkeypatch):
        monkeypatch.setenv(ENV_LOCK_ASSERTS, "1")
        from repro.core.framework import SigmaDedupe

        framework = SigmaDedupe(num_nodes=2)
        payload = b"lock-assert roundtrip " * 4096
        report = framework.backup([("doc.bin", payload)])
        assert framework.restore(report.session_id, "doc.bin") == payload
