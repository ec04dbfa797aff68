"""Tests for repro.utils.striped_lock."""

import threading

import pytest

from repro.utils.striped_lock import StripedLock, stripe_key


class TestConstruction:
    def test_invalid_stripe_count(self):
        with pytest.raises(ValueError):
            StripedLock(num_stripes=0)

    def test_stripe_count_exposed(self):
        assert StripedLock(num_stripes=64).num_stripes == 64


class TestStripeMapping:
    def test_same_key_same_stripe(self):
        lock = StripedLock(num_stripes=16)
        key = b"\x01\x02\x03\x04"
        assert lock.stripe_for(key) == lock.stripe_for(key)

    def test_stripe_in_range(self):
        lock = StripedLock(num_stripes=8)
        for i in range(100):
            stripe = lock.stripe_for(f"key-{i}".encode())
            assert 0 <= stripe < 8

    def test_single_stripe_maps_everything_to_zero(self):
        lock = StripedLock(num_stripes=1)
        assert lock.stripe_for(b"abc") == 0
        assert lock.stripe_for(b"\xff" * 20) == 0


class TestLocking:
    def test_lock_for_is_the_stripe_of_its_key(self):
        lock = StripedLock(num_stripes=4)
        with lock.lock_for(b"key"):
            assert lock.lock_at(stripe_key(b"key")).locked()
        assert not lock.lock_at(stripe_key(b"key")).locked()

    def test_lock_at_wraps_modulo_num_stripes(self):
        lock = StripedLock(num_stripes=4)
        assert lock.lock_at(6) is lock.lock_at(2)
        assert lock.lock_at(6) is not lock.lock_at(3)

    def test_concurrent_counter_updates_are_consistent(self):
        # A shared counter guarded by the striped lock must not lose updates.
        lock = StripedLock(num_stripes=8)
        counter = {"value": 0}
        key = b"shared"

        def work():
            for _ in range(2000):
                with lock.lock_for(key):
                    counter["value"] += 1

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter["value"] == 8000

    def test_different_stripes_do_not_deadlock_when_nested(self):
        lock = StripedLock(num_stripes=4)
        done = []

        def work():
            with lock.lock_at(0):
                with lock.lock_at(1):
                    done.append(True)

        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=5)
        assert done == [True]
