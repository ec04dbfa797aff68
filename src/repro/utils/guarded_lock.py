"""Runtime companion to the static lock-discipline checker.

The static checker (``tests/repo_checks/lock_discipline.py``) proves lock
discipline for code it can see; this module verifies it while the code
actually runs.  With ``REPRO_LOCK_ASSERTS=1`` in the environment, the guarded
classes construct :class:`OwnershipLock` wrappers instead of raw
``threading`` locks.  The wrappers track which thread currently owns the
lock, and the ``# holds-lock`` methods call :func:`assert_owned` on entry --
raising :class:`~repro.errors.LockOwnershipError` the moment a caller-holds
contract is violated under real concurrency.

With the variable unset (the default), :func:`guarded_lock` returns the raw
``threading`` primitive and :func:`assert_owned` reduces to one ``isinstance``
check, so production paths pay nothing measurable.
"""

from __future__ import annotations

import os
import threading
from typing import Optional, Union

from repro.errors import LockOwnershipError

ENV_LOCK_ASSERTS = "REPRO_LOCK_ASSERTS"
"""Environment variable enabling runtime lock-ownership assertions."""

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def lock_asserts_enabled() -> bool:
    """Whether ``REPRO_LOCK_ASSERTS`` asks for ownership-tracking locks."""
    return os.environ.get(ENV_LOCK_ASSERTS, "").strip().lower() in _TRUTHY


class OwnershipLock:
    """A mutex that knows which thread holds it.

    Drop-in for ``threading.Lock`` / ``threading.RLock`` (context manager,
    ``acquire`` / ``release``) with two additions: the owning thread's ident
    is tracked, and :meth:`held_by_current_thread` answers the question the
    debug assertions ask.
    """

    __slots__ = ("name", "_lock", "_reentrant", "_owner", "_depth")

    def __init__(self, name: str, reentrant: bool = False) -> None:
        self.name = name
        self._reentrant = reentrant
        self._lock: Union[threading.Lock, threading.RLock] = (
            threading.RLock() if reentrant else threading.Lock()
        )
        self._owner: Optional[int] = None
        self._depth = 0

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            # Only the thread that holds the mutex writes these fields.
            self._owner = threading.get_ident()
            self._depth += 1
        return acquired

    def release(self) -> None:
        if self._owner != threading.get_ident():
            raise LockOwnershipError(
                f"{self.name} released by thread {threading.get_ident()} "
                f"which does not own it"
            )
        self._depth -= 1
        if self._depth == 0:
            self._owner = None
        self._lock.release()

    def __enter__(self) -> "OwnershipLock":
        self.acquire()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.release()

    def held_by_current_thread(self) -> bool:
        return self._owner == threading.get_ident()


#: What the guarded classes store: a raw threading primitive in production,
#: an OwnershipLock under REPRO_LOCK_ASSERTS=1.
GuardLock = Union[threading.Lock, threading.RLock, OwnershipLock]


def guarded_lock(name: str, reentrant: bool = False) -> GuardLock:
    """Construct the lock for a ``# guarded-by`` annotated class.

    Returns the plain ``threading`` primitive unless ``REPRO_LOCK_ASSERTS``
    is set at construction time, in which case an ownership-tracking wrapper
    is returned so :func:`assert_owned` can verify holds-lock contracts.
    """
    if lock_asserts_enabled():
        return OwnershipLock(name, reentrant=reentrant)
    return threading.RLock() if reentrant else threading.Lock()


def assert_owned(lock: GuardLock, where: str) -> None:
    """Debug assertion that the calling thread holds ``lock``.

    Placed at the entry of ``# holds-lock`` methods.  A no-op (a single
    ``isinstance`` check) unless the lock is an :class:`OwnershipLock`, i.e.
    unless the process runs with ``REPRO_LOCK_ASSERTS=1``.
    """
    if isinstance(lock, OwnershipLock) and not lock.held_by_current_thread():
        raise LockOwnershipError(
            f"{where} requires {lock.name} but thread "
            f"{threading.get_ident()} does not hold it"
        )
