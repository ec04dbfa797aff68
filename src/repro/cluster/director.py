"""The director: backup-session and file-recipe management.

"Director ... is responsible for keeping track of files on the deduplication
server, and managing file information to support data backup and restore.  It
consists of backup session management and file recipe management."
(paper Section 3.1)
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.analysis.runtime import GuardLock, guarded_lock
from repro.cluster.recipe import ChunkLocation, FileRecipe
from repro.errors import RecipeError

SESSION_EXPORT_VERSION = 1
"""Schema version of :meth:`Director.export_session` payloads."""

_SESSION_ID_PATTERN = re.compile(r"^session-(\d+)$")


@dataclass
class BackupSession:
    """A group of files backed up together by one client.

    Attributes
    ----------
    session_id:
        Unique identifier, assigned by the director.
    client_id:
        The backup client that owns the session.
    label:
        Free-form human label (e.g. ``"monthly-2012-05"``).
    """

    session_id: str
    client_id: str
    label: str = ""
    closed: bool = False
    file_paths: List[str] = field(default_factory=list)

    @property
    def file_count(self) -> int:
        return len(self.file_paths)


class Director:
    """Tracks backup sessions and file recipes for the whole cluster.

    Session bookkeeping and recipe recording are guarded by one re-entrant
    lock, so concurrent session writers -- parallel ingest consumers,
    overlapping backup clients -- can open sessions and append chunk
    locations without corrupting each other's recipes.
    """

    def __init__(self):
        self._sessions: Dict[str, BackupSession] = {}  # guarded-by: _lock
        self._recipes: Dict[str, Dict[str, FileRecipe]] = {}  # guarded-by: _lock
        self._session_counter = 0  # guarded-by: _lock
        self._lock: GuardLock = guarded_lock("Director._lock", reentrant=True)

    # ------------------------------------------------------------------ #
    # session management
    # ------------------------------------------------------------------ #

    def open_session(self, client_id: str, label: str = "") -> BackupSession:
        """Create a new backup session for ``client_id``."""
        with self._lock:
            self._session_counter += 1
            session_id = f"session-{self._session_counter:06d}"
            session = BackupSession(session_id=session_id, client_id=client_id, label=label)
            self._sessions[session_id] = session
            self._recipes[session_id] = {}
            return session

    def close_session(self, session_id: str) -> None:
        with self._lock:
            session = self.get_session(session_id)
            session.closed = True

    def get_session(self, session_id: str) -> BackupSession:
        with self._lock:
            try:
                return self._sessions[session_id]
            except KeyError:
                raise RecipeError(f"unknown backup session {session_id!r}") from None

    def sessions(self) -> List[BackupSession]:
        with self._lock:
            return list(self._sessions.values())

    def sessions_for_client(self, client_id: str) -> List[BackupSession]:
        with self._lock:
            return [s for s in self._sessions.values() if s.client_id == client_id]

    # ------------------------------------------------------------------ #
    # recipe management
    # ------------------------------------------------------------------ #

    def record_file_chunks(
        self, session_id: str, path: str, locations: List[ChunkLocation]
    ) -> FileRecipe:
        """Append chunk locations to the recipe of ``path`` in ``session_id``."""
        with self._lock:
            session = self.get_session(session_id)
            if session.closed:
                raise RecipeError(f"session {session_id} is closed; cannot record more files")
            recipes = self._recipes[session_id]
            recipe = recipes.get(path)
            if recipe is None:
                recipe = FileRecipe(path=path, session_id=session_id)
                recipes[path] = recipe
                session.file_paths.append(path)
            recipe.extend(locations)
            return recipe

    def get_recipe(self, session_id: str, path: str) -> FileRecipe:
        with self._lock:
            self.get_session(session_id)
            recipe = self._recipes[session_id].get(path)
        if recipe is None:
            raise RecipeError(f"no recipe for {path!r} in session {session_id}")
        return recipe

    def has_recipe(self, session_id: str, path: str) -> bool:
        with self._lock:
            return session_id in self._recipes and path in self._recipes[session_id]

    def iter_recipes(self, session_id: str) -> Iterator[FileRecipe]:
        # Snapshot under the lock so iteration never races a concurrent
        # record_file_chunks inserting into the same session.
        with self._lock:
            self.get_session(session_id)
            return iter(list(self._recipes[session_id].values()))

    def files_in_session(self, session_id: str) -> List[str]:
        return list(self.get_session(session_id).file_paths)

    # ------------------------------------------------------------------ #
    # session export / import
    # ------------------------------------------------------------------ #

    def export_session(self, session_id: str) -> Dict[str, Any]:
        """Serialise one session's recipes to a JSON-ready dictionary.

        The payload is self-contained -- session header plus every file
        recipe with ``[fingerprint-hex, length, node_id, container_id]``
        chunk locations -- so a fresh director in another process can
        re-learn the session after a crash (the recovery counterpart of the
        storage plane's manifest journal).
        """
        with self._lock:
            session = self.get_session(session_id)
            recipes = list(self._recipes[session_id].values())
            files = [
                {
                    "path": recipe.path,
                    "chunks": [
                        [
                            location.fingerprint.hex(),
                            location.length,
                            location.node_id,
                            location.container_id,
                        ]
                        for location in recipe.chunks
                    ],
                }
                for recipe in recipes
            ]
            return {
                "version": SESSION_EXPORT_VERSION,
                "session": {
                    "session_id": session.session_id,
                    "client_id": session.client_id,
                    "label": session.label,
                    "closed": session.closed,
                },
                "files": files,
            }

    def import_session(self, payload: Dict[str, Any]) -> BackupSession:
        """Re-register an exported session (and its recipes) with this director.

        Raises :class:`RecipeError` on schema mismatch or if the session id
        is already registered.  The session counter is bumped past imported
        numeric ids so later :meth:`open_session` calls cannot collide.
        """
        version = payload.get("version")
        if version != SESSION_EXPORT_VERSION:
            raise RecipeError(
                f"unsupported session export version {version!r} "
                f"(expected {SESSION_EXPORT_VERSION})"
            )
        try:
            header = payload["session"]
            session_id = str(header["session_id"])
            session = BackupSession(
                session_id=session_id,
                client_id=str(header["client_id"]),
                label=str(header.get("label", "")),
                closed=bool(header.get("closed", False)),
            )
            files = payload["files"]
        except (KeyError, TypeError) as exc:
            raise RecipeError(f"malformed session export payload: {exc}") from exc
        recipes: Dict[str, FileRecipe] = {}
        for entry in files:
            try:
                path = str(entry["path"])
                locations = [
                    ChunkLocation(
                        fingerprint=bytes.fromhex(chunk[0]),
                        length=int(chunk[1]),
                        node_id=int(chunk[2]),
                        container_id=None if chunk[3] is None else int(chunk[3]),
                    )
                    for chunk in entry["chunks"]
                ]
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                raise RecipeError(f"malformed file entry in session export: {exc}") from exc
            if path in recipes:
                raise RecipeError(f"session export names {path!r} twice")
            recipe = FileRecipe(path=path, session_id=session_id, chunks=locations)
            recipe.validate()
            recipes[path] = recipe
            session.file_paths.append(path)
        with self._lock:
            if session_id in self._sessions:
                raise RecipeError(
                    f"cannot import session {session_id!r}: already registered"
                )
            self._sessions[session_id] = session
            self._recipes[session_id] = recipes
            match = _SESSION_ID_PATTERN.match(session_id)
            if match is not None:
                self._session_counter = max(self._session_counter, int(match.group(1)))
            return session

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #

    def total_logical_bytes(self, session_id: Optional[str] = None) -> int:
        """Logical bytes recorded in recipes (one session, or all sessions)."""
        with self._lock:
            if session_id is not None:
                self.get_session(session_id)
                return sum(recipe.logical_size for recipe in self._recipes[session_id].values())
            return sum(
                recipe.logical_size
                for recipes in self._recipes.values()
                for recipe in recipes.values()
            )

    def file_count(self) -> int:
        with self._lock:
            return sum(len(recipes) for recipes in self._recipes.values())
