"""The director: backup-session and file-recipe management.

"Director ... is responsible for keeping track of files on the deduplication
server, and managing file information to support data backup and restore.  It
consists of backup session management and file recipe management."
(paper Section 3.1)
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.runtime import GuardLock, guarded_lock
from repro.cluster.recipe import FileRecipe
from repro.errors import RecipeError

SESSION_EXPORT_VERSION = 2
"""Schema version of :meth:`Director.export_session` payloads (2: columns)."""

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

    # ------------------------------------------------------------------ #
    # recipe management
    # ------------------------------------------------------------------ #

    def record_file_chunks(
        self, session_id: str, path: str, fingerprints: Sequence[bytes], lengths: Sequence[int],
        node_ids: Sequence[int], container_ids: Sequence[Optional[int]],
    ) -> FileRecipe:
        """Append four aligned chunk columns (see :meth:`FileRecipe.extend`)
        to the recipe of ``path`` in ``session_id``."""
        with self._lock:
            session = self.get_session(session_id)
            if session.closed:
                raise RecipeError(f"session {session_id} is closed; cannot record more files")
            recipes = self._recipes[session_id]
            recipe = recipes.get(path)
            if recipe is None:
                recipe = FileRecipe(path=path, session_id=session_id)
            recipe.extend(fingerprints, lengths, node_ids, container_ids)
            if path not in recipes:
                recipes[path] = recipe
                session.file_paths.append(path)
            return recipe

    def get_recipe(self, session_id: str, path: str) -> FileRecipe:
        with self._lock:
            self.get_session(session_id)
            recipe = self._recipes[session_id].get(path)
        if recipe is None:
            raise RecipeError(f"no recipe for {path!r} in session {session_id}")
        return recipe

    def files_in_session(self, session_id: str) -> List[str]:
        return list(self.get_session(session_id).file_paths)

    # ------------------------------------------------------------------ #
    # session export / import
    # ------------------------------------------------------------------ #

    def export_session(self, session_id: str) -> Dict[str, Any]:
        """Serialise one session's recipes to a JSON-ready dictionary.

        The payload is self-contained -- session header plus every file
        recipe as its four columns (hex ``fingerprints``, and ``lengths``,
        ``node_ids`` and ``container_ids``) -- so a fresh director in another
        process can re-learn the session after a crash (the recovery
        counterpart of the storage plane's manifest journal).
        """
        with self._lock:
            session = self.get_session(session_id)
            recipes = list(self._recipes[session_id].values())
            files = [
                {
                    "path": recipe.path,
                    "fingerprints": list(map(bytes.hex, recipe.fingerprints)),
                    "lengths": list(recipe.lengths),
                    "node_ids": list(recipe.node_ids),
                    "container_ids": list(recipe.container_ids),
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

        Raises :class:`RecipeError` on schema mismatch (an older version or
        unequal columns included) or if the session id is already registered.
        The session counter is bumped past imported numeric ids so later
        :meth:`open_session` calls cannot collide.
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
                recipe = FileRecipe(
                    path=path,
                    session_id=session_id,
                    fingerprints=list(map(bytes.fromhex, entry["fingerprints"])),
                    lengths=list(map(int, entry["lengths"])),
                    node_ids=list(map(int, entry["node_ids"])),
                    container_ids=[
                        None if value is None else int(value) for value in entry["container_ids"]
                    ],
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise RecipeError(f"malformed file entry in session export: {exc}") from exc
            if path in recipes:
                raise RecipeError(f"session export names {path!r} twice")
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

    def file_count(self) -> int:
        with self._lock:
            return sum(len(recipes) for recipes in self._recipes.values())
