"""Offline spill-plane recovery: replay manifest journals, report, exit.

``python -m repro.storage.recovery <storage_dir>`` walks a framework storage
directory (one ``node-<id>`` subdirectory per node, each optionally holding a
``replicas/`` spill plane) -- or a single backend directory containing a
``manifest.jsonl`` -- and replays every journal it finds.  Replay is the same
crash-consistency pass the in-process path runs
(:meth:`~repro.storage.backends.FileContainerBackend.replay_journal`): torn
journal tails are truncated away, orphaned ``.cdata`` files and those whose
length or CRC disagrees with their record are unlinked, and what remains is
the exact set of fully-acknowledged sealed containers.

This is storage-only triage.  It does not rebuild node indexes or director
recipes; use :meth:`repro.core.framework.SigmaDedupe.recover_storage` for the
full disaster path.  Running it is idempotent -- a clean plane replays to
itself.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from repro.errors import ReproError
from repro.storage.backends import FileContainerBackend, SpillRecovery
from repro.storage.journal import MANIFEST_NAME


def discover_planes(storage_dir: Path) -> Iterator[Path]:
    """Yield every journaled spill plane under ``storage_dir``.

    A plane is any directory holding a ``manifest.jsonl``: the directory
    itself, its ``node-<id>`` children, and each node's ``replicas/``
    subdirectory.  Yields in deterministic (sorted) order.
    """
    if (storage_dir / MANIFEST_NAME).is_file():
        yield storage_dir
    for node_dir in sorted(storage_dir.glob("node-*")):
        if (node_dir / MANIFEST_NAME).is_file():
            yield node_dir
        for child in sorted(node_dir.glob("*/")):
            if (child / MANIFEST_NAME).is_file():
                yield child


def recover_plane(plane_dir: Path) -> Tuple[Path, SpillRecovery]:
    """Replay one plane's journal and release the backend immediately."""
    backend = FileContainerBackend.recover(plane_dir)
    try:
        recovery = backend.last_recovery
        if recovery is None:  # pragma: no cover - recover() always sets it
            raise ReproError(f"recovery of {plane_dir} produced no report")
        return plane_dir, recovery
    finally:
        backend.close()


def recover_tree(storage_dir: Path) -> List[Tuple[Path, SpillRecovery]]:
    """Replay every plane under ``storage_dir``; see :func:`discover_planes`."""
    return [recover_plane(plane_dir) for plane_dir in discover_planes(storage_dir)]


def _format_report(plane_dir: Path, recovery: SpillRecovery) -> str:
    return (
        f"{plane_dir}: {len(recovery.containers)} containers "
        f"({recovery.recovered_chunks} chunks, {recovery.recovered_bytes} bytes); "
        f"discarded {recovery.records_discarded} torn journal lines, "
        f"dropped {recovery.records_dropped} damaged spills, "
        f"removed {len(recovery.orphans_removed)} orphans"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.storage.recovery",
        description="Replay spill manifest journals after a crash.",
    )
    parser.add_argument("storage_dir", type=Path, help="framework or backend storage directory")
    options = parser.parse_args(argv)
    if not options.storage_dir.is_dir():
        print(f"error: {options.storage_dir} is not a directory", file=sys.stderr)
        return 2
    try:
        reports = recover_tree(options.storage_dir)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not reports:
        print(f"no manifest journals found under {options.storage_dir}", file=sys.stderr)
        return 1
    for plane_dir, recovery in reports:
        print(_format_report(plane_dir, recovery))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by the CI kill-9 job
    sys.exit(main())
