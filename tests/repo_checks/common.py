"""Shared infrastructure for the repo-specific invariant checkers.

Every checker consumes a parsed :class:`SourceModule` -- the AST plus a
per-line comment map -- and produces :class:`Finding` records.  The comment
map is what carries the repo's annotation grammar:

``# guarded-by: <lock>``
    On an attribute-defining line: accesses to that attribute outside the
    named lock are flagged by the lock-discipline checker.
``# holds-lock: <lock>``
    On (or directly above) a ``def`` line: the method's contract is that
    callers hold the named lock; accesses inside are considered guarded and
    internal call sites are checked.
``# unguarded-ok: <reason>`` / ``# stats-ok: <reason>`` /
``# streaming-ok: <reason>`` / ``# taxonomy-ok: <reason>``
    Line-level waivers for the respective checker; each must carry a reason.
"""

from __future__ import annotations

import ast
import io
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence


class AnalysisError(Exception):
    """A checker cannot do its job: an unreadable or unparseable source file,
    a malformed annotation, or a registry scope that matches nothing."""


@dataclass(frozen=True)
class Finding:
    """One invariant violation located in the source tree."""

    checker: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.checker}] {self.message}"


@dataclass
class SourceModule:
    """A parsed source file: path, AST, raw lines and per-line comments."""

    path: Path
    relpath: str
    tree: ast.Module
    lines: List[str]
    comments: Dict[int, str] = field(default_factory=dict)

    def comment_at(self, line: int) -> str:
        return self.comments.get(line, "")

    def has_waiver(self, node: ast.AST, marker: str) -> bool:
        """Whether any line spanned by ``node`` carries the waiver ``marker``."""
        start = getattr(node, "lineno", None)
        if start is None:
            return False
        end = getattr(node, "end_lineno", None) or start
        return any(marker in self.comments.get(line, "") for line in range(start, end + 1))


def extract_comments(source: str) -> Dict[int, str]:
    """Map line number -> comment text (without ``#``) for one source blob."""
    comments: Dict[int, str] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string.lstrip("#").strip()
    except tokenize.TokenizeError:  # pragma: no cover - non-parseable source
        pass
    return comments


def parse_annotation(comment: str, marker: str) -> Optional[str]:
    """Extract the value of an ``<marker>: <value>`` annotation comment.

    Returns the first whitespace-delimited token after the marker, or ``None``
    when the comment does not carry the marker.
    """
    if marker not in comment:
        return None
    _, _, rest = comment.partition(marker)
    rest = rest.lstrip(":").strip()
    if not rest:
        raise AnalysisError(f"annotation {marker!r} carries no value: {comment!r}")
    return rest.split()[0].rstrip(",;")


def load_module(path: Path, root: Path) -> SourceModule:
    """Parse one source file into a :class:`SourceModule`."""
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise AnalysisError(f"cannot read {path}: {exc}") from exc
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        raise AnalysisError(f"cannot parse {path}: {exc}") from exc
    return SourceModule(
        path=path,
        relpath=path.relative_to(root).as_posix(),
        tree=tree,
        lines=source.splitlines(),
        comments=extract_comments(source),
    )


def iter_modules(root: Path) -> Iterator[SourceModule]:
    """Parse every ``*.py`` file under ``root`` (sorted, deterministic)."""
    if not root.is_dir():
        raise AnalysisError(f"source root {root} does not exist")
    for path in sorted(root.rglob("*.py")):
        yield load_module(path, root)


class Checker:
    """Base class: a named pass over parsed source modules."""

    name = "checker"

    def check_module(self, module: SourceModule) -> List[Finding]:
        raise NotImplementedError

    def check_tree(self, root: Path) -> List[Finding]:
        findings: List[Finding] = []
        for module in iter_modules(root):
            findings.extend(self.check_module(module))
        return findings

    def stale_scopes(self, modules: Sequence[SourceModule]) -> List[str]:
        """Registry entries scoping this checker that match nothing in
        ``modules`` (none, for a checker the registry does not scope)."""
        return []
