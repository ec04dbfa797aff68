"""Command-line entry point: ``python -m repro.analysis --check all``.

Runs the repo-specific invariant checkers over the ``repro`` source tree
(or any ``--root``) and exits non-zero when a contract is violated -- the
``static-analysis`` CI job gates on exactly this.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import repro
from repro.analysis.common import Checker, Finding, iter_modules
from repro.analysis.lock_discipline import LockDisciplineChecker
from repro.analysis.stats_purity import StatsPurityChecker
from repro.analysis.streaming import StreamingDisciplineChecker
from repro.analysis.taxonomy import ErrorTaxonomyChecker
from repro.errors import AnalysisError

#: Registered checkers by CLI name (aliases included).
CHECKERS: Dict[str, Callable[[], Checker]] = {
    "lock-discipline": LockDisciplineChecker,
    "stats-purity": StatsPurityChecker,
    "streaming": StreamingDisciplineChecker,
    "taxonomy": ErrorTaxonomyChecker,
}

_ALIASES = {
    "locks": "lock-discipline",
    "lock": "lock-discipline",
    "stats": "stats-purity",
    "streaming-discipline": "streaming",
    "errors": "taxonomy",
    "error-taxonomy": "taxonomy",
}


def default_root() -> Path:
    """The installed ``repro`` package directory (the tree under contract)."""
    return Path(repro.__file__).resolve().parent


def resolve_checkers(names: Sequence[str]) -> List[Checker]:
    selected: List[str] = []
    for name in names:
        for part in name.split(","):
            part = part.strip()
            if not part:
                continue
            if part == "all":
                selected.extend(CHECKERS)
                continue
            canonical = _ALIASES.get(part, part)
            if canonical not in CHECKERS:
                raise AnalysisError(
                    f"unknown checker {part!r}; expected one of "
                    f"{sorted(CHECKERS)} or 'all'"
                )
            selected.append(canonical)
    if not selected:
        selected = list(CHECKERS)
    seen: List[str] = []
    for name in selected:
        if name not in seen:
            seen.append(name)
    return [CHECKERS[name]() for name in seen]


def run_checks(names: Sequence[str], root: Optional[Path] = None) -> List[Finding]:
    """Run the named checkers (or all) over ``root``; return every finding.

    Over the live package tree -- the tree the registry describes -- a
    registered scope that matches no file or definition raises
    :class:`~repro.errors.AnalysisError`: a stale name would otherwise drop
    its code out of the contract without a finding.
    """
    live = default_root()
    root = root or live
    checkers = resolve_checkers(names)
    if root.resolve() == live:
        modules = list(iter_modules(root))
        stale = [
            f"{type(checker).name}: {scope}"
            for checker in checkers
            for scope in checker.stale_scopes(modules)
        ]
        if stale:
            raise AnalysisError(
                "registry scopes match nothing in the source tree: " + "; ".join(stale)
            )
    findings: List[Finding] = []
    for checker in checkers:
        findings.extend(checker.check_tree(root))
    findings.sort(key=lambda finding: (finding.path, finding.line, finding.checker))
    return findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Repo-specific invariant checkers (lock discipline, "
        "stats purity, streaming discipline, error taxonomy).",
    )
    parser.add_argument(
        "--check",
        action="append",
        default=[],
        metavar="NAME",
        help="checker to run: %(choices)s, or 'all' (repeatable, "
        "comma-separated lists accepted; default all)"
        % {"choices": ", ".join(sorted(CHECKERS))},
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="source tree to analyse (default: the installed repro package)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit findings as JSON instead of text",
    )
    options = parser.parse_args(argv)

    try:
        findings = run_checks(options.check, root=options.root)
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if options.json:
        print(
            json.dumps(
                [
                    {
                        "checker": finding.checker,
                        "path": finding.path,
                        "line": finding.line,
                        "message": finding.message,
                    }
                    for finding in findings
                ],
                indent=2,
            )
        )
    else:
        for finding in findings:
            print(finding.render())
        checked = ", ".join(
            sorted({type(checker).name for checker in resolve_checkers(options.check)})
        )
        status = "clean" if not findings else f"{len(findings)} finding(s)"
        print(f"repro.analysis [{checked}]: {status}")
    return 1 if findings else 0
