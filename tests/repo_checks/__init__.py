"""The repo's invariant checkers: AST passes over the ``repro`` source tree.

* :mod:`.lock_discipline` -- ``# guarded-by`` / ``# holds-lock`` annotated
  attributes may only be touched under their lock;
* :mod:`.stats_purity` -- read paths (restore, routing samples) only use
  stats-free ``peek`` probes;
* :mod:`.streaming` -- the ingest path never materialises a whole stream;
* :mod:`.taxonomy` -- every raise lands in the ReproError hierarchy.

:mod:`.registry` scopes the last three.  The run-time half of the lock
contract ships with the library (:mod:`repro.utils.guarded_lock`); these
checkers do not, so importing ``repro`` loads none of them.  Run them with
``PYTHONPATH=src python -m pytest -q tests/test_analysis_checkers.py``.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Tuple, Type

import repro

from .common import AnalysisError, Checker, Finding, iter_modules
from .lock_discipline import LockDisciplineChecker
from .stats_purity import StatsPurityChecker
from .streaming import StreamingDisciplineChecker
from .taxonomy import ErrorTaxonomyChecker

CHECKERS: Tuple[Type[Checker], ...] = (
    LockDisciplineChecker,
    StatsPurityChecker,
    StreamingDisciplineChecker,
    ErrorTaxonomyChecker,
)


def default_root() -> Path:
    """The ``repro`` package directory (the tree under contract)."""
    return Path(repro.__file__).resolve().parent


def run_checks() -> List[Finding]:
    """Run every checker over the live ``repro`` tree; return every finding.

    A registry scope that matches no file or definition raises
    :class:`AnalysisError`: a stale name would otherwise drop its code out of
    the contract without a finding.
    """
    modules = list(iter_modules(default_root()))
    checkers = [checker() for checker in CHECKERS]
    stale = [
        f"{checker.name}: {scope}"
        for checker in checkers
        for scope in checker.stale_scopes(modules)
    ]
    if stale:
        raise AnalysisError(
            "registry scopes match nothing in the source tree: " + "; ".join(stale)
        )
    findings = [
        finding
        for checker in checkers
        for module in modules
        for finding in checker.check_module(module)
    ]
    findings.sort(key=lambda finding: (finding.path, finding.line, finding.checker))
    return findings
