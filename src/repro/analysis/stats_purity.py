"""Stats-purity checker: the read path may only use stats-free probes.

Backup-path statistics (cache hit ratios, LRU recency, simulated disk-index
I/O, similarity-index counters) are the very quantities the evaluation
measures.  Restores and routing samples are therefore *read-only* by
contract: they resolve chunks through ``peek`` / ``peek_many`` and plain
container reads, never through the counting ``lookup`` / ``match`` variants.

This checker enforces that contract: inside the read-path scopes declared in
:mod:`repro.analysis.registry`, any call to a statistics-advancing method
name (``STATS_MUTATING_CALLS``) is flagged.  A deliberate exception carries a
``# stats-ok: <reason>`` waiver on the call line.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.common import Checker, Finding, SourceModule
from repro.analysis.registry import READ_PATH_SCOPES, STATS_MUTATING_CALLS

WAIVER = "stats-ok"


class StatsPurityChecker(Checker):
    """Flag counting lookups inside read-path scopes."""

    name = "stats-purity"

    def __init__(
        self,
        scopes: Optional[Dict[str, Tuple[str, ...]]] = None,
        forbidden: Optional[frozenset] = None,
    ) -> None:
        self.scopes = READ_PATH_SCOPES if scopes is None else scopes
        self.forbidden = STATS_MUTATING_CALLS if forbidden is None else forbidden

    def _scope_names(self, module: SourceModule) -> Optional[Tuple[str, ...]]:
        for suffix, names in self.scopes.items():
            if module.relpath.endswith(suffix):
                return names
        return None

    def check_module(self, module: SourceModule) -> List[Finding]:
        names = self._scope_names(module)
        if names is None:
            return []
        findings: List[Finding] = []
        if "*" in names:
            findings.extend(self._check_scope(module, module.tree, scope="module"))
            return findings
        wanted = set(names)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    qualname = f"{node.name}.{method.name}"
                    if qualname in wanted:
                        findings.extend(self._check_scope(module, method, scope=qualname))
        return findings

    def stale_scopes(self, modules: Sequence[SourceModule]) -> List[str]:
        stale: List[str] = []
        for suffix, names in self.scopes.items():
            matching = [module for module in modules if module.relpath.endswith(suffix)]
            if not matching:
                stale.append(suffix)
                continue
            defined = {
                f"{node.name}.{method.name}"
                for module in matching
                for node in ast.walk(module.tree)
                if isinstance(node, ast.ClassDef)
                for method in node.body
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            stale.extend(
                f"{suffix}::{name}"
                for name in names
                if name != "*" and name not in defined
            )
        return stale

    def _check_scope(self, module: SourceModule, root: ast.AST, scope: str) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(root):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in self.forbidden:
                continue
            if module.has_waiver(node, WAIVER):
                continue
            findings.append(
                Finding(
                    checker=self.name,
                    path=module.relpath,
                    line=node.lineno,
                    message=(
                        f"read-path scope {scope} calls counting method "
                        f"{func.attr!r}; use the stats-free peek variants instead"
                    ),
                )
            )
        return findings
