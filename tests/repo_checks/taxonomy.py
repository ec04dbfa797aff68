"""Error-taxonomy checker: every raise constructs a ReproError subclass.

Callers of the library are promised one catchable base class
(:class:`repro.errors.ReproError`).  That promise only holds if no code path
raises a bare builtin instead -- historically the argument-validation sites
raised ``ValueError`` directly, which :class:`repro.errors.ValidationError`
(a ``ReproError`` *and* ``ValueError``) now replaces.

Rules, per ``raise`` statement:

* bare ``raise`` -- allowed (re-raise inside an ``except`` block);
* ``raise <expr>`` where the expression is not a call and not a known
  exception class name -- allowed (re-raising a carried exception object,
  e.g. ``raise item.error``);
* ``raise SomeClass(...)`` / ``raise SomeClass`` -- ``SomeClass`` must be a
  ReproError subclass (discovered from :mod:`repro.errors` at runtime, so new
  subclasses join the taxonomy automatically) or a member of the small
  allowlist (``StopIteration``, ``AssertionError``, ``NotImplementedError``).

A deliberate exception carries ``# taxonomy-ok: <reason>`` on the raise line.
"""

from __future__ import annotations

import ast
import builtins
from typing import FrozenSet, List, Optional, Set

from .common import Checker, Finding, SourceModule
from .registry import TAXONOMY_ALLOWED_EXCEPTIONS

WAIVER = "taxonomy-ok"


def repro_error_names() -> Set[str]:
    """Every class name in the ReproError hierarchy, discovered at runtime."""
    from repro.errors import ReproError

    names: Set[str] = set()
    pending = [ReproError]
    while pending:
        cls = pending.pop()
        if cls.__name__ in names:
            continue
        names.add(cls.__name__)
        pending.extend(cls.__subclasses__())
    return names


def _builtin_exception_names() -> FrozenSet[str]:
    return frozenset(
        name
        for name in dir(builtins)
        if isinstance(getattr(builtins, name), type)
        and issubclass(getattr(builtins, name), BaseException)
    )


class ErrorTaxonomyChecker(Checker):
    """Flag raises of exception classes outside the ReproError hierarchy."""

    name = "error-taxonomy"

    def __init__(
        self,
        allowed: Optional[Set[str]] = None,
        extra_allowlist: Optional[FrozenSet[str]] = None,
    ) -> None:
        self.allowed = repro_error_names() if allowed is None else set(allowed)
        self.allowed |= TAXONOMY_ALLOWED_EXCEPTIONS if extra_allowlist is None else extra_allowlist
        self._builtin_exceptions = _builtin_exception_names()

    def _raised_class(self, exc: ast.AST) -> Optional[str]:
        """The class name a raise constructs, or None for re-raise forms."""
        if isinstance(exc, ast.Call):
            func = exc.func
            if isinstance(func, ast.Name):
                return func.id
            if isinstance(func, ast.Attribute):
                return func.attr
            return None
        if isinstance(exc, ast.Name):
            # ``raise SomeError`` without a call still instantiates the
            # class; a lowercase / unknown name is a re-raised local object.
            if exc.id in self._builtin_exceptions or exc.id in self.allowed:
                return exc.id
            if exc.id.endswith(("Error", "Exception", "Warning")):
                return exc.id
        return None

    def check_module(self, module: SourceModule) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            raised = self._raised_class(node.exc)
            if raised is None or raised in self.allowed:
                continue
            if module.has_waiver(node, WAIVER):
                continue
            findings.append(
                Finding(
                    checker=self.name,
                    path=module.relpath,
                    line=node.lineno,
                    message=(
                        f"raise {raised}(...) escapes the ReproError taxonomy; "
                        f"raise the closest ReproError subclass "
                        f"(ValidationError for argument checks)"
                    ),
                )
            )
        return findings
