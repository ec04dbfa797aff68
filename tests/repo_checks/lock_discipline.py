"""Lock-discipline race detector.

Attributes annotated ``# guarded-by: <lock>`` on their defining line may only
be read or written inside code that *statically* holds the named lock:

* lexically inside ``with self.<lock>:`` (or, for striped locks, inside
  ``with self.<lock>.lock_for(...)`` / ``.lock_at(...)``);
* or inside a method annotated ``# holds-lock: <lock>``, whose contract is
  that callers already hold the lock -- and every internal call site of such
  a method is itself checked for holding it.

Constructors (``__init__`` / ``__post_init__``) are exempt: the object is not
yet shared.  A deliberate unguarded access (racy O(1) reads on purpose,
read-only reporting snapshots) carries a ``# unguarded-ok: <reason>`` waiver
on the access line.

Local aliases are tracked: ``entries = self._entries`` binds a reference (not
a data access), and subsequent uses of ``entries`` are checked against the
attribute's guard; the same applies to lock aliases (``locks = self._locks``
followed by ``with locks.lock_for(...)``).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple, Union

from .common import Checker, Finding, SourceModule, parse_annotation

GUARDED_BY = "guarded-by"
HOLDS_LOCK = "holds-lock"
WAIVER = "unguarded-ok"

_CONSTRUCTORS = frozenset({"__init__", "__post_init__", "__new__"})
_STRIPED_ACQUIRERS = frozenset({"lock_for", "lock_at"})


def _self_attribute(node: ast.AST) -> Optional[str]:
    """``self.<attr>`` -> attr name, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class _ClassContracts:
    """The guarded-attribute and holds-lock registry of one class."""

    def __init__(self) -> None:
        self.guarded: Dict[str, str] = {}  # attribute -> lock name
        self.holds: Dict[str, str] = {}  # method name -> lock it requires

    @property
    def lock_names(self) -> Set[str]:
        return set(self.guarded.values()) | set(self.holds.values())


def _collect_contracts(module: SourceModule, cls: ast.ClassDef) -> _ClassContracts:
    contracts = _ClassContracts()

    def register_target(target: ast.AST, line: int) -> None:
        lock = parse_annotation(module.comment_at(line), GUARDED_BY)
        if lock is None:
            return
        attr = _self_attribute(target)
        if attr is None and isinstance(target, ast.Name):
            attr = target.id  # dataclass field in the class body
        if attr is not None:
            contracts.guarded[attr] = lock

    for statement in cls.body:
        if isinstance(statement, (ast.Assign, ast.AnnAssign)):
            targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
            for target in targets:
                register_target(target, statement.lineno)
        elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if statement.name in _CONSTRUCTORS:
                for node in ast.walk(statement):
                    if isinstance(node, (ast.Assign, ast.AnnAssign)):
                        targets = (
                            node.targets if isinstance(node, ast.Assign) else [node.target]
                        )
                        for target in targets:
                            register_target(target, node.lineno)
            lock = _method_holds(module, statement)
            if lock is not None:
                contracts.holds[statement.name] = lock
    return contracts


def _method_holds(module: SourceModule, method: ast.FunctionDef) -> Optional[str]:
    """The ``# holds-lock:`` annotation of a method, if any.

    Looked for on the ``def`` signature lines (through the first body
    statement) and on the line directly above the ``def`` / its decorators.
    """
    first = method.decorator_list[0].lineno if method.decorator_list else method.lineno
    body_start = method.body[0].lineno if method.body else method.lineno + 1
    for line in range(first - 1, body_start):
        lock = parse_annotation(module.comment_at(line), HOLDS_LOCK)
        if lock is not None:
            return lock
    return None


class _MethodVisitor(ast.NodeVisitor):
    """Walk one method body tracking which guards are lexically held."""

    def __init__(
        self,
        checker_name: str,
        module: SourceModule,
        cls: ast.ClassDef,
        contracts: _ClassContracts,
        held: Set[str],
    ) -> None:
        self.checker_name = checker_name
        self.module = module
        self.cls = cls
        self.contracts = contracts
        self.held = set(held)
        self.attr_aliases: Dict[str, str] = {}  # local name -> guarded attribute
        self.lock_aliases: Dict[str, str] = {}  # local name -> lock attribute
        self.findings: List[Finding] = []
        self._flagged: Set[Tuple[int, str]] = set()

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    def _flag(self, node: ast.AST, attr: str, lock: str, detail: str) -> None:
        key = (node.lineno, attr)
        if key in self._flagged or self.module.has_waiver(node, WAIVER):
            return
        self._flagged.add(key)
        self.findings.append(
            Finding(
                checker=self.checker_name,
                path=self.module.relpath,
                line=node.lineno,
                message=(
                    f"{self.cls.name}.{attr} is guarded by {lock!r} but {detail} "
                    f"without holding it"
                ),
            )
        )

    # ------------------------------------------------------------------ #
    # lock acquisition
    # ------------------------------------------------------------------ #

    def _acquired_lock(self, context_expr: ast.AST) -> Optional[str]:
        """The lock attribute a ``with`` item acquires, if recognisable."""
        # with self._lock:  /  with lock_alias:
        attr = _self_attribute(context_expr)
        if attr is not None and attr in self.contracts.lock_names:
            return attr
        if isinstance(context_expr, ast.Name):
            return self.lock_aliases.get(context_expr.id)
        # with self._locks.lock_for(key):  (and .lock_at)
        if isinstance(context_expr, ast.Call) and isinstance(context_expr.func, ast.Attribute):
            if context_expr.func.attr in _STRIPED_ACQUIRERS:
                owner = context_expr.func.value
                attr = _self_attribute(owner)
                if attr is not None and attr in self.contracts.lock_names:
                    return attr
                if isinstance(owner, ast.Name):
                    return self.lock_aliases.get(owner.id)
        return None

    def _visit_with(self, node: Union[ast.With, ast.AsyncWith]) -> None:
        acquired = []
        for item in node.items:
            lock = self._acquired_lock(item.context_expr)
            if lock is not None:
                acquired.append(lock)
            # The lock expression itself (self._lock) is not a data access.
            for child in ast.iter_child_nodes(item.context_expr):
                self.visit(child)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        self.held.update(acquired)
        for statement in node.body:
            self.visit(statement)
        for lock in acquired:
            self.held.discard(lock)

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    # ------------------------------------------------------------------ #
    # aliases and accesses
    # ------------------------------------------------------------------ #

    def visit_Assign(self, node: ast.Assign) -> None:
        attr = _self_attribute(node.value)
        if attr is not None and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if attr in self.contracts.lock_names:
                # Binding a lock reference is not a data access.
                self.lock_aliases[name] = attr
                return
            if attr in self.contracts.guarded:
                # Binding a reference to a guarded structure: uses of the
                # alias are checked instead of the binding itself.
                self.attr_aliases[name] = attr
                return
        for target in node.targets:
            self.visit(target)
        self.visit(node.value)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = _self_attribute(node)
        if attr is not None:
            lock = self.contracts.guarded.get(attr)
            if lock is not None and lock not in self.held:
                self._flag(node, attr, lock, "this access runs")
            self._check_internal_call(node)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        attr = self.attr_aliases.get(node.id)
        if attr is not None:
            lock = self.contracts.guarded[attr]
            if lock not in self.held:
                self._flag(node, attr, lock, f"the local alias {node.id!r} is used")

    def _check_internal_call(self, node: ast.Attribute) -> None:
        """Flag ``self.<method>()`` calls whose holds-lock contract is unmet."""
        if not isinstance(node.ctx, ast.Load):
            return
        lock = self.contracts.holds.get(node.attr)
        if lock is not None and lock not in self.held:
            if self.module.has_waiver(node, WAIVER):
                return
            key = (node.lineno, f"call:{node.attr}")
            if key in self._flagged:
                return
            self._flagged.add(key)
            self.findings.append(
                Finding(
                    checker=self.checker_name,
                    path=self.module.relpath,
                    line=node.lineno,
                    message=(
                        f"{self.cls.name}.{node.attr} requires {lock!r} "
                        f"(# holds-lock) but is called without holding it"
                    ),
                )
            )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # Nested closures inherit the lexical lock state of their definition
        # site (they are called within it in this codebase).
        for statement in node.body:
            self.visit(statement)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        for statement in node.body:
            self.visit(statement)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.visit(node.body)


class LockDisciplineChecker(Checker):
    """Static ``# guarded-by`` enforcement over every class of a module."""

    name = "lock-discipline"

    def check_module(self, module: SourceModule) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(module, node))
        return findings

    def _check_class(self, module: SourceModule, cls: ast.ClassDef) -> List[Finding]:
        contracts = _collect_contracts(module, cls)
        if not contracts.guarded and not contracts.holds:
            return []
        findings: List[Finding] = []
        for statement in cls.body:
            if not isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if statement.name in _CONSTRUCTORS:
                continue
            held: Set[str] = set()
            lock = contracts.holds.get(statement.name)
            if lock is not None:
                held.add(lock)
            visitor = _MethodVisitor(self.name, module, cls, contracts, held)
            for body_statement in statement.body:
                visitor.visit(body_statement)
            findings.extend(visitor.findings)
        return findings
