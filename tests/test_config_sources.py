"""Every environment variable the library reads has exactly one reader.

An AST scan of ``src/repro`` finds each ``os.environ`` / ``os.getenv`` read
and pins the map from variable to the one function that reads it, so a
second place resolving the same setting fails tier-1.
"""

import ast
import importlib
from collections import defaultdict
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent

READERS = {
    "REPRO_INGEST_WORKERS": {"repro.parallel.engine.resolve_workers"},
    "REPRO_CONTAINER_BACKEND": {"repro.node.dedupe_node.resolve_container_backend"},
    "REPRO_CONTAINER_COMPRESSION": {"repro.storage.compression.resolve_compression"},
    "REPRO_LOCK_ASSERTS": {"repro.analysis.runtime.lock_asserts_enabled"},
    "REPRO_TEARDOWN_TOKEN": {"repro.parallel.shm.segment_tag"},
    "CC": {"repro.chunking.accel._compile"},
    "XDG_CACHE_HOME": {"repro.chunking.accel._load"},
}


WHOLE_ENVIRONMENT = "<whole environment>"
"""Pseudo-variable for reads of every variable at once (``os.environ.copy()``,
``dict(os.environ)``, ...); no function may do that, so it is not in READERS."""

KEYED_READS = {"get", "setdefault", "pop"}
"""``os.environ`` methods that read the variable named by their first argument."""

WRITES = {"update"}
"""``os.environ`` methods that only write."""


def is_environ(node):
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "environ"
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


def read_key(node, parent, grandparent):
    """The key expression ``node`` reads from the environment, ``None`` if it
    reads nothing, or :data:`WHOLE_ENVIRONMENT`.

    Every use of ``os.environ`` counts as a read except a keyed store or
    delete and an ``update``; ``os.getenv`` reads its first argument.
    """
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "getenv"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "os"
    ):
        return node.args[0]
    if not is_environ(node):
        return None
    if isinstance(parent, ast.Subscript) and parent.value is node:
        return parent.slice if isinstance(parent.ctx, ast.Load) else None
    if isinstance(parent, ast.Compare) and node in parent.comparators:
        return parent.left
    if (
        isinstance(parent, ast.Attribute)
        and isinstance(grandparent, ast.Call)
        and grandparent.func is parent
    ):
        if parent.attr in KEYED_READS:
            return grandparent.args[0]
        if parent.attr in WRITES:
            return None
    return WHOLE_ENVIRONMENT


def scoped_reads(node, scope, parent=None):
    """``(qualified scope, key expression)`` for every read under ``node``."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        key = read_key(child, node, parent)
        if key is not None:
            yield scope, key
        yield from scoped_reads(child, inner, node)


def environment_readers():
    readers = defaultdict(set)
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        module_name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for scope, key in scoped_reads(ast.parse(path.read_text()), module_name):
            if key is WHOLE_ENVIRONMENT:
                variable = key
            elif isinstance(key, ast.Constant):
                variable = key.value
            else:
                # A module-level name (``ENV_...``), resolved where it is read.
                variable = getattr(importlib.import_module(module_name), ast.unparse(key))
            readers[variable].add(scope)
    return dict(readers)


def test_each_environment_variable_has_one_reader():
    assert environment_readers() == READERS


@pytest.mark.parametrize(
    "source, variable",
    [
        ('os.environ.get("X")', "X"),
        ('os.getenv("X", "")', "X"),
        ('os.environ["X"]', "X"),
        ('"X" in os.environ', "X"),
        ('os.environ.setdefault("X", "1")', "X"),
        ('os.environ.pop("X", None)', "X"),
        ("os.environ.copy()", WHOLE_ENVIRONMENT),
        ("dict(os.environ)", WHOLE_ENVIRONMENT),
        ('os.environ["X"] = "1"', None),
        ('del os.environ["X"]', None),
        ('os.environ.update(X="1")', None),
    ],
)
def test_scanner_sees_every_form_of_read(source, variable):
    reads = [key for _, key in scoped_reads(ast.parse(f"def f():\n    {source}"), "m")]
    if variable is None:
        assert reads == []
    else:
        assert [getattr(key, "value", key) for key in reads] == [variable]
