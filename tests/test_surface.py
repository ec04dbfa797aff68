"""Every public name in ``src/repro`` has a caller, and every knob has a test.

An AST census of a source tree (``src/repro``, ``benchmarks/``,
``examples/``).  A public top-level function, public class or public method
defined in ``src/repro`` is *referenced* when its name appears in ``src/``,
``benchmarks/`` or ``examples/`` as a loaded name, an attribute, or an
identifier string (dotted and ``module:name`` strings count part by part).
Inside ``src/`` a use in the definition's own body, an ``import`` alias and an
``__all__`` entry do not count; nothing under ``tests/`` counts.  What is
unreferenced must sit in :data:`EXEMPT` with its reason, and an entry that no
longer covers anything unreferenced fails.

A second table, :data:`KNOBS`, names for every keyword with a default on the
classes in :data:`KNOB_CLASSES` one test or benchmark file whose call passes
it.

To scan an old commit: ``git archive REV | tar -x -C DIR``, then
``unreferenced(Path(DIR))`` from this module.
"""

import ast
import fnmatch
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

CALLER_DIRS = ("src", "benchmarks", "examples")
KNOB_CALLER_DIRS = ("tests", "benchmarks")

EXEMPT = {
    "FaultPlan": "the harness behind the fault-hook protocols (README, fault injection)",
    "SyntheticWorkload": "the golden-byte workload of test_workload_bytes.py",
    "TransportCluster.restart_node": "an operator operation: respawn a worker over its spill tree",
    "TransportCluster.worker_process": "the handle the SIGKILL legs of the crash checks kill",
    "SigmaDedupe.backup_stream": "README's streaming entry point",
    "DedupeNode.rebuild_indexes": "the compaction step session deletion and GC build on",
    "probability_handprints_intersect": "the paper's Eq. (5), the bound handprint tests check",
    "FileContainerBackend(fsync=)": "a durability flush no in-memory test can tell apart",
}

KNOB_CLASSES = (
    "SigmaDedupe",
    "BackupClient",
    "NodeConfig",
    "FileContainerBackend",
    "ParallelIngestEngine",
)

KNOBS = {
    "BackupClient(parallel_executor=)": "tests/test_client_restore.py",
    "BackupClient(partitioner_config=)": "tests/test_client_restore.py",
    "BackupClient(pipeline_depth=)": "tests/test_pipeline_window.py",
    "BackupClient(workers=)": "tests/test_client_restore.py",
    "FileContainerBackend(compression=)": "tests/test_codec_conformance.py",
    "FileContainerBackend(decompressed_cache_bytes=)": "tests/test_storage_backends.py",
    "FileContainerBackend(storage_dir=)": "tests/test_storage_recovery.py",
    "NodeConfig(cache_capacity_containers=)": "tests/test_dedupe_node.py",
    "NodeConfig(container_backend=)": "tests/test_storage_backends.py",
    "NodeConfig(container_capacity=)": "tests/test_storage_backends.py",
    "NodeConfig(container_compression=)": "tests/test_storage_backends.py",
    "NodeConfig(enable_disk_index=)": "tests/test_dedupe_node.py",
    "NodeConfig(storage_dir=)": "tests/test_storage_backends.py",
    "ParallelIngestEngine(batch_bytes=)": "tests/test_parallel_engine.py",
    "ParallelIngestEngine(executor=)": "tests/test_parallel_engine.py",
    "ParallelIngestEngine(queue_depth=)": "tests/test_parallel_engine.py",
    "ParallelIngestEngine(workers=)": "tests/test_parallel_engine.py",
    "SigmaDedupe(chunker=)": "tests/test_chunking_registry.py",
    "SigmaDedupe(container_backend=)": "tests/test_transport.py",
    "SigmaDedupe(container_compression=)": "tests/test_storage_backends.py",
    "SigmaDedupe(failover_policy=)": "tests/test_cluster_replication.py",
    "SigmaDedupe(fingerprint_algorithm=)": "tests/test_gear_cut_digest.py",
    "SigmaDedupe(handprint_size=)": "tests/test_integration_cluster.py",
    "SigmaDedupe(node_config=)": "tests/test_node_batch_equivalence.py",
    "SigmaDedupe(num_nodes=)": "tests/test_integration_cluster.py",
    "SigmaDedupe(parallel_executor=)": "tests/test_process_executor_properties.py",
    "SigmaDedupe(pipeline_depth=)": "tests/test_pipeline_window.py",
    "SigmaDedupe(replication_factor=)": "tests/test_cluster_replication.py",
    "SigmaDedupe(routing=)": "tests/test_framework.py",
    "SigmaDedupe(storage_dir=)": "tests/test_storage_backends.py",
    "SigmaDedupe(superchunk_size=)": "tests/test_integration_cluster.py",
    "SigmaDedupe(transport=)": "tests/test_transport.py",
    "SigmaDedupe(workers=)": "tests/test_node_batch_equivalence.py",
}


def python_files(directory):
    return sorted(directory.rglob("*.py")) if directory.is_dir() else []


def is_public(name):
    return not name.startswith("_")


def definitions(root):
    """``{qualified name: (path, line)}`` for every public top-level function
    and class and every public method in ``root/src/repro``."""
    found = {}
    for path in python_files(root / "src" / "repro"):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if is_public(node.name):
                found[node.name] = (path, node.lineno)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and is_public(
                        item.name
                    ):
                        found[f"{node.name}.{item.name}"] = (path, item.lineno)
    return found


def string_names(value):
    """The identifiers an identifier string names: ``"a.b:c"`` names a, b, c."""
    parts = value.replace(":", ".").split(".")
    return parts if all(part.isidentifier() for part in parts) else []


def is_all_assignment(node):
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets)


def used_names(node, owners=(), in_src=False):
    """``(name, owners)`` for every name ``node`` uses, ``owners`` being the
    census definitions whose body holds the use; in ``src/`` the entries of
    an ``__all__`` are left out."""
    if in_src and isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        if is_all_assignment(node):
            return
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and len(owners) < 2:
        owners = (*owners, f"{owners[0]}.{node.name}" if owners else node.name)
    names = []
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        names = [node.id]
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        names = [node.attr]
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        names = string_names(node.value)
    for name in names:
        yield name, owners if in_src else ()
    for child in ast.iter_child_nodes(node):
        yield from used_names(child, owners, in_src)


def references(root):
    """``{name: [owners of each use]}`` over ``src/``, ``benchmarks/`` and
    ``examples/`` under ``root``."""
    found = {}
    for directory in CALLER_DIRS:
        for path in python_files(root / directory):
            for name, owners in used_names(ast.parse(path.read_text()), in_src=directory == "src"):
                found.setdefault(name, []).append(owners)
    return found


def unreferenced(root):
    """The public ``src/repro`` definitions under ``root`` that nothing but
    their own body uses."""
    uses = references(root)
    return sorted(
        qualified
        for qualified in definitions(root)
        if all(qualified in owners for owners in uses.get(qualified.split(".")[-1], []))
    )


def knob_signature(class_node):
    """The keywords with a default a class takes: its ``__init__``'s, or for a
    dataclass its fields with a default."""
    for item in class_node.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
            arguments = item.args
            positional = [arg.arg for arg in arguments.posonlyargs + arguments.args][1:]
            with_default = positional[len(positional) - len(arguments.defaults) :]
            keyword_only = [
                arg.arg
                for arg, default in zip(arguments.kwonlyargs, arguments.kw_defaults)
                if default is not None
            ]
            return positional, with_default + keyword_only
    fields = [
        item.target.id
        for item in class_node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]
    with_default = [
        item.target.id
        for item in class_node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name) and item.value
    ]
    return fields, with_default


def signatures(root, classes=KNOB_CLASSES):
    """``{class: (positional parameters, keywords with a default)}``."""
    found = {}
    for path in python_files(root / "src" / "repro"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and node.name in classes:
                found[node.name] = knob_signature(node)
    return found


def knobs(known):
    """``"Class(keyword=)"`` for every keyword with a default in ``known``
    (:func:`signatures`)."""
    return {
        f"{name}({keyword}=)"
        for name, (_positional, with_default) in known.items()
        for keyword in with_default
    }


def callee_name(call):
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def forwarders(tree, classes):
    """``{class: names}``: the names whose call passes its keywords on to the
    class -- the class itself, a function of this file that calls it with
    ``**``, and ``dict`` when the file expands a dict into it."""
    found = {name: {name} for name in classes}

    def visit(node, scopes):
        if isinstance(node, ast.FunctionDef):
            scopes = (*scopes, node.name)
        elif isinstance(node, ast.Call) and callee_name(node) in classes and scopes:
            if any(keyword.arg is None for keyword in node.keywords):
                found[callee_name(node)].update({*scopes, "dict"})
        for child in ast.iter_child_nodes(node):
            visit(child, scopes)

    visit(tree, ())
    return found


def knob_callers(root, known):
    """``{"Class(keyword=)": {relative path}}``: the test and benchmark files
    with a call that passes a keyword in ``known`` (:func:`signatures`), by
    name, by position or through a forwarder (:func:`forwarders`)."""
    callers = {}
    for directory in KNOB_CALLER_DIRS:
        for path in python_files(root / directory):
            text = path.read_text()
            if not any(name in text for name in known):
                continue
            tree = ast.parse(text)
            forwarded = forwarders(tree, known)
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                for name, (positional, with_default) in known.items():
                    if callee_name(node) not in forwarded[name]:
                        continue
                    passed = {keyword.arg for keyword in node.keywords}
                    if callee_name(node) == name:
                        passed.update(positional[: len(node.args)])
                    for keyword in passed.intersection(with_default):
                        knob = f"{name}({keyword}=)"
                        callers.setdefault(knob, set()).add(path.relative_to(root).as_posix())
    return callers


def findings(root, exempt, knob_table, classes=KNOB_CLASSES):
    """Every breach of the census under ``root``: an unreferenced definition
    or a knob without a listed caller, not in ``exempt``; an ``exempt`` or
    ``knob_table`` key that names nothing; and an ``exempt`` key all of whose
    names have since gained a caller."""
    problems = []
    defined = definitions(root)
    known = signatures(root, classes)
    declared = knobs(known)
    names = [*defined, *declared]
    for key in exempt:
        if not any(fnmatch.fnmatchcase(name, key) for name in names):
            problems.append(f"EXEMPT names nothing: {key}")
    for key in knob_table:
        if key not in declared:
            problems.append(f"KNOBS names no knob: {key}")

    callers = knob_callers(root, known)
    uncalled = [
        knob for knob in sorted(declared) if knob_table.get(knob) not in callers.get(knob, ())
    ]
    needed = set()

    def exempted(name):
        keys = {key for key in exempt if fnmatch.fnmatchcase(name, key)}
        needed.update(keys)
        return bool(keys)

    for name in unreferenced(root):
        if not exempted(name):
            path, line = defined[name]
            problems.append(f"unreferenced: {name} ({path.relative_to(root)}:{line})")
    for knob in uncalled:
        if not exempted(knob):
            listed = sorted(callers.get(knob, ()))
            problems.append(f"no listed call passes {knob} (callers: {listed})")
    for key in exempt:
        if key not in needed and any(fnmatch.fnmatchcase(name, key) for name in names):
            problems.append(f"EXEMPT covers nothing left: {key}")
    return problems


def test_every_public_name_and_knob_has_a_caller():
    assert findings(ROOT, EXEMPT, KNOBS) == []


def test_exempt_stays_short():
    assert len(EXEMPT) <= 15


# ------------------------------------------------------------------ #
# One fixture tree per rule
# ------------------------------------------------------------------ #

FIXTURE_SOURCE = {
    "src/repro/__init__.py": (
        'from repro.store import Store, orphan\n__all__ = ["Store", "orphan"]\n'
    ),
    "src/repro/store.py": (
        "class Store:\n"
        "    def __init__(self, path, capacity=4):\n"
        "        self.capacity = capacity\n"
        "\n"
        "    def put(self, key):\n"
        "        return self.put(key)\n"
        "\n"
        "\n"
        "def orphan():\n"
        "    return orphan()\n"
    ),
    "examples/demo.py": "from repro import Store\nStore('x')\n",
    "tests/test_store.py": "from repro import Store\nStore('x').put(1)\n",
}


def fixture_tree(tmp_path, **files):
    for relative, text in {**FIXTURE_SOURCE, **files}.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


def test_fixture_flags_unreferenced_definitions(tmp_path):
    """Only the class is used (by the example); a self-call is no use."""
    assert unreferenced(fixture_tree(tmp_path)) == ["Store.put", "orphan"]


def test_fixture_import_and_all_entries_do_not_count(tmp_path):
    root = fixture_tree(tmp_path, **{"examples/demo.py": "import repro\n"})
    assert "Store" in unreferenced(root)


def test_fixture_test_references_do_not_count(tmp_path):
    root = fixture_tree(tmp_path, **{"tests/test_more.py": "from repro import orphan\norphan()\n"})
    assert "orphan" in unreferenced(root)


@pytest.mark.parametrize("directory", ["benchmarks", "examples"])
def test_fixture_benchmark_or_example_reference_clears(tmp_path, directory):
    root = fixture_tree(tmp_path, **{f"{directory}/use.py": "import repro\nrepro.orphan()\n"})
    assert "orphan" not in unreferenced(root)


def test_fixture_exempt_key_naming_nothing_fails(tmp_path):
    exempt = {"Store.put": "reason", "orphan": "reason", "Store.gone": "reason"}
    assert findings(fixture_tree(tmp_path), exempt, {}, ()) == ["EXEMPT names nothing: Store.gone"]


def test_fixture_knob_no_call_passes_is_flagged(tmp_path):
    exempt = {"Store.put": "reason", "orphan": "reason"}
    table = {"Store(capacity=)": "tests/test_store.py"}
    root = fixture_tree(tmp_path)
    assert findings(root, exempt, table, ("Store",)) == [
        "no listed call passes Store(capacity=) (callers: [])"
    ]
    passing = "from repro import Store\nStore('x', capacity=8)\n"
    root = fixture_tree(tmp_path, **{"tests/test_store.py": passing})
    assert findings(root, exempt, table, ("Store",)) == []


def test_fixture_attribute_use_clears(tmp_path):
    demo = "import repro\nstore = repro.Store('x')\nstore.put(1)\n"
    assert unreferenced(fixture_tree(tmp_path, **{"examples/demo.py": demo})) == ["orphan"]


@pytest.mark.parametrize("text", ["orphan", "repro.store.orphan", "repro.store:orphan"])
def test_fixture_identifier_string_clears(tmp_path, text):
    """Registries and entry points name definitions by string."""
    root = fixture_tree(tmp_path, **{"benchmarks/registry.py": f"TARGETS = [{text!r}]\n"})
    assert "orphan" not in unreferenced(root)


@pytest.mark.parametrize("text", ["call orphan() first", "orphan-like", "orphan.v2-draft"])
def test_fixture_prose_string_does_not_clear(tmp_path, text):
    root = fixture_tree(tmp_path, **{"benchmarks/notes.py": f"NOTE = {text!r}\n"})
    assert "orphan" in unreferenced(root)


def test_fixture_use_from_a_sibling_definition_clears(tmp_path):
    """A call from another definition's body counts; the caller is then the
    one left without a caller."""
    store = FIXTURE_SOURCE["src/repro/store.py"] + (
        "\n\ndef sweep():\n    return orphan()\n"
        "\n\nclass Shelf(Store):\n    def get(self, key):\n        return self.put(key)\n"
    )
    root = fixture_tree(tmp_path, **{"src/repro/store.py": store})
    assert unreferenced(root) == ["Shelf", "Shelf.get", "sweep"]


@pytest.mark.parametrize(
    "declaration",
    ['__all__: list = ["Store", "orphan"]', '__all__ = []\n__all__ += ["Store", "orphan"]'],
    ids=["annotated", "augmented"],
)
def test_fixture_every_all_form_does_not_count(tmp_path, declaration):
    init = f"from repro.store import Store, orphan\n{declaration}\n"
    root = fixture_tree(tmp_path, **{"src/repro/__init__.py": init, "examples/demo.py": ""})
    assert unreferenced(root) == ["Store", "Store.put", "orphan"]


def test_fixture_private_and_nested_definitions_are_not_counted(tmp_path):
    helpers = (
        "def _private():\n    pass\n\n\n"
        "def outer():\n    def inner():\n        pass\n    return inner\n\n\n"
        "class _Hidden:\n    def _quiet(self):\n        pass\n\n"
        "    def loud(self):\n        pass\n"
    )
    root = fixture_tree(tmp_path, **{"src/repro/helpers.py": helpers})
    assert set(definitions(root)) == {"Store", "Store.put", "orphan", "outer", "_Hidden.loud"}


def test_fixture_exempt_pattern_covers_many_names(tmp_path):
    exempt = {"Store.*": "reason", "orphan": "reason"}
    assert findings(fixture_tree(tmp_path), exempt, {}, ()) == []


def test_fixture_exempt_key_whose_names_gained_a_caller_fails(tmp_path):
    exempt = {"Store.put": "reason", "orphan": "reason", "Store": "reason"}
    assert findings(fixture_tree(tmp_path), exempt, {}, ()) == ["EXEMPT covers nothing left: Store"]


def test_fixture_knob_table_key_naming_no_knob_fails(tmp_path):
    exempt = {"Store.put": "reason", "orphan": "reason", "Store(capacity=)": "reason"}
    table = {"Store(size=)": "tests/test_store.py"}
    assert findings(fixture_tree(tmp_path), exempt, table, ("Store",)) == [
        "KNOBS names no knob: Store(size=)"
    ]


FIXTURE_EXEMPT = {"Store.put": "reason", "orphan": "reason"}
FIXTURE_KNOBS = {"Store(capacity=)": "tests/test_store.py"}


@pytest.mark.parametrize(
    "test_file",
    [
        "from repro import Store\nStore('x', 8)\n",
        "from repro import Store\n\n\ndef make(**options):\n    return Store('x', **options)\n\n\n"
        "make(capacity=8)\n",
        "from repro import Store\n\n\ndef test_store():\n"
        "    options = dict(capacity=8)\n    Store('x', **options)\n",
    ],
    ids=["positional", "forwarder", "dict"],
)
def test_fixture_knob_passed_without_its_keyword_counts(tmp_path, test_file):
    root = fixture_tree(tmp_path, **{"tests/test_store.py": test_file})
    assert findings(root, FIXTURE_EXEMPT, FIXTURE_KNOBS, ("Store",)) == []


def test_fixture_knob_passed_only_by_an_unlisted_file_is_flagged(tmp_path):
    other = "from repro import Store\nStore('x', capacity=8)\n"
    root = fixture_tree(tmp_path, **{"tests/test_other.py": other})
    assert findings(root, FIXTURE_EXEMPT, FIXTURE_KNOBS, ("Store",)) == [
        "no listed call passes Store(capacity=) (callers: ['tests/test_other.py'])"
    ]


def test_fixture_knob_passed_only_by_an_example_is_flagged(tmp_path):
    demo = "from repro import Store\nStore('x', capacity=8)\n"
    table = {"Store(capacity=)": "examples/demo.py"}
    root = fixture_tree(tmp_path, **{"examples/demo.py": demo})
    assert findings(root, FIXTURE_EXEMPT, table, ("Store",)) == [
        "no listed call passes Store(capacity=) (callers: [])"
    ]


def test_fixture_exempt_knob_is_not_flagged(tmp_path):
    exempt = {**FIXTURE_EXEMPT, "Store(capacity=)": "reason"}
    assert findings(fixture_tree(tmp_path), exempt, {}, ("Store",)) == []


def test_fixture_dataclass_fields_with_a_default_are_knobs(tmp_path):
    config = (
        "from dataclasses import dataclass\n\n\n@dataclass\n"
        "class Config:\n    path: str\n    size: int = 4\n    mode: str = 'r'\n"
    )
    root = fixture_tree(tmp_path, **{"src/repro/config.py": config})
    known = signatures(root, ("Config",))
    assert known == {"Config": (["path", "size", "mode"], ["size", "mode"])}
    assert knobs(known) == {"Config(size=)", "Config(mode=)"}
    test_file = "from repro.config import Config\nConfig('p', 8)\n"
    root = fixture_tree(tmp_path, **{"tests/test_config.py": test_file})
    assert knob_callers(root, known) == {"Config(size=)": {"tests/test_config.py"}}


def test_fixture_keyword_only_parameters_with_a_default_are_knobs(tmp_path):
    store = "class Store:\n    def __init__(self, path, *, capacity=4, mode):\n        pass\n"
    root = fixture_tree(tmp_path, **{"src/repro/store.py": store})
    assert knobs(signatures(root, ("Store",))) == {"Store(capacity=)"}


def test_fixture_import_without_a_use_does_not_clear(tmp_path):
    """Outside ``src/`` too, an import alone is no use."""
    root = fixture_tree(tmp_path, **{"benchmarks/use.py": "from repro.store import orphan\n"})
    assert "orphan" in unreferenced(root)
