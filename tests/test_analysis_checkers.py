"""Tests for the repo-specific invariant checkers (``tests/repo_checks``).

Each checker is fed a known-bad fixture snippet and must flag it; the live
``src/repro`` tree must come back clean; and the waiver grammar must silence
exactly the annotated line.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from tests.repo_checks import default_root, run_checks
import tests.repo_checks as repo_checks
from tests.repo_checks.common import AnalysisError, Finding, parse_annotation
from tests.repo_checks.lock_discipline import LockDisciplineChecker
from tests.repo_checks.registry import BLOCK_STREAM_PRODUCERS, STATS_MUTATING_CALLS
from tests.repo_checks.stats_purity import StatsPurityChecker
from tests.repo_checks.streaming import StreamingDisciplineChecker
from tests.repo_checks.taxonomy import ErrorTaxonomyChecker


def write_fixture(tmp_path: Path, name: str, source: str) -> Path:
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def check_snippet(checker, tmp_path: Path, name: str, source: str):
    write_fixture(tmp_path, name, source)
    return checker.check_tree(tmp_path)


class TestLockDiscipline:
    BAD = """
    import threading

    class Counter:
        def __init__(self):
            self.value = 0  # guarded-by: _lock
            self._lock = threading.Lock()

        def bump(self):
            self.value += 1  # the race: no lock held
    """

    def test_flags_unguarded_access(self, tmp_path):
        findings = check_snippet(LockDisciplineChecker(), tmp_path, "counter.py", self.BAD)
        assert len(findings) == 1
        assert findings[0].checker == "lock-discipline"
        assert "Counter.value" in findings[0].message
        assert findings[0].line == 10

    def test_with_lock_is_clean(self, tmp_path):
        # The replacement happens before textwrap.dedent strips the fixture's
        # four-space base indent, so the inserted lines carry it too.
        good = self.BAD.replace(
            "self.value += 1  # the race: no lock held",
            "with self._lock:\n                self.value += 1",
        )
        assert check_snippet(LockDisciplineChecker(), tmp_path, "counter.py", good) == []

    def test_holds_lock_method_is_clean_inside_flagged_at_callers(self, tmp_path):
        source = """
        import threading

        class Counter:
            def __init__(self):
                self.value = 0  # guarded-by: _lock
                self._lock = threading.Lock()

            def _bump_locked(self):  # holds-lock: _lock
                self.value += 1

            def bump(self):
                with self._lock:
                    self._bump_locked()

            def bump_racy(self):
                self._bump_locked()
        """
        findings = check_snippet(LockDisciplineChecker(), tmp_path, "counter.py", source)
        assert len(findings) == 1
        assert "_bump_locked" in findings[0].message
        assert findings[0].line == 17

    def test_alias_use_outside_lock_flagged(self, tmp_path):
        source = """
        import threading

        class Table:
            def __init__(self):
                self._entries = {}  # guarded-by: _lock
                self._lock = threading.Lock()

            def size_racy(self):
                entries = self._entries
                return len(entries)
        """
        findings = check_snippet(LockDisciplineChecker(), tmp_path, "table.py", source)
        assert len(findings) == 1
        assert "'entries'" in findings[0].message

    def test_striped_lock_for_acquisition_recognised(self, tmp_path):
        source = """
        class Index:
            def __init__(self):
                self._entries = {}  # guarded-by: _locks
                self._locks = object()

            def get(self, key):
                with self._locks.lock_for(key):
                    return self._entries.get(key)
        """
        assert check_snippet(LockDisciplineChecker(), tmp_path, "index.py", source) == []

    def test_unguarded_ok_waiver_silences(self, tmp_path):
        good = self.BAD.replace(
            "  # the race: no lock held",
            "  # unguarded-ok: fixture waiver",
        )
        assert check_snippet(LockDisciplineChecker(), tmp_path, "counter.py", good) == []

    def test_constructor_exempt(self, tmp_path):
        # The unguarded writes inside __init__ itself must not be flagged.
        findings = check_snippet(LockDisciplineChecker(), tmp_path, "counter.py", self.BAD)
        assert all(finding.line != 6 for finding in findings)


class TestStatsPurity:
    BAD = """
    class Restore:
        def read(self, cache, fingerprint):
            return cache.lookup(fingerprint)
    """

    def make_checker(self):
        return StatsPurityChecker(scopes={"restore.py": ("*",)})

    def test_flags_counting_lookup_on_read_path(self, tmp_path):
        findings = check_snippet(self.make_checker(), tmp_path, "restore.py", self.BAD)
        assert len(findings) == 1
        assert findings[0].checker == "stats-purity"
        assert "'lookup'" in findings[0].message

    def test_peek_is_clean(self, tmp_path):
        good = self.BAD.replace("cache.lookup(", "cache.peek(")
        assert check_snippet(self.make_checker(), tmp_path, "restore.py", good) == []

    def test_out_of_scope_module_ignored(self, tmp_path):
        findings = check_snippet(self.make_checker(), tmp_path, "backup.py", self.BAD)
        assert findings == []

    def test_method_scope(self, tmp_path):
        source = """
        class Cluster:
            def sample(self, cache, fps):
                return cache.match_batch(fps)

            def ingest(self, cache, fps):
                return cache.match_batch(fps)
        """
        checker = StatsPurityChecker(scopes={"cluster.py": ("Cluster.sample",)})
        findings = check_snippet(checker, tmp_path, "cluster.py", source)
        assert len(findings) == 1
        assert findings[0].line == 4

    def test_stats_ok_waiver_silences(self, tmp_path):
        good = self.BAD.replace(
            "cache.lookup(fingerprint)",
            "cache.lookup(fingerprint)  # stats-ok: fixture waiver",
        )
        assert check_snippet(self.make_checker(), tmp_path, "restore.py", good) == []

    def test_live_read_paths_use_peeks(self):
        # The default scopes must actually match modules of the live tree.
        checker = StatsPurityChecker()
        matched = [
            module.relpath
            for module in _iter_live_modules()
            if checker._scope_names(module) is not None
        ]
        assert any(path.endswith("cluster/restore.py") for path in matched)
        assert any(path.endswith("node/dedupe_node.py") for path in matched)


def _iter_live_modules():
    from tests.repo_checks.common import iter_modules

    return iter_modules(default_root())


class TestStreamingDiscipline:
    def make_checker(self):
        return StreamingDisciplineChecker(modules=frozenset({"engine.py"}))

    def test_flags_list_of_block_stream(self, tmp_path):
        source = """
        def consume(workload):
            return list(workload.iter_blocks())
        """
        findings = check_snippet(self.make_checker(), tmp_path, "engine.py", source)
        assert len(findings) == 1
        assert "iter_blocks" in findings[0].message

    def test_flags_bytes_join(self, tmp_path):
        source = """
        def consume(blocks):
            return b"".join(blocks)
        """
        findings = check_snippet(self.make_checker(), tmp_path, "engine.py", source)
        assert len(findings) == 1
        assert "join" in findings[0].message

    def test_flags_bytes_of_payload_name(self, tmp_path):
        source = """
        def consume(payload):
            return bytes(payload)
        """
        findings = check_snippet(self.make_checker(), tmp_path, "engine.py", source)
        assert len(findings) == 1

    def test_flags_data_attribute_read(self, tmp_path):
        source = """
        def consume(workload_file):
            return workload_file.data
        """
        findings = check_snippet(self.make_checker(), tmp_path, "engine.py", source)
        assert len(findings) == 1
        assert ".data" in findings[0].message

    def test_lazy_iteration_clean(self, tmp_path):
        source = """
        def consume(workload):
            for block in workload.iter_blocks():
                yield block
        """
        assert check_snippet(self.make_checker(), tmp_path, "engine.py", source) == []

    def test_streaming_ok_waiver_silences(self, tmp_path):
        source = """
        def consume(payload):
            return bytes(payload)  # streaming-ok: fixture waiver
        """
        assert check_snippet(self.make_checker(), tmp_path, "engine.py", source) == []

    def test_out_of_scope_module_ignored(self, tmp_path):
        source = """
        def consume(payload):
            return bytes(payload)
        """
        assert check_snippet(self.make_checker(), tmp_path, "report.py", source) == []


class TestErrorTaxonomy:
    def test_flags_bare_valueerror(self, tmp_path):
        source = """
        def check(value):
            if value < 0:
                raise ValueError("negative")
        """
        findings = check_snippet(ErrorTaxonomyChecker(), tmp_path, "mod.py", source)
        assert len(findings) == 1
        assert findings[0].checker == "error-taxonomy"
        assert "ValueError" in findings[0].message

    def test_validation_error_is_clean(self, tmp_path):
        source = """
        from repro.errors import ValidationError

        def check(value):
            if value < 0:
                raise ValidationError("negative")
        """
        assert check_snippet(ErrorTaxonomyChecker(), tmp_path, "mod.py", source) == []

    def test_reraise_forms_allowed(self, tmp_path):
        source = """
        def forward(item):
            if item.error is not None:
                raise item.error
            try:
                item.run()
            except Exception:
                raise
        """
        assert check_snippet(ErrorTaxonomyChecker(), tmp_path, "mod.py", source) == []

    def test_stop_iteration_allowed(self, tmp_path):
        source = """
        def drain(iterator):
            raise StopIteration
        """
        assert check_snippet(ErrorTaxonomyChecker(), tmp_path, "mod.py", source) == []

    def test_taxonomy_ok_waiver_silences(self, tmp_path):
        source = """
        def check(value):
            raise ValueError("negative")  # taxonomy-ok: fixture waiver
        """
        assert check_snippet(ErrorTaxonomyChecker(), tmp_path, "mod.py", source) == []

    def test_new_repro_error_subclasses_join_automatically(self):
        checker = ErrorTaxonomyChecker()
        assert "ValidationError" in checker.allowed
        assert "LockOwnershipError" in checker.allowed
        assert "ReproError" in checker.allowed


class TestAnnotationGrammar:
    def test_parse_annotation_extracts_value(self):
        assert parse_annotation("guarded-by: _lock", "guarded-by") == "_lock"
        assert parse_annotation("no marker here", "guarded-by") is None

    def test_finding_renders_location_then_checker(self):
        finding = Finding("error-taxonomy", "cluster/restore.py", 12, "bare raise")
        assert finding.render() == "cluster/restore.py:12: [error-taxonomy] bare raise"

    def test_empty_annotation_value_rejected(self):
        with pytest.raises(AnalysisError):
            parse_annotation("guarded-by:", "guarded-by")

    def test_unparseable_module_raises_analysis_error(self, tmp_path):
        write_fixture(tmp_path, "bad.py", "def broken(:\n")
        with pytest.raises(AnalysisError):
            ErrorTaxonomyChecker().check_tree(tmp_path)


class TestLiveTree:
    def test_all_checkers_clean_on_live_tree(self):
        findings = run_checks()
        rendered = "\n".join(finding.render() for finding in findings)
        assert findings == [], f"live tree violates its invariants:\n{rendered}"

    def test_live_tree_has_lock_contracts(self):
        # Guard against the checker passing vacuously: the annotated classes
        # of the live tree must actually register contracts.
        import ast

        from tests.repo_checks.lock_discipline import _collect_contracts

        contracts = {}
        for module in _iter_live_modules():
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    found = _collect_contracts(module, node)
                    if found.guarded or found.holds:
                        contracts[node.name] = found
        for expected in (
            "DedupeNode",
            "Director",
            "MessageCounter",
            "ContainerStore",
            "SimilarityIndex",
        ):
            assert expected in contracts, f"{expected} lost its lock contracts"
        assert contracts["DedupeNode"].guarded["stats"] == "_plane_lock"
        assert contracts["SimilarityIndex"].guarded["_entries"] == "_locks"

    @pytest.mark.parametrize(
        "registered",
        [BLOCK_STREAM_PRODUCERS, STATS_MUTATING_CALLS],
        ids=["block-stream-producers", "stats-mutating-calls"],
    )
    def test_every_block_stream_producer_is_defined(self, registered):
        # A producer or mutator deleted from the package must leave its list
        # too, or a checker guards a name nothing can call.
        defined = {
            node.name
            for module in _iter_live_modules()
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        assert registered <= defined, sorted(registered - defined)


class TestRunChecks:
    PLANTED = """
    import threading

    class Counter:
        def __init__(self):
            self.value = 0  # guarded-by: _lock
            self._lock = threading.Lock()

        def bump(self):
            if self.value < 0:
                raise ValueError("negative")
            self.value += 1
    """

    def test_reports_planted_violations_sorted_by_location(self, tmp_path, monkeypatch):
        # The live tree is clean, so without a planted violation nothing shows
        # that run_checks can fail at all.  The copy keeps every registry
        # scope matched; the planted module adds one finding per checker on
        # interleaved lines, which only a sort by location returns in order.
        root = tmp_path / "repro"
        shutil.copytree(default_root(), root, ignore=shutil.ignore_patterns("__pycache__"))
        write_fixture(root, "planted.py", self.PLANTED)
        monkeypatch.setattr(repo_checks, "default_root", lambda: root)
        findings = run_checks()
        assert [(f.path, f.line, f.checker) for f in findings] == [
            ("planted.py", 10, "lock-discipline"),
            ("planted.py", 11, "error-taxonomy"),
            ("planted.py", 12, "lock-discipline"),
        ]


class TestStaleScopes:
    def test_stale_read_path_scope_raises(self, monkeypatch):
        # A method renamed out from under the registry must not silently
        # leave the stats-purity contract.
        from tests.repo_checks.registry import READ_PATH_SCOPES

        monkeypatch.setitem(
            READ_PATH_SCOPES,
            "cluster/cluster.py",
            READ_PATH_SCOPES["cluster/cluster.py"] + ("DedupeCluster.renamed_away",),
        )
        with pytest.raises(AnalysisError, match="cluster/cluster.py::DedupeCluster.renamed_away"):
            run_checks()

    def test_stale_streaming_module_raises(self, monkeypatch):
        import tests.repo_checks.streaming as streaming

        monkeypatch.setattr(
            streaming,
            "STREAMING_MODULES",
            streaming.STREAMING_MODULES | {"parallel/deleted_module.py"},
        )
        with pytest.raises(AnalysisError, match="parallel/deleted_module.py"):
            run_checks()

    def test_stale_read_path_module_raises(self, monkeypatch):
        # A whole read-path module deleted or moved is stale too, not only a
        # method inside a module that still exists.
        from tests.repo_checks.registry import READ_PATH_SCOPES

        monkeypatch.setitem(READ_PATH_SCOPES, "cluster/deleted_reader.py", ("*",))
        with pytest.raises(AnalysisError, match="stats-purity: cluster/deleted_reader.py"):
            run_checks()

    def test_every_stale_scope_is_named_in_one_error(self, monkeypatch):
        import tests.repo_checks.streaming as streaming
        from tests.repo_checks.registry import READ_PATH_SCOPES

        monkeypatch.setitem(READ_PATH_SCOPES, "cluster/deleted_reader.py", ("*",))
        monkeypatch.setattr(
            streaming,
            "STREAMING_MODULES",
            streaming.STREAMING_MODULES | {"parallel/deleted_module.py"},
        )
        with pytest.raises(AnalysisError) as raised:
            run_checks()
        assert "stats-purity: cluster/deleted_reader.py" in str(raised.value)
        assert "streaming-discipline: parallel/deleted_module.py" in str(raised.value)

    def test_wildcard_scope_is_not_a_method_name(self):
        modules = list(_iter_live_modules())
        checker = StatsPurityChecker(scopes={"cluster/restore.py": ("*",)})
        assert checker.stale_scopes(modules) == []
        checker = StatsPurityChecker(scopes={"cluster/restore.py": ("RestoreManager.gone",)})
        assert checker.stale_scopes(modules) == ["cluster/restore.py::RestoreManager.gone"]


def test_importing_the_library_loads_no_checker():
    """The checkers stay out of the shipped library: an interpreter that
    imports ``repro`` loads none of their modules (nor the retired
    ``repro.analysis`` package)."""
    code = "import sys, repro, repro.core.framework; print(*sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(default_root().parent)}
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "repro.core.framework" in loaded
    checkers = [
        name for name in loaded if name.startswith("repro.analysis") or "repo_checks" in name
    ]
    assert checkers == []
