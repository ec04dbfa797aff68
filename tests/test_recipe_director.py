"""Tests for repro.cluster.recipe and repro.cluster.director."""

import pytest

from repro.cluster.director import Director
from repro.cluster.recipe import ChunkLocation, FileRecipe
from repro.errors import RecipeError
from tests.helpers import synthetic_fingerprint


def location(tag, length=100, node=0, container=0):
    return ChunkLocation(
        fingerprint=synthetic_fingerprint(tag), length=length, node_id=node, container_id=container
    )


def test_positional_constructors_match_the_field_order():
    # cluster/client.py and fingerprint/fingerprinter.py build these through
    # ``tuple.__new__`` with positional columns: reordering a field (or adding
    # one before the end) must fail here, not produce wrong recipes.
    from repro.cluster.client import _new_location
    from repro.fingerprint.fingerprinter import ChunkRecord, _new_record

    assert ChunkLocation._fields == ("fingerprint", "length", "node_id", "container_id")
    assert ChunkRecord._fields == ("fingerprint", "length", "offset", "data")
    assert _new_location((b"f", 3, 1, 9)) == ChunkLocation(
        fingerprint=b"f", length=3, node_id=1, container_id=9
    )
    assert _new_record((b"f", 3, 7, b"abc")) == ChunkRecord(
        fingerprint=b"f", length=3, offset=7, data=b"abc"
    )


class TestFileRecipe:
    def test_logical_size_and_count(self):
        recipe = FileRecipe(path="a", session_id="s")
        recipe.add_chunk(location("1", length=10))
        recipe.add_chunk(location("2", length=20))
        assert recipe.logical_size == 30
        assert recipe.chunk_count == 2

    def test_nodes_involved_preserves_order_and_dedupes(self):
        recipe = FileRecipe(path="a", session_id="s")
        recipe.extend([location("1", node=2), location("2", node=0), location("3", node=2)])
        assert recipe.nodes_involved() == [2, 0]

    def test_validate_rejects_negative_length(self):
        recipe = FileRecipe(path="a", session_id="s")
        recipe.add_chunk(ChunkLocation(fingerprint=b"\x01", length=-1, node_id=0))
        with pytest.raises(RecipeError):
            recipe.validate()

    def test_validate_rejects_empty_fingerprint(self):
        recipe = FileRecipe(path="a", session_id="s")
        recipe.add_chunk(ChunkLocation(fingerprint=b"", length=1, node_id=0))
        with pytest.raises(RecipeError):
            recipe.validate()

    def test_validate_accepts_good_recipe(self):
        recipe = FileRecipe(path="a", session_id="s")
        recipe.add_chunk(location("ok"))
        recipe.validate()


class TestDirectorSessions:
    def test_open_session_assigns_unique_ids(self):
        director = Director()
        a = director.open_session("client-1")
        b = director.open_session("client-1")
        assert a.session_id != b.session_id

    def test_sessions_for_client(self):
        director = Director()
        director.open_session("alpha")
        director.open_session("beta")
        director.open_session("alpha")
        assert len(director.sessions_for_client("alpha")) == 2
        assert len(director.sessions()) == 3

    def test_close_session(self):
        director = Director()
        session = director.open_session("c")
        director.close_session(session.session_id)
        assert director.get_session(session.session_id).closed

    def test_unknown_session_raises(self):
        with pytest.raises(RecipeError):
            Director().get_session("nope")

    def test_record_after_close_raises(self):
        director = Director()
        session = director.open_session("c")
        director.close_session(session.session_id)
        with pytest.raises(RecipeError):
            director.record_file_chunks(session.session_id, "f", [location("x")])


class TestDirectorRecipes:
    def test_record_and_get_recipe(self):
        director = Director()
        session = director.open_session("c")
        director.record_file_chunks(session.session_id, "file.txt", [location("a"), location("b")])
        recipe = director.get_recipe(session.session_id, "file.txt")
        assert recipe.chunk_count == 2

    def test_recipe_appends_across_calls(self):
        director = Director()
        session = director.open_session("c")
        director.record_file_chunks(session.session_id, "f", [location("a")])
        director.record_file_chunks(session.session_id, "f", [location("b")])
        assert director.get_recipe(session.session_id, "f").chunk_count == 2
        assert director.get_session(session.session_id).file_count == 1

    def test_missing_recipe_raises(self):
        director = Director()
        session = director.open_session("c")
        with pytest.raises(RecipeError):
            director.get_recipe(session.session_id, "ghost")

    def test_has_recipe(self):
        director = Director()
        session = director.open_session("c")
        director.record_file_chunks(session.session_id, "f", [location("a")])
        assert director.has_recipe(session.session_id, "f")
        assert not director.has_recipe(session.session_id, "g")

    def test_files_in_session(self):
        director = Director()
        session = director.open_session("c")
        director.record_file_chunks(session.session_id, "one", [location("a")])
        director.record_file_chunks(session.session_id, "two", [location("b")])
        assert director.files_in_session(session.session_id) == ["one", "two"]

    def test_total_logical_bytes(self):
        director = Director()
        session = director.open_session("c")
        director.record_file_chunks(session.session_id, "f", [location("a", length=64)])
        other = director.open_session("c")
        director.record_file_chunks(other.session_id, "g", [location("b", length=36)])
        assert director.total_logical_bytes(session.session_id) == 64
        assert director.total_logical_bytes() == 100

    def test_file_count(self):
        director = Director()
        session = director.open_session("c")
        director.record_file_chunks(session.session_id, "f", [location("a")])
        director.record_file_chunks(session.session_id, "g", [location("b")])
        assert director.file_count() == 2

    def test_iter_recipes(self):
        director = Director()
        session = director.open_session("c")
        director.record_file_chunks(session.session_id, "f", [location("a")])
        recipes = list(director.iter_recipes(session.session_id))
        assert [recipe.path for recipe in recipes] == ["f"]


class TestSessionExportImport:
    def build_director(self):
        director = Director()
        session = director.open_session("client-a", label="nightly")
        director.record_file_chunks(
            session.session_id,
            "etc/passwd",
            [location("a", length=64), location("b", length=36, node=1, container=2)],
        )
        director.record_file_chunks(
            session.session_id,
            "var/log",
            [ChunkLocation(synthetic_fingerprint("c"), 12, 2, None)],
        )
        director.close_session(session.session_id)
        return director, session

    def test_round_trip_preserves_recipes(self):
        director, session = self.build_director()
        payload = director.export_session(session.session_id)
        # The payload is JSON-serialisable as-is.
        import json

        payload = json.loads(json.dumps(payload))

        fresh = Director()
        imported = fresh.import_session(payload)
        assert imported.session_id == session.session_id
        assert imported.client_id == "client-a"
        assert imported.label == "nightly"
        assert imported.closed
        assert fresh.files_in_session(session.session_id) == ["etc/passwd", "var/log"]
        original = {
            recipe.path: recipe.chunks
            for recipe in director.iter_recipes(session.session_id)
        }
        restored = {
            recipe.path: recipe.chunks
            for recipe in fresh.iter_recipes(session.session_id)
        }
        assert restored == original

    def test_import_bumps_session_counter(self):
        director, session = self.build_director()
        fresh = Director()
        fresh.import_session(director.export_session(session.session_id))
        next_session = fresh.open_session("client-b")
        assert next_session.session_id != session.session_id

    def test_import_rejects_collision(self):
        director, session = self.build_director()
        payload = director.export_session(session.session_id)
        with pytest.raises(RecipeError):
            director.import_session(payload)

    def test_import_rejects_bad_version_and_shape(self):
        director, session = self.build_director()
        payload = director.export_session(session.session_id)
        fresh = Director()
        with pytest.raises(RecipeError):
            fresh.import_session({**payload, "version": 99})
        with pytest.raises(RecipeError):
            fresh.import_session({"version": 1})
        broken = {**payload, "files": [{"path": "x", "chunks": [["zz", 1, 0, None]]}]}
        with pytest.raises(RecipeError):
            fresh.import_session(broken)

    def test_import_rejects_a_path_named_twice(self):
        director, session = self.build_director()
        payload = director.export_session(session.session_id)
        first = payload["files"][0]
        twice = {**payload, "files": [first, {**first, "chunks": first["chunks"][:1]}]}
        fresh = Director()
        with pytest.raises(RecipeError, match="twice"):
            fresh.import_session(twice)
        # Nothing was adopted: the session is unknown and can be imported whole.
        assert fresh.sessions() == []
        fresh.import_session(payload)
        assert fresh.files_in_session(session.session_id) == ["etc/passwd", "var/log"]

    def test_export_unknown_session_raises(self):
        with pytest.raises(RecipeError):
            Director().export_session("session-000404")

    def test_total_logical_bytes_of_unknown_session_raises(self):
        director, session = self.build_director()
        assert director.total_logical_bytes(session.session_id) == 112
        with pytest.raises(RecipeError, match="unknown backup session"):
            director.total_logical_bytes("session-000404")
