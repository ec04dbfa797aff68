"""Tests for repro.cluster.recipe and repro.cluster.director."""

import pytest

from repro.cluster.director import SESSION_EXPORT_VERSION, Director
from repro.cluster.recipe import ChunkLocation, FileRecipe
from repro.errors import RecipeError
from tests.helpers import recipe_columns, synthetic_fingerprint


def location(tag, length=100, node=0, container=0):
    return ChunkLocation(
        fingerprint=synthetic_fingerprint(tag), length=length, node_id=node, container_id=container
    )


def record(director, session_id, path, locations):
    return director.record_file_chunks(session_id, path, *recipe_columns(locations))


def recipe_of(locations):
    recipe = FileRecipe(path="a", session_id="s")
    recipe.extend(*recipe_columns(locations))
    return recipe


def test_positional_constructors_match_the_field_order():
    # fingerprint/fingerprinter.py builds records through ``tuple.__new__``
    # with positional columns, and a recipe builds its rows positionally:
    # reordering a field (or adding one before the end) must fail here, not
    # produce wrong records or rows.
    from repro.fingerprint.fingerprinter import ChunkRecord, _new_record

    assert ChunkLocation._fields == ("fingerprint", "length", "node_id", "container_id")
    assert ChunkRecord._fields == ("fingerprint", "length", "offset", "data")
    assert recipe_of([ChunkLocation(b"f", 3, 1, 9)])[0] == ChunkLocation(
        fingerprint=b"f", length=3, node_id=1, container_id=9
    )
    assert _new_record((b"f", 3, 7, b"abc")) == ChunkRecord(
        fingerprint=b"f", length=3, offset=7, data=b"abc"
    )


class TestFileRecipe:
    def test_logical_size_and_count(self):
        recipe = recipe_of([location("1", length=10), location("2", length=20)])
        assert recipe.logical_size == 30
        assert recipe.chunk_count == len(recipe) == 2

    def test_rows_are_built_from_the_columns(self):
        rows = [location("1", node=2), location("2", node=0, container=None)]
        recipe = recipe_of(rows)
        assert list(recipe) == rows
        assert recipe[1] == rows[1] and recipe[-1] == rows[-1]
        assert recipe.container_ids == [0, None]

    def test_extend_rejects_unequal_columns_and_appends_nothing(self):
        recipe = recipe_of([location("1")])
        with pytest.raises(RecipeError, match="differ in length"):
            recipe.extend([synthetic_fingerprint("2")], [1, 2], [0], [0])
        assert len(recipe) == 1 and recipe.lengths == [100]

    def test_validate_rejects_negative_length(self):
        recipe = recipe_of([ChunkLocation(fingerprint=b"\x01", length=-1, node_id=0)])
        with pytest.raises(RecipeError):
            recipe.validate()

    def test_validate_rejects_empty_fingerprint(self):
        recipe = recipe_of([ChunkLocation(fingerprint=b"", length=1, node_id=0)])
        with pytest.raises(RecipeError):
            recipe.validate()

    def test_validate_rejects_columns_of_unequal_length(self):
        recipe = recipe_of([location("ok")])
        recipe.node_ids.append(1)
        with pytest.raises(RecipeError, match="unequal"):
            recipe.validate()

    def test_validate_accepts_good_recipe(self):
        recipe_of([location("ok")]).validate()
        FileRecipe(path="a", session_id="s").validate()


class TestDirectorSessions:
    def test_open_session_assigns_unique_ids(self):
        director = Director()
        a = director.open_session("client-1")
        b = director.open_session("client-1")
        assert a.session_id != b.session_id

    def test_close_session(self):
        director = Director()
        session = director.open_session("c")
        director.close_session(session.session_id)
        assert director.get_session(session.session_id).closed

    def test_unknown_session_raises(self):
        with pytest.raises(RecipeError):
            Director().get_session("nope")

    def test_sessions_keep_each_client_in_open_order(self):
        director = Director()
        for client in ("alpha", "beta", "alpha"):
            director.open_session(client)
        assert [session.client_id for session in director.sessions()] == ["alpha", "beta", "alpha"]

    def test_record_after_close_raises(self):
        director = Director()
        session = director.open_session("c")
        director.close_session(session.session_id)
        with pytest.raises(RecipeError):
            record(director, session.session_id, "f", [location("x")])


class TestDirectorRecipes:
    def test_record_and_get_recipe(self):
        director = Director()
        session = director.open_session("c")
        record(director, session.session_id, "file.txt", [location("a"), location("b")])
        recipe = director.get_recipe(session.session_id, "file.txt")
        assert recipe.chunk_count == 2

    def test_recipe_appends_across_calls(self):
        director = Director()
        session = director.open_session("c")
        record(director, session.session_id, "f", [location("a")])
        record(director, session.session_id, "f", [location("b")])
        assert director.get_recipe(session.session_id, "f").chunk_count == 2
        assert director.get_session(session.session_id).file_count == 1

    def test_missing_recipe_raises(self):
        director = Director()
        session = director.open_session("c")
        with pytest.raises(RecipeError):
            director.get_recipe(session.session_id, "ghost")

    def test_recipe_of_unknown_session_raises(self):
        with pytest.raises(RecipeError, match="unknown backup session"):
            Director().get_recipe("session-000404", "f")

    def test_files_in_unknown_session_raises(self):
        with pytest.raises(RecipeError, match="unknown backup session"):
            Director().files_in_session("session-000404")

    def test_files_in_session(self):
        director = Director()
        session = director.open_session("c")
        record(director, session.session_id, "one", [location("a")])
        record(director, session.session_id, "two", [location("b")])
        assert director.files_in_session(session.session_id) == ["one", "two"]

    def test_file_count(self):
        director = Director()
        session = director.open_session("c")
        record(director, session.session_id, "f", [location("a")])
        record(director, session.session_id, "g", [location("b")])
        assert director.file_count() == 2


class TestSessionExportImport:
    def build_director(self):
        director = Director()
        session = director.open_session("client-a", label="nightly")
        record(
            director,
            session.session_id,
            "etc/passwd",
            [location("a", length=64), location("b", length=36, node=1, container=2)],
        )
        record(
            director,
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
            path: list(director.get_recipe(session.session_id, path))
            for path in director.files_in_session(session.session_id)
        }
        restored = {
            path: list(fresh.get_recipe(session.session_id, path))
            for path in fresh.files_in_session(session.session_id)
        }
        assert restored == original
        assert restored["var/log"][0].container_id is None

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

    def test_export_writes_each_file_as_four_columns(self):
        director, session = self.build_director()
        payload = director.export_session(session.session_id)
        assert payload["version"] == SESSION_EXPORT_VERSION == 2
        first = payload["files"][0]
        assert first == {
            "path": "etc/passwd",
            "fingerprints": [synthetic_fingerprint("a").hex(), synthetic_fingerprint("b").hex()],
            "lengths": [64, 36],
            "node_ids": [0, 1],
            "container_ids": [0, 2],
        }
        assert payload["files"][1]["container_ids"] == [None]

    def test_import_rejects_bad_version_and_shape(self):
        director, session = self.build_director()
        payload = director.export_session(session.session_id)
        fresh = Director()
        with pytest.raises(RecipeError):
            fresh.import_session({**payload, "version": 99})
        with pytest.raises(RecipeError):
            fresh.import_session({"version": 2})
        first = payload["files"][0]
        broken = {**payload, "files": [{**first, "fingerprints": ["zz", "00"]}]}
        with pytest.raises(RecipeError):
            fresh.import_session(broken)
        missing = {key: value for key, value in first.items() if key != "node_ids"}
        with pytest.raises(RecipeError):
            fresh.import_session({**payload, "files": [missing]})
        assert fresh.sessions() == []

    def test_import_rejects_a_version_1_payload(self):
        director, session = self.build_director()
        payload = director.export_session(session.session_id)
        rows = [
            [fingerprint, length, node_id, container_id]
            for fingerprint, length, node_id, container_id in zip(
                *(payload["files"][0][key]
                  for key in ("fingerprints", "lengths", "node_ids", "container_ids"))
            )
        ]
        v1 = {**payload, "version": 1, "files": [{"path": "etc/passwd", "chunks": rows}]}
        with pytest.raises(RecipeError, match="version 1"):
            Director().import_session(v1)

    @pytest.mark.parametrize("column", ["fingerprints", "lengths", "node_ids", "container_ids"])
    @pytest.mark.parametrize("change", ["short", "long"])
    def test_import_rejects_columns_of_unequal_length(self, column, change):
        director, session = self.build_director()
        payload = director.export_session(session.session_id)
        first = payload["files"][0]
        values = first[column][:1] if change == "short" else first[column] + first[column][:1]
        uneven = {**payload, "files": [{**first, column: values}]}
        fresh = Director()
        with pytest.raises(RecipeError, match="unequal"):
            fresh.import_session(uneven)
        assert fresh.sessions() == []

    def test_import_rejects_a_path_named_twice(self):
        director, session = self.build_director()
        payload = director.export_session(session.session_id)
        first = payload["files"][0]
        shorter = {key: value[:1] if key != "path" else value for key, value in first.items()}
        twice = {**payload, "files": [first, shorter]}
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
