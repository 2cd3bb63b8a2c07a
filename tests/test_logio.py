import json

import pytest

from mapcoach import logio
from mapcoach.causal import Marking, QuizScope
from mapcoach.engine import EngineConfig, ScaffoldEngine
from mapcoach.logio import FormatError
from mapcoach.pack import default_expert_map
from mapcoach.simulate import bundled_profiles, simulate_session
from dataclasses import replace


@pytest.fixture(scope="module")
def session(pack_module):
    profile = replace(bundled_profiles()["low"], student_id="s-io", seed=99)
    engine = ScaffoldEngine("s-io", pack_module, EngineConfig())
    return simulate_session(profile, pack_module, 1200.0, engine)


@pytest.fixture(scope="module")
def pack_module():
    return default_expert_map()


class TestMapDocuments:
    def test_roundtrip_preserves_map(self, pack_module, tmp_path):
        path = tmp_path / "expert.json"
        logio.save_map(pack_module.map, path)
        loaded = logio.load_map(path)
        assert loaded == pack_module.map

    def test_canonical_save_is_byte_stable(self, pack_module, tmp_path):
        first = logio.dumps_map(pack_module.map)
        reloaded = logio.map_from_document(json.loads(first))
        assert logio.dumps_map(reloaded) == first

    def test_scrambled_document_canonicalizes(self, pack_module):
        doc = logio.map_to_document(pack_module.map)
        doc["concepts"] = list(reversed(doc["concepts"]))
        doc["links"] = list(reversed(doc["links"]))
        assert logio.dumps_map(logio.map_from_document(doc)) == logio.dumps_map(pack_module.map)

    def test_markings_roundtrip(self, pack_module, tmp_path):
        from mapcoach.annotate import MapEdit, MapEditAction, apply_edit

        marked = apply_edit(
            pack_module.map,
            MapEdit(
                MapEditAction.MARK_LINK,
                source="cold_exposure",
                target="cold_detection",
                marking=Marking.MARKED_CORRECT,
            ),
        )
        path = tmp_path / "marked.json"
        logio.save_map(marked, path)
        assert logio.load_map(path) == marked

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "mapcoach-map/1",\n  "concepts": [}\n')
        with pytest.raises(FormatError) as err:
            logio.load_map(path)
        assert "line 2" in str(err.value)

    def test_wrong_format_marker_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(FormatError):
            logio.load_map(path)


class TestEventLogs:
    def test_event_roundtrip_covers_all_kinds(self, session, tmp_path):
        path = tmp_path / "events.jsonl"
        logio.write_events(session.events, path)
        back = logio.read_events(path)
        assert back == list(session.events)
        kinds = {e.kind.value for e in back}
        assert {"read", "map_edit", "take_quiz"} <= kinds

    def test_annotated_roundtrip(self, session, pack_module, tmp_path):
        from mapcoach.annotate import annotate_session, tag_coherence

        annotated = tag_coherence(
            annotate_session(session.events, pack_module), pack_module
        )
        path = tmp_path / "annotated.jsonl"
        logio.write_annotated(annotated, path)
        assert logio.read_annotated(path) == annotated

    def test_delivery_roundtrip(self, session, tmp_path):
        path = tmp_path / "deliveries.jsonl"
        logio.write_deliveries(session.deliveries, path)
        assert tuple(logio.read_deliveries(path)) == session.deliveries

    def test_affect_roundtrip(self, session, tmp_path):
        path = tmp_path / "affect.jsonl"
        logio.write_affect(session.student_id, session.affect, path)
        assert tuple(logio.read_affect(path)) == session.affect

    def test_writes_are_deterministic(self, session, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        logio.write_events(session.events, a)
        logio.write_events(session.events, b)
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_event_line_reports_position(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"student": "s", "t": 0.0, "duration": 1.0, "kind": "read", "page": "p"}\nnot json\n')
        with pytest.raises(FormatError) as err:
            logio.read_events(path)
        assert "line 2" in str(err.value)


class TestScopes:
    def test_everything_roundtrip(self):
        scope = QuizScope.everything()
        assert logio.scope_from_str(scope.display()) == scope

    def test_section_roundtrip(self):
        scope = QuizScope.for_section("cold")
        assert logio.scope_from_str(scope.display()) == scope

    def test_bad_scope_rejected(self):
        with pytest.raises(FormatError):
            logio.scope_from_str("quiz-me")


class TestGrouping:
    def test_grouping_roundtrip(self, tmp_path):
        grouping = {"s1": "High", "s2": "Low"}
        path = tmp_path / "grouping.json"
        logio.write_grouping(grouping, path)
        assert logio.load_grouping(path) == grouping


class TestTreeDocuments:
    def test_roundtrip_preserves_walks(self, tmp_path):
        from mapcoach.engine import (
            ScaffoldKind,
            default_trees,
            load_trees,
            run_conversation,
            save_trees,
        )

        path = tmp_path / "trees.json"
        save_trees(default_trees(), path)
        loaded = load_trees(path)
        for kind in ScaffoldKind:
            assert run_conversation(loaded[kind]) == run_conversation(default_trees()[kind])

    def test_partial_document_keeps_bundled_trees(self):
        from mapcoach.engine import ScaffoldKind, trees_from_document

        doc = {
            "enc1": {
                "root": "x",
                "nodes": [
                    {"id": "x", "prompt": "custom praise",
                     "responses": [{"text": "thanks", "exit": True}]}
                ],
            }
        }
        trees = trees_from_document(doc)
        assert trees[ScaffoldKind.ENC1].nodes["x"].prompt == "custom praise"
        assert set(trees) == set(ScaffoldKind)

    def test_malformed_tree_document_rejected(self):
        from mapcoach.engine import MalformedTree, trees_from_document

        doc = {
            "enc1": {
                "root": "x",
                "nodes": [
                    {"id": "x", "prompt": "p", "responses": [{"text": "loop", "goto": "x"}]}
                ],
            }
        }
        import pytest as _pytest
        with _pytest.raises(MalformedTree):
            trees_from_document(doc)


class TestProfileDocuments:
    def test_roundtrip(self, tmp_path):
        import json

        from mapcoach.simulate import (
            bundled_profiles,
            profiles_from_document,
            profiles_to_document,
        )

        doc = profiles_to_document(bundled_profiles())
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True))
        loaded = profiles_from_document(json.loads(path.read_text()))
        base = bundled_profiles()
        for name in ("high", "low"):
            assert loaded[name].activity_mix == base[name].activity_mix
            assert loaded[name].read_effectiveness == base[name].read_effectiveness
            assert loaded[name].scaffold_compliance == base[name].scaffold_compliance
            assert loaded[name].read_duration == base[name].read_duration
