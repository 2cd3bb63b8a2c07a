import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapcoach import logio
from mapcoach.analytics import Emotion
from mapcoach.annotate import Effectiveness, Process
from mapcoach.causal import Marking, QuizScope, Sign
from mapcoach.engine import (
    Agent,
    EngineConfig,
    MalformedTree,
    ScaffoldEngine,
    ScaffoldKind,
    TargetHints,
)
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
        from mapcoach.annotate import annotate_session

        annotated = annotate_session(session.events, pack_module)
        assert {e.coherent for e in annotated} == {None, True, False}
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

    def test_non_finite_numbers_are_not_written(self, tmp_path):
        with pytest.raises(ValueError):
            logio.write_jsonl([{"t": float("nan")}], tmp_path / "bad.jsonl")

    def test_malformed_event_line_reports_position(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"student": "s", "t": 0.0, "duration": 1.0, "kind": "read", "page": "p"}\nnot json\n')
        with pytest.raises(FormatError) as err:
            logio.read_events(path)
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize(
        "reader",
        ["read_events", "read_annotated", "read_deliveries", "read_affect", "load_outcomes"],
    )
    @pytest.mark.parametrize(
        "content, message",
        [(b"{} {}\n", "line 1: Extra data"),
         (b"[1]\n", "line 1: expected a JSON object, got list"),
         (b"{}\n", "missing field"),
         (b"\xff\n", "codec can't decode byte 0xff")],
        ids=["two-values", "array", "missing-field", "not-utf-8"],
    )
    def test_a_bad_log_names_its_file_once(self, tmp_path, reader, content, message):
        path = tmp_path / "s1.jsonl"
        path.write_bytes(content)
        with pytest.raises(FormatError) as err:
            getattr(logio, reader)(path)
        text = str(err.value)
        assert text.startswith(f"{path}: ") and message in text
        assert text.count(str(path)) == 1


class TestCodec:
    """The reused encoder and decoder and the enum tables behave as
    json.dumps, json.loads and Enum(value) do, error messages included."""

    @pytest.mark.parametrize(
        "line",
        ['{"a": 1} ', '\ufeff{"a": 1}', '{"a": 1}{"b": 2}', '{"a": 1} x', '{"a": [1',
         '"text"', "NaN", '{"a": 1e999}'],
    )
    def test_a_line_reads_as_json_loads_reads_it(self, tmp_path, line):
        path = tmp_path / "log.jsonl"
        path.write_text(line + "\n")
        try:
            expected = json.loads(line.strip())
        except json.JSONDecodeError as exc:
            expected = f"{path}: line 1: {exc.msg}"
        else:
            if not isinstance(expected, dict):
                expected = f"{path}: line 1: expected a JSON object, got {type(expected).__name__}"
        try:
            got = logio.read_jsonl(path)[0]
        except FormatError as exc:
            got = str(exc)
        assert got == expected

    def test_a_line_is_decoded_on_its_own(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a":[1\n2]},{"b":0}\n')
        with pytest.raises(FormatError, match="line 1: "):
            logio.read_jsonl(path)

    def test_writes_json_dumps_bytes(self, tmp_path):
        records = [{"b": 1.5, "a": [True, None, "\u00e9\u2028"]}, {}]
        path = tmp_path / "log.jsonl"
        logio.write_jsonl(records, path)
        assert path.read_text() == "".join(
            json.dumps(r, sort_keys=True, allow_nan=False) + "\n" for r in records
        )
        logio.write_jsonl([], path)
        assert path.read_bytes() == b""

    @pytest.mark.parametrize("value", ["jump", [1], {"a": 1}, None, 3, True])
    def test_bad_enum_value_raises_enums_own_error(self, value):
        from mapcoach.annotate import ActionKind

        with pytest.raises(ValueError) as expected:
            ActionKind(value)
        record = {"student": "s", "t": 0.0, "duration": 1.0, "kind": value}
        with pytest.raises(ValueError) as got:
            logio.event_from_record(record)
        assert str(got.value) == str(expected.value)

    def test_note_and_question_may_be_null_or_absent(self):
        record = {"student": "s", "t": 0, "duration": 1, "kind": "quiz_expl"}
        assert logio.event_from_record(record).question_ref is None
        event = logio.event_from_record(dict(record, question=None, note=None))
        assert (event.question_ref, event.note_id) == (None, None)
        assert logio.event_from_record(dict(record, question=2)).question_ref == 2


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
            run_conversation,
        )
        from mapcoach.logio import load_trees, trees_to_document

        path = tmp_path / "trees.json"
        path.write_text(json.dumps(trees_to_document(default_trees())))
        loaded = load_trees(path)
        for kind in ScaffoldKind:
            assert run_conversation(loaded[kind]) == run_conversation(default_trees()[kind])

    def test_partial_document_keeps_bundled_trees(self):
        from mapcoach.engine import ScaffoldKind
        from mapcoach.logio import trees_from_document

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

    @pytest.mark.parametrize("nodes, error, match", [
        ([{"id": "x", "prompt": "p", "responses": [{"text": "loop", "goto": "x"}]}],
         MalformedTree, "node 'x' offers no exit"),
        *(([{"id": "x", "prompt": "p", "responses": [response]},
            {"id": "y", "prompt": "q", "responses": [{"text": "bye", "exit": True}]}],
           ValueError, "an exit of node 'x' must be true and name no goto")
          for response in ({"text": "a", "exit": "no", "goto": "x"},
                           {"text": "a", "exit": False, "goto": "y"},
                           {"text": "a", "exit": True, "goto": "y"},
                           {"text": "a", "exit": 1})),
    ])
    def test_malformed_tree_document_rejected(self, nodes, error, match):
        from mapcoach.logio import trees_from_document

        with pytest.raises(error, match=match):
            trees_from_document({"enc1": {"root": "x", "nodes": nodes}})


class TestProfileDocuments:
    def test_roundtrip(self, tmp_path):
        import json

        from mapcoach.logio import profiles_from_document, profiles_to_document
        from mapcoach.simulate import bundled_profiles

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

    @pytest.mark.parametrize("value", [True, "0.5", None])
    @pytest.mark.parametrize("path", [
        ("read_effectiveness",), ("quiz_propensity",), ("wrong_sign_share",),
        ("shortcut_share",), ("activity_mix", "read"), ("scaffold_compliance", "hint1"),
        ("affect_baseline", "boredom"), ("read_duration", 0), ("expl_duration", 1),
    ])
    def test_every_number_must_be_a_json_number(self, tmp_path, path, value):
        from mapcoach.logio import profiles_from_document, profiles_to_document

        doc = profiles_to_document(bundled_profiles())
        *parents, key = path
        holder = doc["high"]
        for parent in parents:
            holder = holder[parent]
        holder[key] = value
        file = tmp_path / "profiles.json"
        file.write_text(json.dumps(doc))
        name = " ".join(str(part) for part in path if not isinstance(part, int))
        with pytest.raises(FormatError, match=f"profile 'high' {name}.* cannot be "):
            logio.load_document(file, profiles_from_document)


class TestBundledTrees:
    def test_partial_document_leaves_the_bundled_trees_unchanged(self):
        from mapcoach.engine import ScaffoldKind, default_trees
        from mapcoach.logio import trees_from_document, trees_to_document

        before = json.dumps(trees_to_document(default_trees()))
        bundled = default_trees()
        doc = {"enc1": {"root": "x", "nodes": [
            {"id": "x", "prompt": "custom praise", "responses": [{"text": "ok", "exit": True}]}
        ]}}
        loaded = trees_from_document(doc)
        loaded[ScaffoldKind.ENC2] = loaded[ScaffoldKind.ENC1]
        assert json.dumps(trees_to_document(default_trees())) == before
        assert default_trees() == bundled and default_trees() is not bundled
        assert loaded[ScaffoldKind.HINT1] is bundled[ScaffoldKind.HINT1]


# -- the schema table in logio's docstring -------------------------------------


def documented_keys() -> dict[str, tuple[set, set]]:
    """Object name -> (required keys, optional keys), read from the key table
    in logio's docstring."""
    table = logio.__doc__.split("a key marked ? may be absent:\n")[1].split("\n\n")[0]
    text: dict[str, str] = {}
    for line in table.splitlines():
        entry = re.fullmatch(r"    (\S.*?)\s{2,}(\S.*)", line)
        if entry:
            name, keys = entry.groups()
            text[name] = keys
        else:
            text[name] += " " + line.strip()
    table = {}
    for name, keys in text.items():
        keys = keys.replace(",", " ").split()
        table[name] = ({k for k in keys if not k.endswith("?")},
                       {k[:-1] for k in keys if k.endswith("?")})
    return table


def every_edit() -> list:
    """One edit of each action, its links marked and given a page."""
    from mapcoach.annotate import MapEdit, MapEditAction
    from mapcoach.causal import CausalLink, Concept, Sign

    link = CausalLink("a", "b", Sign.INCREASE, Marking.MARKED_CORRECT, "p1")
    return [
        MapEdit(MapEditAction.ADD_CONCEPT, concept=Concept("a", "A", "s")),
        MapEdit(MapEditAction.DELETE_CONCEPT, concept_id="a"),
        MapEdit(MapEditAction.ADD_LINK, link=link),
        MapEdit(MapEditAction.DELETE_LINK, source="a", target="b"),
        MapEdit(MapEditAction.MODIFY_LINK, old=link, new=replace(link, sign=Sign.DECREASE)),
        MapEdit(MapEditAction.MARK_LINK, source="a", target="b", marking=Marking.MARKED_CORRECT),
    ]


def every_event() -> list:
    """One event of each kind, and one map edit of each action."""
    from mapcoach.annotate import ActionEvent, ActionKind

    def event(kind, **payload):
        return ActionEvent("s", 0.0, kind, 1.0, **payload)

    return [
        event(ActionKind.READ, page="p1"),
        event(ActionKind.MAKE_NOTES, note_id="n1"),
        *(event(ActionKind.MAP_EDIT, edit=edit) for edit in every_edit()),
        event(ActionKind.TAKE_QUIZ, quiz_scope=QuizScope.everything()),
        event(ActionKind.QUIZ_EXPL, question_ref=1),
    ]


class TestSchemaTable:
    """The key table in logio's docstring against what the writers emit."""

    @pytest.fixture(scope="class")
    def emitted(self, session, pack_module, tmp_path_factory) -> dict[str, list[set]]:
        """Object name -> the key set of each such object the writers wrote
        for a simulated session and one event of each kind and edit action."""
        from mapcoach.analytics import OutcomeRecord
        from mapcoach.annotate import AnnotatedEvent, Effectiveness, Process, annotate_session
        from mapcoach.engine import default_trees
        from mapcoach.logio import profiles_to_document, trees_to_document

        tmp = tmp_path_factory.mktemp("schema")
        events = [*session.events, *every_event()]
        annotated = [*annotate_session(session.events, pack_module),
                     *(AnnotatedEvent(e, Process.SC, Effectiveness.EFF, False, 0, True)
                       for e in every_event())]
        marked = replace(pack_module.map.sorted_links()[0], marking=Marking.MARKED_CORRECT)
        expert = pack_module.map.with_replaced_link(marked.key, marked)
        logio.write_events(events, tmp / "events.jsonl")
        logio.write_annotated(annotated, tmp / "annotated.jsonl")
        logio.write_affect(session.student_id, session.affect, tmp / "affect.jsonl")
        logio.write_deliveries(session.deliveries, tmp / "deliveries.jsonl")
        logio.write_outcomes([OutcomeRecord("s", 1.0, 2.0, 23.0)], tmp / "outcomes.jsonl")
        logio.save_map(expert, tmp / "map.json")
        found: dict[str, list[set]] = {}

        def add(name, obj):
            found.setdefault(name, []).append(set(obj))

        def add_link(link):
            add("link", link)

        def add_edit(edit):
            add("edit", edit)
            if "concept" in edit:
                add("concept", edit["concept"])
            for key in ("link", "old", "new"):
                if key in edit:
                    add_link(edit[key])

        for name, log in (("event", "events"), ("annotated event", "annotated")):
            for record in map(json.loads, (tmp / f"{log}.jsonl").read_text().splitlines()):
                add(name, record)
                if "edit" in record:
                    add_edit(record["edit"])
        for record in map(json.loads, (tmp / "affect.jsonl").read_text().splitlines()):
            add("affect", record)
        for record in map(json.loads, (tmp / "deliveries.jsonl").read_text().splitlines()):
            add("delivery", record)
            for step in record["transcript"]:
                add("transcript step", step)
        for record in map(json.loads, (tmp / "outcomes.jsonl").read_text().splitlines()):
            add("outcome", record)
        doc = json.loads((tmp / "map.json").read_text())
        add("map document", doc)
        for concept in doc["concepts"]:
            add("concept", concept)
        for link in doc["links"]:
            add_link(link)
        trees = trees_to_document(default_trees())
        add("tree document", trees)
        for tree in trees.values():
            add("tree", tree)
            for node in tree["nodes"]:
                add("node", node)
                for response in node["responses"]:
                    add("response", response)
        profiles = profiles_to_document(bundled_profiles())
        add("profiles document", profiles)
        for profile in profiles.values():
            add("profile", profile)
        return found

    def test_every_documented_object_is_written(self, emitted):
        assert set(emitted) == set(documented_keys()) - {"engine settings"}

    def test_each_written_object_has_its_documented_keys(self, emitted):
        for name, key_sets in emitted.items():
            required, optional = documented_keys()[name]
            for keys in key_sets:
                assert required <= keys <= required | optional, (name, keys)

    def test_each_optional_key_is_written_somewhere(self, emitted):
        for name, key_sets in emitted.items():
            required, optional = documented_keys()[name]
            assert set().union(*key_sets) == required | optional, name

    def test_engine_settings_are_the_engine_config_fields(self):
        from dataclasses import fields

        from mapcoach.engine import EngineConfig

        required, optional = documented_keys()["engine settings"]
        assert required == set()
        assert optional == {f.name for f in fields(EngineConfig)}
        settings = {f.name: f.default for f in fields(EngineConfig)}
        settings["disabled_kinds"] = ["hint2"]
        assert set(logio.engine_settings_from_document(settings)) == optional


# -- write -> read round trips -------------------------------------------------


# any JSON value, NaN, the infinities and an integer too large for a float included
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.just(10**400), st.floats(),
              st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=2),
                            st.dictionaries(st.text(max_size=3), inner, max_size=2)),
    max_leaves=4,
)
DROP = object()


def json_paths(value, path=()):
    """The path of every value nested in a JSON value, its own () first."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) \
        if isinstance(value, list) else ()
    for key, item in items:
        yield from json_paths(item, (*path, key))


@st.composite
def mutated(draw, valid):
    """A value drawn from `valid`; every other time, one value nested in it,
    or the whole, is dropped or replaced by any JSON value."""
    value = draw(valid)
    if draw(st.booleans()):
        return value
    path = draw(st.sampled_from(list(json_paths(value))))
    new = draw(st.one_of(st.just(DROP), JSON_VALUES))
    if not path:
        return None if new is DROP else new
    *parents, key = path
    parent = value
    for step in parents:
        parent = parent[step]
    if new is DROP:
        del parent[key]
    else:
        parent[key] = new
    return value


def members(enum):
    return st.sampled_from([member.value for member in enum])


NAMES = st.sampled_from(["a", "b", "c"])
TIMES = st.one_of(st.integers(0, 10**6), st.floats(0, 1e6))
SHARES = st.floats(0, 1)
CONCEPTS = st.builds(lambda id, name, section: {"id": id, "name": name, "section": section},
                     NAMES, NAMES, NAMES)


def links(sources=NAMES, targets=NAMES):
    return st.fixed_dictionaries(
        {"source": sources, "target": targets, "sign": members(Sign)},
        optional={"marking": members(Marking), "page": st.one_of(st.none(), NAMES)},
    )


EDITS = st.one_of(
    st.fixed_dictionaries({"action": st.just("add_concept"), "concept": CONCEPTS}),
    st.fixed_dictionaries({"action": st.just("delete_concept"), "concept_id": NAMES}),
    st.fixed_dictionaries({"action": st.just("add_link"), "link": links()}),
    st.fixed_dictionaries({"action": st.just("delete_link"), "source": NAMES, "target": NAMES}),
    st.fixed_dictionaries({"action": st.just("modify_link"), "old": links(), "new": links()}),
    st.fixed_dictionaries({"action": st.just("mark_link"), "source": NAMES, "target": NAMES,
                           "marking": members(Marking)}),
)
PAYLOADS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("read")},
                          optional={"page": st.one_of(st.none(), NAMES)}),
    st.fixed_dictionaries({"kind": st.just("make_notes")},
                          optional={"note": st.one_of(st.none(), NAMES)}),
    st.fixed_dictionaries({"kind": st.just("map_edit"), "edit": EDITS}),
    st.fixed_dictionaries({"kind": st.just("take_quiz"),
                           "scope": st.one_of(st.just("everything"),
                                              NAMES.map("section:".__add__))}),
    st.fixed_dictionaries({"kind": st.just("quiz_expl")},
                          optional={"question": st.one_of(st.none(), st.integers(0, 9))}),
)
EVENTS = st.builds(lambda base, payload: {**base, **payload},
                   st.fixed_dictionaries({"student": NAMES, "t": TIMES, "duration": TIMES}),
                   PAYLOADS)
ANNOTATED = st.builds(
    lambda event, extra: {**event, **extra}, EVENTS,
    st.fixed_dictionaries({"process": members(Process), "effectiveness": members(Effectiveness),
                           "long": st.booleans(), "score": st.integers(-9, 9)},
                          optional={"coherent": st.booleans()}),
)
AFFECT = st.fixed_dictionaries({
    "student": NAMES, "t": TIMES,
    "likelihoods": st.fixed_dictionaries({e.value: SHARES for e in Emotion}),
})
OPTIONAL_INDEX = st.one_of(st.none(), st.integers(0, 99))
OPTIONAL_TIME = st.one_of(st.none(), TIMES)
DELIVERIES = st.fixed_dictionaries(
    {"student": NAMES, "kind": members(ScaffoldKind), "agent": members(Agent), "t": TIMES,
     "rule": NAMES, "prev_index": OPTIONAL_INDEX, "cur_index": OPTIONAL_INDEX,
     "prev_t": OPTIONAL_TIME, "cur_t": OPTIONAL_TIME,
     "transcript": st.lists(st.fixed_dictionaries(
         {"node": NAMES, "prompt": NAMES, "response": NAMES}), max_size=2)},
    optional={"detail": st.dictionaries(NAMES, NAMES, max_size=2),
              "hints": st.fixed_dictionaries(
                  {}, optional={k: NAMES for k in TargetHints.__slots__})},
)
OUTCOMES = st.fixed_dictionaries({"student": NAMES, "pre": TIMES, "post": TIMES, "max": TIMES})


@st.composite
def map_documents(draw):
    """Concepts with distinct ids, and links between two of them."""
    concepts = draw(st.lists(CONCEPTS, max_size=3, unique_by=lambda c: c["id"]))
    ids = [c["id"] for c in concepts]
    pairs = [(s, t) for s in ids for t in ids if s != t]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3)) if pairs else []
    return {"format": logio.MAP_FORMAT, "concepts": concepts,
            "links": [draw(links(st.just(s), st.just(t))) for s, t in chosen]}


@st.composite
def tree_documents(draw):
    """Trees of a chain of one to three nodes, each offering an exit."""
    doc = {}
    for kind in draw(st.lists(members(ScaffoldKind), unique=True, max_size=3)):
        size = draw(st.integers(1, 3))
        nodes = []
        for i in range(size):
            responses = [{"text": draw(NAMES), "exit": True}]
            if i + 1 < size:
                responses.append({"text": draw(NAMES), "goto": f"n{i + 1}"})
            nodes.append({"id": f"n{i}", "prompt": draw(NAMES),
                          "responses": draw(st.permutations(responses))})
        doc[kind] = {"root": "n0", "nodes": nodes}
    return doc


@st.composite
def profile_documents(draw):
    """The bundled profiles with every number drawn anew (an activity mix as
    normalised weights) and some optional fields left out."""
    from mapcoach.logio import DURATION_FIELDS, profiles_to_document

    doc = profiles_to_document(bundled_profiles())
    for profile in doc.values():
        weights = draw(st.lists(st.floats(0.01, 1), min_size=5, max_size=5))
        profile["activity_mix"] = {k: w / sum(weights)
                                   for k, w in zip(profile["activity_mix"], weights)}
        for key in ("read_effectiveness", "quiz_propensity", "wrong_sign_share",
                    "shortcut_share"):
            profile[key] = draw(SHARES)
        for key in DURATION_FIELDS:
            profile[key] = [draw(st.floats(0.1, 100)), draw(st.floats(0, 100))]
        for key in ("scaffold_compliance", "affect_baseline"):
            profile[key] = {k: draw(SHARES) for k in profile[key]}
        for key in draw(st.sets(st.sampled_from(
                ["scaffold_compliance", "wrong_sign_share", "shortcut_share"]))):
            del profile[key]
    return doc


def read_back_equal(read, write, text: str, same=lambda value: value) -> bool:
    """Whether `read` accepts a file holding `text`; if it does, what it
    read is written, read back equal (as `same` sees it), and written again
    byte for byte."""
    with tempfile.TemporaryDirectory() as tmp:
        given, first, second = (Path(tmp) / name for name in ("given", "first", "second"))
        given.write_text(text)
        try:
            value = read(given)
        except FormatError:
            return False
        write(value, first)
        again = read(first)
        assert same(again) == same(value)
        write(again, second)
        assert second.read_bytes() == first.read_bytes()
        return True


def write_document(to_document):
    def write(value, path):
        path.write_text(json.dumps(to_document(value), indent=2, sort_keys=True) + "\n")
    return write


def write_affect(observations, path):
    logio.write_affect(observations[0].student_id, observations, path)


def tree_walks(trees):
    return {kind: (tree.root, tree.nodes) for kind, tree in trees.items()}


ROUND_TRIPS = {
    "events": (EVENTS, logio.read_events, logio.write_events),
    "annotated": (ANNOTATED, logio.read_annotated, logio.write_annotated),
    "affect": (AFFECT, logio.read_affect, write_affect),
    "deliveries": (DELIVERIES, logio.read_deliveries, logio.write_deliveries),
    "outcomes": (OUTCOMES, logio.load_outcomes, logio.write_outcomes),
}


class TestRoundTrip:
    """For each format, whatever its reader accepts reads back equal after
    write -> read, and writing it again gives the same bytes. Half of the
    drawn files are valid; the others have one value dropped or replaced."""

    @pytest.mark.parametrize("log", ROUND_TRIPS)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_log(self, log, data):
        records, read, write = ROUND_TRIPS[log]
        record = data.draw(mutated(records))
        read_back_equal(read, write, json.dumps(record) + "\n")

    @settings(max_examples=100, deadline=None)
    @given(doc=mutated(map_documents()))
    def test_map_document(self, doc):
        read_back_equal(logio.load_map, logio.save_map, json.dumps(doc))

    @settings(max_examples=100, deadline=None)
    @given(doc=mutated(tree_documents()))
    def test_tree_document(self, doc):
        from mapcoach.logio import load_trees, trees_to_document

        read_back_equal(load_trees, write_document(trees_to_document), json.dumps(doc),
                        same=tree_walks)

    @settings(max_examples=100, deadline=None)
    @given(doc=mutated(profile_documents()))
    def test_profiles_document(self, doc):
        from mapcoach.logio import profiles_from_document, profiles_to_document

        read_back_equal(lambda path: logio.load_document(path, profiles_from_document),
                        write_document(profiles_to_document), json.dumps(doc))
