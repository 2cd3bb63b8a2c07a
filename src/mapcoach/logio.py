"""File formats: map documents; event, affect, delivery and outcome logs;
conversation-tree, profile, engine-settings and grouping files. No other
module knows their JSON shape.

All writers are deterministic (sorted keys, fixed field order) so reruns
with the same seed produce byte-identical files.  A log holds one JSON
object per line; every other file holds one JSON object.

Keys of each JSON object; a key marked ? may be absent:
    map document       format, concepts, links
    concept            id, name, section
    link               source, target, sign, marking?, page?
    event              student, t, duration, kind, page?, note?, edit?, scope?,
                       question?
    edit               action, concept?, concept_id?, link?, source?, target?,
                       old?, new?, marking?
    annotated event    student, t, duration, kind, page?, note?, edit?, scope?,
                       question?, process, effectiveness, long, score, coherent?
    affect             student, t, likelihoods
    delivery           student, kind, agent, t, rule, prev_index, cur_index,
                       prev_t, cur_t, detail, hints?, transcript
    transcript step    node, prompt, response
    outcome            student, pre, post, max
    tree document      hint1?, hint2?, hint3?, hint4?, hint5?, hint6?, enc1?,
                       enc2?, enc3?
    tree               root, nodes
    node               id, prompt, responses
    response           text, goto?, exit?
    profiles document  high, low
    profile            activity_mix, read_effectiveness, quiz_propensity,
                       scaffold_compliance?, read_duration, edit_duration,
                       quiz_duration, note_duration, expl_duration,
                       affect_baseline, wrong_sign_share?, shortcut_share?
    engine settings    min_inter_scaffold_seconds?, hint1_window_events?,
                       hint1_window_seconds?, long_threshold?, enc3_every?,
                       disabled_kinds?

A map document's format is "mapcoach-map/1"; its concepts are sorted by id
and its links by (source, target).  An event carries the payload its kind
names (read: page, make_notes: note, map_edit: edit, take_quiz: scope,
quiz_expl: question) and an edit the fields its action names (add_concept:
concept, delete_concept: concept_id, add_link: link, delete_link: source
and target, modify_link: old and new, mark_link: source, target and
marking).  An annotated event has coherent if its edit was tagged for
coherence.  A response has a goto, or exit true.  Outcomes are test points.
likelihoods, activity_mix, scaffold_compliance and affect_baseline map
emotions, action kinds and scaffold kinds to values in [0, 1]; a profile's
durations are [mean, spread] in seconds.  A tree document's absent kinds
keep their bundled tree.  A grouping document maps student ids to group
names.

The readers check these fields' JSON types ("number" excludes true and
false, which Python's json reads as bool):
    logs        student: string
    events      t, duration: finite number, duration >= 0; kind: string
                naming an action kind; page, note: string or null;
                question: integer or null; scope: string, "everything" or
                "section:<name>"
    edits       the edit, its concept and links: object; action, sign,
                marking: string naming a member; concept id, name and
                section, link source and target, concept_id and the
                source and target of delete and mark edits: string; link
                page: string or null
    maps        concepts, links: array, each read as in edits
    annotated   as events, plus process, effectiveness: string naming a
                member; long: true/false; score: integer; coherent:
                true/false if present
    affect      t: finite number; likelihoods: object with exactly the five
                emotions, each a finite number in [0, 1]
    deliveries  t: finite number; kind, agent: string naming a member;
                rule: string; prev_index, cur_index: integer or null;
                prev_t, cur_t: finite number or null; detail, hints: object
                of strings; transcript: array of objects whose node, prompt
                and response are strings
    outcomes    pre, post, max: finite number, pre < max
    trees       the document, each tree, node and response: object; nodes,
                responses: array; root, node id, prompt, text and goto:
                string
    profiles    the document, each profile, activity_mix,
                scaffold_compliance and affect_baseline: object; their
                values and the shares in [0, 1]; durations finite
    settings    the document: object; hint1_window_events, enc3_every:
                integer; disabled_kinds: array of scaffold kinds; the
                others: number
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

from .analytics import AffectObservation, Emotion, OutcomeRecord
from .annotate import (
    ActionEvent,
    ActionKind,
    AnnotatedEvent,
    Effectiveness,
    MapEdit,
    MapEditAction,
    Process,
)
from .causal import (
    CausalLink,
    CausalMap,
    Concept,
    ExpertMap,
    Marking,
    QuizScope,
    Sign,
)
from .engine import (
    Agent,
    ConversationNode,
    ConversationTree,
    EngineConfig,
    ResponseOption,
    ScaffoldDelivery,
    ScaffoldKind,
    TargetHints,
    TranscriptStep,
    TriggerContext,
    default_trees,
)
from .simulate import DurationModel, StudentProfile

MAP_FORMAT = "mapcoach-map/1"

T = TypeVar("T")
E = TypeVar("E", bound=Enum)


class FormatError(ValueError):
    pass


def _typed(value, what: str, *types: type):
    """value, when its type is one of the JSON types `types`; otherwise a
    ValueError saying what it cannot be. JSON values have exact types, so a
    bool is not a number."""
    if type(value) not in types:
        raise ValueError(f"{what} cannot be {type(value).__name__}")
    return value


def _number(value, what: str) -> float:
    """value, a JSON number, as a float; otherwise a ValueError saying what
    it cannot be."""
    if type(value) is not float:
        value = float(_typed(value, what, int, float))
    return value


def _by_value(enum: type[E]) -> Callable[[object], E]:
    """enum(value) through a value -> member dict built once; a value that
    names no member still raises enum(value)'s own ValueError."""
    members = {member.value: member for member in enum}

    def member(value) -> E:
        try:
            return members[value]
        except (KeyError, TypeError):
            return enum(value)

    return member


_sign = _by_value(Sign)
_marking = _by_value(Marking)
_edit_action = _by_value(MapEditAction)
_action_kind = _by_value(ActionKind)
_process = _by_value(Process)
_effectiveness = _by_value(Effectiveness)
_emotion = _by_value(Emotion)
_scaffold_kind = _by_value(ScaffoldKind)
_agent = _by_value(Agent)

# members as module globals: a global read costs a fraction of a class
# attribute read
_READ, _MAKE_NOTES, _MAP_EDIT, _TAKE_QUIZ, _QUIZ_EXPL = (
    ActionKind.READ, ActionKind.MAKE_NOTES, ActionKind.MAP_EDIT, ActionKind.TAKE_QUIZ,
    ActionKind.QUIZ_EXPL,
)
_ADD_CONCEPT, _DELETE_CONCEPT, _ADD_LINK, _DELETE_LINK, _MODIFY_LINK, _MARK_LINK = (
    MapEditAction.ADD_CONCEPT, MapEditAction.DELETE_CONCEPT, MapEditAction.ADD_LINK,
    MapEditAction.DELETE_LINK, MapEditAction.MODIFY_LINK, MapEditAction.MARK_LINK,
)


# -- map documents ---------------------------------------------------------


def _concept_to_record(c: Concept) -> dict:
    return {"id": c.id, "name": c.name, "section": c.section}


def _concept_from_record(record) -> Concept:
    """A concept object whose id, name and section are strings."""
    _typed(record, "a concept", dict)
    return Concept(id=_typed(record["id"], "concept field 'id'", str),
                   name=_typed(record["name"], "concept field 'name'", str),
                   section=_typed(record["section"], "concept field 'section'", str))


def link_to_record(link: CausalLink) -> dict:
    record = {"source": link.source, "target": link.target, "sign": link.sign}
    if link.marking is not Marking.UNMARKED:
        record["marking"] = link.marking
    if link.source_page is not None:
        record["page"] = link.source_page
    return record


def link_from_record(record) -> CausalLink:
    """A link object: string source and target, a sign, and, if present, a
    marking and a page that is a string or null."""
    _typed(record, "a link", dict)
    source = _typed(record["source"], "link field 'source'", str)
    target = _typed(record["target"], "link field 'target'", str)
    sign = _sign(record["sign"])
    marking = _marking(record["marking"]) if "marking" in record else Marking.UNMARKED
    page = record.get("page")
    if page is not None:
        _typed(page, "link field 'page'", str)
    return CausalLink(source, target, sign, marking, page)


def map_to_document(cmap: CausalMap) -> dict:
    return {
        "format": MAP_FORMAT,
        "concepts": [_concept_to_record(c) for c in cmap.sorted_concepts()],
        "links": [link_to_record(l) for l in cmap.sorted_links()],
    }


def map_from_document(doc: dict) -> CausalMap:
    if not isinstance(doc, dict) or doc.get("format") != MAP_FORMAT:
        raise FormatError(f"not a {MAP_FORMAT} document")
    concepts = [_concept_from_record(c) for c in _typed(doc["concepts"], "concepts", list)]
    links = [link_from_record(r) for r in _typed(doc["links"], "links", list)]
    return CausalMap(concepts, links)


def dumps_map(cmap: CausalMap) -> str:
    return json.dumps(map_to_document(cmap), indent=2, sort_keys=True) + "\n"


def save_map(cmap: CausalMap, path: Path):
    Path(path).write_text(dumps_map(cmap))


def load_document(path: Path, parse: Callable[[object], T]) -> T:
    """parse applied to the JSON document in a file. A directory at path, a
    file that is not UTF-8, a decode error, or nesting deeper than the
    decoder's recursion limit, is a FormatError naming the file, and so is
    whatever `_parsed` turns into one."""
    try:
        doc = json.loads(Path(path).read_text())
    except IsADirectoryError as exc:
        raise FormatError(f"{path}: is a directory") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise FormatError(f"{path}: JSON nested too deeply") from exc
    return _parsed(path, parse, doc)


def _parsed(path: Path, parse: Callable[[object], T], value) -> T:
    """parse(value), read from the file at path: a missing field (KeyError),
    a value parse rejects (TypeError, ValueError) or a number too large for
    a float (OverflowError) is a FormatError naming the file."""
    try:
        return parse(value)
    except KeyError as exc:
        raise FormatError(f"{path}: missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def load_map(path: Path) -> CausalMap:
    return load_document(path, map_from_document)


def load_expert_map(path: Path) -> ExpertMap:
    return load_document(path, lambda doc: ExpertMap(map_from_document(doc)))


# -- quiz scopes -------------------------------------------------------------


def scope_from_str(text: str) -> QuizScope:
    if text == "everything":
        return QuizScope.everything()
    if isinstance(text, str) and text.startswith("section:"):
        return QuizScope.for_section(text.split(":", 1)[1])
    raise FormatError(f"bad quiz scope {text!r}")


# -- events --------------------------------------------------------------------


def _edit_to_record(edit: MapEdit) -> dict:
    a = edit.action
    record: dict = {"action": a}
    if a is _ADD_CONCEPT:
        record["concept"] = _concept_to_record(edit.concept)
    elif a is _DELETE_CONCEPT:
        record["concept_id"] = edit.concept_id
    elif a is _ADD_LINK:
        record["link"] = link_to_record(edit.link)
    elif a is _DELETE_LINK:
        record["source"], record["target"] = edit.source, edit.target
    elif a is _MODIFY_LINK:
        record["old"] = link_to_record(edit.old)
        record["new"] = link_to_record(edit.new)
    elif a is _MARK_LINK:
        record["source"], record["target"] = edit.source, edit.target
        record["marking"] = edit.marking
    return record


def _edit_from_record(record) -> MapEdit:
    a = _edit_action(_typed(record, "field 'edit'", dict)["action"])
    if a is _ADD_CONCEPT:
        return MapEdit(a, concept=_concept_from_record(record["concept"]))
    if a is _DELETE_CONCEPT:
        return MapEdit(a, concept_id=_typed(record["concept_id"], "edit field 'concept_id'", str))
    if a is _ADD_LINK:
        return MapEdit(a, link=link_from_record(record["link"]))
    if a is _MODIFY_LINK:
        return MapEdit(a, old=link_from_record(record["old"]), new=link_from_record(record["new"]))
    source = _typed(record["source"], "edit field 'source'", str)
    target = _typed(record["target"], "edit field 'target'", str)
    if a is _DELETE_LINK:
        return MapEdit(a, source=source, target=target)
    return MapEdit(a, source=source, target=target, marking=_marking(record["marking"]))


def event_to_record(event: ActionEvent) -> dict:
    kind = event.kind
    record = {
        "student": event.student_id,
        "t": event.timestamp,
        "duration": event.duration,
        "kind": kind,
    }
    if kind is _READ:
        record["page"] = event.page
    elif kind is _MAKE_NOTES:
        record["note"] = event.note_id
    elif kind is _MAP_EDIT:
        record["edit"] = _edit_to_record(event.edit)
    elif kind is _TAKE_QUIZ:
        record["scope"] = event.quiz_scope.display()
    elif kind is _QUIZ_EXPL:
        record["question"] = event.question_ref
    return record


def event_from_record(record: dict) -> ActionEvent:
    """One logged action, at a finite time and with a finite duration >= 0.
    Of the payload fields, only the one its kind writes is read."""
    kind = _action_kind(record["kind"])
    timestamp = _number(record["t"], "field 't'")
    duration = _number(record["duration"], "field 'duration'")
    if not (math.isfinite(timestamp) and math.isfinite(duration) and duration >= 0):
        raise ValueError(f"student {record['student']}: need a finite time and a finite "
                         f"duration >= 0, got t {timestamp}, duration {duration}")
    page = note = edit = scope = question = None
    if kind is _READ:
        page = record.get("page")
        if page is not None and type(page) is not str:
            _typed(page, "field 'page'", str)
    elif kind is _MAKE_NOTES:
        note = record.get("note")
        if note is not None and type(note) is not str:
            _typed(note, "field 'note'", str)
    elif kind is _MAP_EDIT:
        edit = _edit_from_record(record["edit"])
    elif kind is _TAKE_QUIZ:
        scope = scope_from_str(record["scope"])
    else:
        question = record.get("question")
        if question is not None and type(question) is not int:
            _typed(question, "field 'question'", int)
    return ActionEvent(
        student_id=_typed(record["student"], "field 'student'", str),
        timestamp=timestamp,
        duration=duration,
        kind=kind,
        page=page,
        note_id=note,
        edit=edit,
        quiz_scope=scope,
        question_ref=question,
    )


def annotated_to_record(event: AnnotatedEvent) -> dict:
    record = event_to_record(event.base)
    record["process"] = event.process
    record["effectiveness"] = event.effectiveness
    record["long"] = event.long
    record["score"] = event.map_score_after
    if event.coherent is not None:
        record["coherent"] = event.coherent
    return record


def annotated_from_record(record: dict) -> AnnotatedEvent:
    return AnnotatedEvent(
        base=event_from_record(record),
        process=_process(record["process"]),
        effectiveness=_effectiveness(record["effectiveness"]),
        long=_typed(record["long"], "field 'long'", bool),
        map_score_after=_typed(record["score"], "field 'score'", int),
        coherent=(_typed(record["coherent"], "field 'coherent'", bool)
                  if "coherent" in record else None),
    )


# -- affect ---------------------------------------------------------------------


_EMOTION_VALUES = tuple((emotion, emotion.value) for emotion in Emotion)


def affect_to_record(student_id: str, obs: AffectObservation) -> dict:
    likelihoods = obs.likelihoods
    return {
        "student": student_id,
        "t": obs.timestamp,
        "likelihoods": {value: likelihoods[emotion] for emotion, value in _EMOTION_VALUES},
    }


def _finite_time(record: dict, name: str = "t") -> float:
    """The record's field `name`: a finite JSON number."""
    t = _number(record[name], f"field {name!r}")
    if not math.isfinite(t):
        raise ValueError(f"field {name!r} must be finite, got {t}")
    return t


def affect_from_record(record: dict) -> AffectObservation:
    """One observation at a finite time, with a likelihood in [0, 1] for
    each of the five emotions and for nothing else."""
    student_id = _typed(record["student"], "field 'student'", str)
    timestamp = _finite_time(record)
    given = _typed(record["likelihoods"], "field 'likelihoods'", dict)
    likelihoods = {}
    for key, value in given.items():
        emotion = _emotion(key)
        if type(value) is not float:
            value = _number(value, f"field {key!r}")
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"likelihood {key!r} must be in [0, 1], got {value}")
        likelihoods[emotion] = value
    if len(likelihoods) != len(_EMOTION_VALUES):
        missing = [value for emotion, value in _EMOTION_VALUES if emotion not in likelihoods]
        raise ValueError(f"likelihoods miss {', '.join(missing)}")
    return AffectObservation(student_id=student_id, timestamp=timestamp, likelihoods=likelihoods)


# -- deliveries -------------------------------------------------------------------


def delivery_to_record(d: ScaffoldDelivery) -> dict:
    record = {
        "student": d.student_id,
        "kind": d.kind,
        "agent": d.agent,
        "t": d.timestamp,
        "rule": d.trigger.rule,
        "prev_index": d.trigger.prev_index,
        "cur_index": d.trigger.cur_index,
        "prev_t": d.trigger.prev_time,
        "cur_t": d.trigger.cur_time,
        "detail": d.trigger.detail,
        "transcript": [
            {"node": s.node, "prompt": s.prompt, "response": s.response}
            for s in d.transcript
        ],
    }
    if d.target_hints is not None:
        record["hints"] = d.target_hints.template_vars()
    return record


def delivery_from_record(record: dict) -> ScaffoldDelivery:
    """One delivery at a finite time. Its trigger has a string rule, and an
    integer or null index and a finite or null time for each event of its
    pair; detail and hints are objects of strings, and each transcript step
    has a string node, prompt and response."""
    hints = record.get("hints")
    if hints is not None:
        hints = TargetHints(**hints)  # first: its errors name a non-object or unknown key
        _strings(hints.template_vars(), "field 'hints'")
    return ScaffoldDelivery(
        student_id=_typed(record["student"], "field 'student'", str),
        kind=_scaffold_kind(record["kind"]),
        agent=_agent(record["agent"]),
        timestamp=_finite_time(record),
        trigger=TriggerContext(
            rule=_typed(record["rule"], "field 'rule'", str),
            prev_index=_typed(record["prev_index"], "field 'prev_index'", int, type(None)),
            cur_index=_typed(record["cur_index"], "field 'cur_index'", int, type(None)),
            prev_time=None if record["prev_t"] is None else _finite_time(record, "prev_t"),
            cur_time=None if record["cur_t"] is None else _finite_time(record, "cur_t"),
            detail=_strings(record.get("detail", {}), "field 'detail'"),
        ),
        transcript=tuple(map(_step_from_record,
                             _typed(record["transcript"], "field 'transcript'", list))),
        target_hints=hints,
    )


def _strings(value, what: str) -> dict:
    """value, when it is a JSON object of strings."""
    for item in _typed(value, what, dict).values():
        _typed(item, f"a value of {what}", str)
    return value


def _step_from_record(record) -> TranscriptStep:
    _typed(record, "a transcript step", dict)
    node, prompt, response = (_typed(record[key], f"transcript field {key!r}", str)
                              for key in ("node", "prompt", "response"))
    return TranscriptStep(node, prompt, response)


# -- JSONL plumbing ---------------------------------------------------------------


_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False)
_DECODER = json.JSONDecoder()


def write_jsonl(records: Iterable[dict], path: Path):
    encode = _ENCODER.encode
    with open(path, "w") as fh:
        fh.write("".join([encode(record) + "\n" for record in records]))


def _decode(line: str):
    """json.loads(line) for a stripped line, in one decode; on bad input
    json.loads raises its own error."""
    try:
        value, end = _DECODER.raw_decode(line)
        if end == len(line):
            return value
    except json.JSONDecodeError:
        pass
    return json.loads(line)


def read_jsonl(path: Path) -> list[dict]:
    """The JSON object on each non-blank line; anything else, a line nested
    deeper than the decoder's recursion limit included, is a FormatError
    naming the file and line, and a directory at path one naming the path."""
    records = []
    try:
        with open(path) as fh:
            lines = fh.read().split("\n")
    except IsADirectoryError as exc:
        raise FormatError(f"{path}: is a directory") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = _decode(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: line {lineno}: {exc.msg}") from exc
        except RecursionError as exc:
            raise FormatError(f"{path}: line {lineno}: JSON nested too deeply") from exc
        if type(record) is not dict:
            raise FormatError(
                f"{path}: line {lineno}: expected a JSON object, got {type(record).__name__}"
            )
        records.append(record)
    return records


def _read_records(path: Path, from_record: Callable[[dict], T]) -> list[T]:
    """Parse every record of a JSON-lines log; a missing or bad field is a
    FormatError naming the file once (read_jsonl's own errors name it)."""
    return _parsed(path, lambda records: [from_record(r) for r in records], read_jsonl(path))


def read_events(path: Path) -> list[ActionEvent]:
    return _read_records(path, event_from_record)


def write_events(events: Sequence[ActionEvent], path: Path):
    write_jsonl((event_to_record(e) for e in events), path)


def write_annotated(events: Sequence[AnnotatedEvent], path: Path):
    write_jsonl((annotated_to_record(e) for e in events), path)


def read_annotated(path: Path) -> list[AnnotatedEvent]:
    return _read_records(path, annotated_from_record)


def write_deliveries(deliveries: Sequence[ScaffoldDelivery], path: Path):
    write_jsonl((delivery_to_record(d) for d in deliveries), path)


def read_deliveries(path: Path) -> list[ScaffoldDelivery]:
    return _read_records(path, delivery_from_record)


def write_affect(student_id: str, observations: Sequence[AffectObservation], path: Path):
    write_jsonl((affect_to_record(student_id, o) for o in observations), path)


def read_affect(path: Path) -> list[AffectObservation]:
    return _read_records(path, affect_from_record)


# -- conversation trees ------------------------------------------------------------


def trees_to_document(trees: dict[ScaffoldKind, ConversationTree]) -> dict:
    """JSON-ready form: kind -> {root, nodes: [{id, prompt, responses}]},
    where a response is {"text", "goto"} or {"text", "exit": true}."""
    doc = {}
    for kind, tree in trees.items():
        doc[kind.value] = {
            "root": tree.root,
            "nodes": [
                {
                    "id": node.id,
                    "prompt": node.prompt,
                    "responses": [
                        {"text": r.text, "exit": True}
                        if r.goto is None
                        else {"text": r.text, "goto": r.goto}
                        for r in node.responses
                    ],
                }
                for node in tree.nodes.values()
            ],
        }
    return doc


def trees_from_document(doc) -> dict[ScaffoldKind, ConversationTree]:
    """Parse a tree document; kinds missing from it keep their bundled tree.
    A missing field raises KeyError, a field of the wrong JSON type or an
    unknown kind ValueError and a malformed tree MalformedTree."""
    trees = default_trees()
    for kind_name, spec in _typed(doc, "a tree document", dict).items():
        kind = _scaffold_kind(kind_name)
        where = f"tree {kind_name!r}"
        spec = _typed(spec, where, dict)
        nodes = [_node_from_document(_typed(n, f"a node of {where}", dict))
                 for n in _typed(spec["nodes"], f"{where} nodes", list)]
        trees[kind] = ConversationTree(_typed(spec["root"], f"{where} root", str), nodes)
    return trees


def _node_from_document(n: dict) -> ConversationNode:
    node_id = _typed(n["id"], "a node id", str)
    where = f"node {node_id!r}"
    responses = []
    for r in _typed(n["responses"], f"{where} responses", list):
        r = _typed(r, f"a response of {where}", dict)
        text = _typed(r["text"], f"a response of {where}", str)
        if "exit" not in r:
            goto = _typed(r["goto"], f"a goto of {where}", str)
        elif r["exit"] is True and "goto" not in r:
            goto = None
        else:
            raise ValueError(f"an exit of {where} must be true and name no goto")
        responses.append(ResponseOption(text, goto))
    prompt = _typed(n["prompt"], f"{where} prompt", str)
    return ConversationNode(node_id, prompt, tuple(responses))


def load_trees(path: Path) -> dict[ScaffoldKind, ConversationTree]:
    return load_document(path, trees_from_document)


# -- profiles ------------------------------------------------------------------------


DURATION_FIELDS = ("read_duration", "edit_duration", "quiz_duration", "note_duration",
                   "expl_duration")


def profiles_to_document(profiles: dict[str, StudentProfile]) -> dict:
    """JSON-ready form of a profiles mapping (durations as [mean, spread])."""
    doc = {}
    for name, p in profiles.items():
        doc[name] = {
            "activity_mix": {k.value: v for k, v in p.activity_mix.items()},
            "read_effectiveness": p.read_effectiveness,
            "quiz_propensity": p.quiz_propensity,
            "scaffold_compliance": {k.value: v for k, v in p.scaffold_compliance.items()},
            **{f: [getattr(p, f).mean, getattr(p, f).spread] for f in DURATION_FIELDS},
            "affect_baseline": {k.value: v for k, v in p.affect_baseline.items()},
            "wrong_sign_share": p.wrong_sign_share,
            "shortcut_share": p.shortcut_share,
        }
    return doc


def _shares(value, what: str, member: Callable[[object], E]) -> dict[E, float]:
    """A JSON object of numbers, its keys read as enum members."""
    return {member(k): _number(v, f"{what} {k}") for k, v in _typed(value, what, dict).items()}


def profiles_from_document(doc) -> dict[str, StudentProfile]:
    """The profiles 'high' and 'low' by name. A missing field raises
    KeyError; a field of the wrong JSON type or value, or another set of
    profiles, TypeError or ValueError."""
    profiles = {}
    for name, p in _typed(doc, "a profiles document", dict).items():
        where = f"profile {name!r}"
        p = _typed(p, where, dict)
        profiles[name] = StudentProfile(
            student_id=name,
            activity_mix=_shares(p["activity_mix"], f"{where} activity_mix", _action_kind),
            read_effectiveness=_number(p["read_effectiveness"], f"{where} read_effectiveness"),
            quiz_propensity=_number(p["quiz_propensity"], f"{where} quiz_propensity"),
            scaffold_compliance=_shares(p.get("scaffold_compliance", {}),
                                        f"{where} scaffold_compliance", _scaffold_kind),
            **{f: DurationModel(*(_number(v, f"{where} {f}")
                                  for v in _typed(p[f], f"{where} {f}", list)))
               for f in DURATION_FIELDS},
            affect_baseline=_shares(p["affect_baseline"], f"{where} affect_baseline", _emotion),
            wrong_sign_share=_number(p.get("wrong_sign_share", 0.8), f"{where} wrong_sign_share"),
            shortcut_share=_number(p.get("shortcut_share", 0.3), f"{where} shortcut_share"),
        )
    if set(profiles) != {"high", "low"}:
        raise ValueError(f"expected exactly the profiles 'high' and 'low', got {sorted(profiles)}")
    return profiles


# -- engine settings -----------------------------------------------------------------


def engine_settings_from_document(doc) -> dict:
    """The EngineConfig fields an engine-settings document sets: a JSON
    object of known settings, each of its field's type and in its range."""
    defaults = {f.name: f.default for f in fields(EngineConfig)}
    settings = {}
    for key, value in _typed(doc, "engine settings", dict).items():
        if key not in defaults:
            raise ValueError(f"unknown engine setting {key!r}")
        json_types = {float: (int, float), int: (int,), frozenset: (list,)}[type(defaults[key])]
        _typed(value, f"engine setting {key!r}", *json_types)
        settings[key] = frozenset(map(_scaffold_kind, value)) if key == "disabled_kinds" else value
    EngineConfig(**settings)
    return settings


# -- grouping and outcomes -----------------------------------------------------------


def write_grouping(grouping: dict[str, str], path: Path):
    Path(path).write_text(json.dumps(grouping, indent=2, sort_keys=True) + "\n")


def grouping_from_document(doc) -> dict[str, str]:
    """Student id -> group name, from a JSON object of strings."""
    if not isinstance(doc, dict) or not all(isinstance(group, str) for group in doc.values()):
        raise FormatError("expected a JSON object of student id to group name")
    return doc


def load_grouping(path: Path) -> dict[str, str]:
    return load_document(path, grouping_from_document)


def outcome_to_record(outcome: OutcomeRecord) -> dict:
    return {"student": outcome.student_id, "pre": outcome.pre, "post": outcome.post,
            "max": outcome.max_score}


def outcome_from_record(record: dict) -> OutcomeRecord:
    """One student's test scores in points: finite JSON numbers, with pre <
    max, so the normalized learning gain is defined."""
    pre, post, max_score = (_number(record[key], f"field {key!r}")
                            for key in ("pre", "post", "max"))
    if not all(map(math.isfinite, (pre, post, max_score))) or pre >= max_score:
        raise ValueError(f"student {record['student']}: need finite scores with pre < max, "
                         f"got pre {pre}, post {post}, max {max_score}")
    return OutcomeRecord(_typed(record["student"], "field 'student'", str), pre, post, max_score)


def load_outcomes(path: Path) -> list[OutcomeRecord]:
    """Outcome records: student, pre, post, max (points)."""
    return _read_records(path, outcome_from_record)


def write_outcomes(outcomes: Sequence[OutcomeRecord], path: Path):
    write_jsonl((outcome_to_record(o) for o in outcomes), path)
