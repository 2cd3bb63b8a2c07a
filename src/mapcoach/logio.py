"""File formats: canonical map documents, JSON-lines event/affect/delivery
logs, profile and grouping files.

All writers are deterministic (sorted keys, fixed field order) so reruns
with the same seed produce byte-identical files.  Schemas:

map document (JSON object)
    format: "mapcoach-map/1"
    concepts: [{id, name, section}]           sorted by id
    links: [{source, target, sign, marking?, page?}]   sorted by (source, target)

event log (one JSON object per line)
    student, t, duration, kind, then one kind-specific payload:
    read: page | make_notes: note | map_edit: edit | take_quiz: scope |
    quiz_expl: question
    An annotated log adds process, effectiveness, long, score and, for
    coherence-tagged edits, coherent.

affect log (one JSON object per line)
    student, t, likelihoods: {emotion: value}

delivery log (one JSON object per line)
    student, kind, agent, t, rule, prev_index, cur_index, prev_t, cur_t,
    detail, hints, transcript: [{node, prompt, response}]

outcome log (one JSON object per line)
    student, pre, post, max: test points, finite, with pre < max

The readers check these fields' JSON types ("number" excludes true and
false, which Python's json reads as bool):
    events      t, duration: finite number, duration >= 0; kind: string
                naming an action kind; page, note: string or null;
                question: integer or null; scope: string, "everything" or
                "section:<name>"
    annotated   as events, plus process, effectiveness: string naming a
                member; long: true/false; score: integer; coherent:
                true/false if present
    affect      t: finite number; likelihoods: object with exactly the five
                emotions, each a finite number in [0, 1]
    deliveries  t: finite number; kind, agent: string naming a member
    outcomes    pre, post, max: anything float() takes, finite, pre < max
In an edit, action, sign and marking must name a member; other fields
pass through as read.
"""

from __future__ import annotations

import json
import math
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
    ConversationTree,
    ScaffoldDelivery,
    ScaffoldKind,
    TargetHints,
    TranscriptStep,
    TriggerContext,
    json_typed,
    trees_from_document,
)

MAP_FORMAT = "mapcoach-map/1"

T = TypeVar("T")
E = TypeVar("E", bound=Enum)


class FormatError(ValueError):
    pass


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


def _values(enum: type[E]) -> dict[E, str]:
    """member -> member.value, built once: a lookup here costs a fraction of
    a `.value` read."""
    return {member: member.value for member in enum}


_sign = _by_value(Sign)
_marking = _by_value(Marking)
_edit_action = _by_value(MapEditAction)
_action_kind = _by_value(ActionKind)
_process = _by_value(Process)
_effectiveness = _by_value(Effectiveness)
_emotion = _by_value(Emotion)
_scaffold_kind = _by_value(ScaffoldKind)
_agent = _by_value(Agent)

_SIGN_VALUE = _values(Sign)
_MARKING_VALUE = _values(Marking)
_EDIT_ACTION_VALUE = _values(MapEditAction)
_ACTION_KIND_VALUE = _values(ActionKind)
_PROCESS_VALUE = _values(Process)
_EFFECTIVENESS_VALUE = _values(Effectiveness)
_SCAFFOLD_KIND_VALUE = _values(ScaffoldKind)
_AGENT_VALUE = _values(Agent)

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


def link_to_record(link: CausalLink) -> dict:
    record = {"source": link.source, "target": link.target, "sign": _SIGN_VALUE[link.sign]}
    if link.marking is not Marking.UNMARKED:
        record["marking"] = _MARKING_VALUE[link.marking]
    if link.source_page is not None:
        record["page"] = link.source_page
    return record


def link_from_record(record: dict) -> CausalLink:
    return CausalLink(
        source=record["source"],
        target=record["target"],
        sign=_sign(record["sign"]),
        marking=_marking(record["marking"]) if "marking" in record else Marking.UNMARKED,
        source_page=record.get("page"),
    )


def map_to_document(cmap: CausalMap) -> dict:
    return {
        "format": MAP_FORMAT,
        "concepts": [
            {"id": c.id, "name": c.name, "section": c.section}
            for c in cmap.sorted_concepts()
        ],
        "links": [link_to_record(l) for l in cmap.sorted_links()],
    }


def map_from_document(doc: dict) -> CausalMap:
    if not isinstance(doc, dict) or doc.get("format") != MAP_FORMAT:
        raise FormatError(f"not a {MAP_FORMAT} document")
    concepts = [
        Concept(id=c["id"], name=c["name"], section=c["section"])
        for c in _objects(doc["concepts"], "concepts")
    ]
    links = [link_from_record(r) for r in _objects(doc["links"], "links")]
    return CausalMap(concepts, links)


def _objects(value, what: str) -> list[dict]:
    """value, when it is a JSON array of objects; otherwise a TypeError."""
    for item in json_typed(value, list, what):
        json_typed(item, dict, f"each of {what}")
    return value


def dumps_map(cmap: CausalMap) -> str:
    return json.dumps(map_to_document(cmap), indent=2, sort_keys=True) + "\n"


def save_map(cmap: CausalMap, path: Path):
    Path(path).write_text(dumps_map(cmap))


def load_document(path: Path, parse: Callable[[object], T]) -> T:
    """parse applied to the JSON document in a file. A decode error, or
    nesting deeper than the decoder's recursion limit, is a FormatError
    naming the file, and so is whatever `_parsed` turns into one."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
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
    record: dict = {"action": _EDIT_ACTION_VALUE[a]}
    if a is _ADD_CONCEPT:
        c = edit.concept
        record["concept"] = {"id": c.id, "name": c.name, "section": c.section}
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
        record["marking"] = _MARKING_VALUE[edit.marking]
    return record


def _edit_from_record(record: dict) -> MapEdit:
    a = _edit_action(record["action"])
    if a is _ADD_CONCEPT:
        c = record["concept"]
        return MapEdit(a, concept=Concept(id=c["id"], name=c["name"], section=c["section"]))
    if a is _DELETE_CONCEPT:
        return MapEdit(a, concept_id=record["concept_id"])
    if a is _ADD_LINK:
        return MapEdit(a, link=link_from_record(record["link"]))
    if a is _DELETE_LINK:
        return MapEdit(a, source=record["source"], target=record["target"])
    if a is _MODIFY_LINK:
        return MapEdit(a, old=link_from_record(record["old"]), new=link_from_record(record["new"]))
    return MapEdit(
        a,
        source=record["source"],
        target=record["target"],
        marking=_marking(record["marking"]),
    )


def event_to_record(event: ActionEvent) -> dict:
    kind = event.kind
    record = {
        "student": event.student_id,
        "t": event.timestamp,
        "duration": event.duration,
        "kind": _ACTION_KIND_VALUE[kind],
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


def _typed(record: dict, name: str, *types: type):
    """A record field that must hold one of the JSON types `types`; a bool
    is not a number."""
    value = record[name]
    if type(value) in types:
        return value
    if isinstance(value, bool) is not (bool in types) or not isinstance(value, types):
        raise ValueError(f"field {name!r} cannot be {type(value).__name__}")
    return value


def event_from_record(record: dict) -> ActionEvent:
    """One logged action, at a finite time and with a finite duration >= 0."""
    kind = _action_kind(record["kind"])
    timestamp = record["t"]
    if type(timestamp) is not float:
        timestamp = float(_typed(record, "t", int, float))
    duration = record["duration"]
    if type(duration) is not float:
        duration = float(_typed(record, "duration", int, float))
    page, note, question = record.get("page"), record.get("note"), record.get("question")
    if page is not None and type(page) is not str:
        _typed(record, "page", str)
    if note is not None and type(note) is not str:
        _typed(record, "note", str)
    if question is not None and type(question) is not int:
        _typed(record, "question", int)
    if not (math.isfinite(timestamp) and math.isfinite(duration) and duration >= 0):
        raise ValueError(f"student {record['student']}: need a finite time and a finite "
                         f"duration >= 0, got t {timestamp}, duration {duration}")
    return ActionEvent(
        student_id=record["student"],
        timestamp=timestamp,
        duration=duration,
        kind=kind,
        page=page,
        note_id=note,
        edit=_edit_from_record(record["edit"]) if kind is _MAP_EDIT else None,
        quiz_scope=scope_from_str(record["scope"]) if kind is _TAKE_QUIZ else None,
        question_ref=question,
    )


def annotated_to_record(event: AnnotatedEvent) -> dict:
    record = event_to_record(event.base)
    record["process"] = _PROCESS_VALUE[event.process]
    record["effectiveness"] = _EFFECTIVENESS_VALUE[event.effectiveness]
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
        long=_typed(record, "long", bool),
        map_score_after=_typed(record, "score", int),
        coherent=_typed(record, "coherent", bool) if "coherent" in record else None,
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


def _finite_time(record: dict) -> float:
    """The record's `t`: a finite JSON number."""
    t = record["t"]
    if type(t) is not float:
        t = float(_typed(record, "t", int, float))
    if not math.isfinite(t):
        raise ValueError(f"field 't' must be finite, got {t}")
    return t


def affect_from_record(record: dict) -> AffectObservation:
    """One observation at a finite time, with a likelihood in [0, 1] for
    each of the five emotions and for nothing else."""
    student_id = record["student"]
    timestamp = _finite_time(record)
    given = _typed(record, "likelihoods", dict)
    likelihoods = {}
    for key, value in given.items():
        emotion = _emotion(key)
        if type(value) is not float:
            value = float(_typed(given, key, int, float))
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
        "kind": _SCAFFOLD_KIND_VALUE[d.kind],
        "agent": _AGENT_VALUE[d.agent],
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
    hints = record.get("hints")
    return ScaffoldDelivery(
        student_id=record["student"],
        kind=_scaffold_kind(record["kind"]),
        agent=_agent(record["agent"]),
        timestamp=_finite_time(record),
        trigger=TriggerContext(
            rule=record["rule"],
            prev_index=record["prev_index"],
            cur_index=record["cur_index"],
            prev_time=record["prev_t"],
            cur_time=record["cur_t"],
            detail=record.get("detail", {}),
        ),
        transcript=tuple(
            TranscriptStep(node=s["node"], prompt=s["prompt"], response=s["response"])
            for s in record["transcript"]
        ),
        target_hints=TargetHints(**hints) if hints is not None else None,
    )


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
    naming the file and line."""
    records = []
    try:
        with open(path) as fh:
            lines = fh.read().split("\n")
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


def load_trees(path: Path) -> dict[ScaffoldKind, ConversationTree]:
    """A conversation-tree document (see engine.trees_from_document)."""
    return load_document(path, trees_from_document)


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


def outcome_from_record(record: dict) -> OutcomeRecord:
    """One student's test scores in points: finite, with pre < max, so the
    normalized learning gain is defined."""
    pre, post, max_score = (float(record[key]) for key in ("pre", "post", "max"))
    if not all(map(math.isfinite, (pre, post, max_score))) or pre >= max_score:
        raise ValueError(f"student {record['student']}: need finite scores with pre < max, "
                         f"got pre {pre}, post {post}, max {max_score}")
    return OutcomeRecord(record["student"], pre, post, max_score)


def load_outcomes(path: Path) -> list[OutcomeRecord]:
    """Outcome records: student, pre, post, max (points)."""
    return _read_records(path, outcome_from_record)
