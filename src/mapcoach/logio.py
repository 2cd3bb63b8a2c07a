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
"""

from __future__ import annotations

import json
import math
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
    ScaffoldDelivery,
    ScaffoldKind,
    TargetHints,
    TranscriptStep,
    TriggerContext,
)

MAP_FORMAT = "mapcoach-map/1"

T = TypeVar("T")


class FormatError(Exception):
    pass


# -- map documents ---------------------------------------------------------


def link_to_record(link: CausalLink) -> dict:
    record = {"source": link.source, "target": link.target, "sign": link.sign.value}
    if link.marking is not Marking.UNMARKED:
        record["marking"] = link.marking.value
    if link.source_page is not None:
        record["page"] = link.source_page
    return record


def link_from_record(record: dict) -> CausalLink:
    return CausalLink(
        source=record["source"],
        target=record["target"],
        sign=Sign(record["sign"]),
        marking=Marking(record.get("marking", Marking.UNMARKED.value)),
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
    if doc.get("format") != MAP_FORMAT:
        raise FormatError(f"not a {MAP_FORMAT} document")
    concepts = [
        Concept(id=c["id"], name=c["name"], section=c["section"])
        for c in doc["concepts"]
    ]
    links = [link_from_record(r) for r in doc["links"]]
    return CausalMap(concepts, links)


def dumps_map(cmap: CausalMap) -> str:
    return json.dumps(map_to_document(cmap), indent=2, sort_keys=True) + "\n"


def save_map(cmap: CausalMap, path: Path):
    Path(path).write_text(dumps_map(cmap))


def load_map(path: Path) -> CausalMap:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    try:
        return map_from_document(doc)
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def load_expert_map(path: Path) -> ExpertMap:
    return ExpertMap(load_map(path))


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
    record: dict = {"action": a.value}
    if a is MapEditAction.ADD_CONCEPT:
        c = edit.concept
        record["concept"] = {"id": c.id, "name": c.name, "section": c.section}
    elif a is MapEditAction.DELETE_CONCEPT:
        record["concept_id"] = edit.concept_id
    elif a is MapEditAction.ADD_LINK:
        record["link"] = link_to_record(edit.link)
    elif a is MapEditAction.DELETE_LINK:
        record["source"], record["target"] = edit.source, edit.target
    elif a is MapEditAction.MODIFY_LINK:
        record["old"] = link_to_record(edit.old)
        record["new"] = link_to_record(edit.new)
    elif a is MapEditAction.MARK_LINK:
        record["source"], record["target"] = edit.source, edit.target
        record["marking"] = edit.marking.value
    return record


def _edit_from_record(record: dict) -> MapEdit:
    a = MapEditAction(record["action"])
    if a is MapEditAction.ADD_CONCEPT:
        c = record["concept"]
        return MapEdit(a, concept=Concept(id=c["id"], name=c["name"], section=c["section"]))
    if a is MapEditAction.DELETE_CONCEPT:
        return MapEdit(a, concept_id=record["concept_id"])
    if a is MapEditAction.ADD_LINK:
        return MapEdit(a, link=link_from_record(record["link"]))
    if a is MapEditAction.DELETE_LINK:
        return MapEdit(a, source=record["source"], target=record["target"])
    if a is MapEditAction.MODIFY_LINK:
        return MapEdit(a, old=link_from_record(record["old"]), new=link_from_record(record["new"]))
    return MapEdit(
        a,
        source=record["source"],
        target=record["target"],
        marking=Marking(record["marking"]),
    )


def event_to_record(event: ActionEvent) -> dict:
    record = {
        "student": event.student_id,
        "t": event.timestamp,
        "duration": event.duration,
        "kind": event.kind.value,
    }
    if event.kind is ActionKind.READ:
        record["page"] = event.page
    elif event.kind is ActionKind.MAKE_NOTES:
        record["note"] = event.note_id
    elif event.kind is ActionKind.MAP_EDIT:
        record["edit"] = _edit_to_record(event.edit)
    elif event.kind is ActionKind.TAKE_QUIZ:
        record["scope"] = event.quiz_scope.display()
    elif event.kind is ActionKind.QUIZ_EXPL:
        record["question"] = event.question_ref
    return record


def _typed(record: dict, name: str, *types: type):
    """A record field that must hold one of the JSON types `types`; a bool
    is not a number."""
    value = record[name]
    if isinstance(value, bool) is not (bool in types) or not isinstance(value, types):
        raise ValueError(f"field {name!r} cannot be {type(value).__name__}")
    return value


def event_from_record(record: dict) -> ActionEvent:
    """One logged action, at a finite time and with a finite duration >= 0."""
    kind = ActionKind(record["kind"])
    timestamp = float(_typed(record, "t", int, float))
    duration = float(_typed(record, "duration", int, float))
    if record.get("page") is not None:
        _typed(record, "page", str)
    if not (math.isfinite(timestamp) and math.isfinite(duration) and duration >= 0):
        raise ValueError(f"student {record['student']}: need a finite time and a finite "
                         f"duration >= 0, got t {timestamp}, duration {duration}")
    return ActionEvent(
        student_id=record["student"],
        timestamp=timestamp,
        duration=duration,
        kind=kind,
        page=record.get("page"),
        note_id=record.get("note"),
        edit=_edit_from_record(record["edit"]) if kind is ActionKind.MAP_EDIT else None,
        quiz_scope=scope_from_str(record["scope"]) if kind is ActionKind.TAKE_QUIZ else None,
        question_ref=record.get("question"),
    )


def annotated_to_record(event: AnnotatedEvent) -> dict:
    record = event_to_record(event.base)
    record["process"] = event.process.value
    record["effectiveness"] = event.effectiveness.value
    record["long"] = event.long
    record["score"] = event.map_score_after
    if event.coherent is not None:
        record["coherent"] = event.coherent
    return record


def annotated_from_record(record: dict) -> AnnotatedEvent:
    return AnnotatedEvent(
        base=event_from_record(record),
        process=Process(record["process"]),
        effectiveness=Effectiveness(record["effectiveness"]),
        long=_typed(record, "long", bool),
        map_score_after=_typed(record, "score", int),
        coherent=_typed(record, "coherent", bool) if "coherent" in record else None,
    )


# -- affect ---------------------------------------------------------------------


def affect_to_record(student_id: str, obs: AffectObservation) -> dict:
    return {
        "student": student_id,
        "t": obs.timestamp,
        "likelihoods": {e.value: obs.likelihoods[e] for e in Emotion},
    }


def affect_from_record(record: dict) -> AffectObservation:
    return AffectObservation(
        student_id=record["student"],
        timestamp=float(record["t"]),
        likelihoods={Emotion(k): float(v) for k, v in record["likelihoods"].items()},
    )


# -- deliveries -------------------------------------------------------------------


def delivery_to_record(d: ScaffoldDelivery) -> dict:
    record = {
        "student": d.student_id,
        "kind": d.kind.value,
        "agent": d.agent.value,
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
        kind=ScaffoldKind(record["kind"]),
        agent=Agent(record["agent"]),
        timestamp=float(record["t"]),
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


def write_jsonl(records: Iterable[dict], path: Path):
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True, allow_nan=False) + "\n")


def read_jsonl(path: Path) -> list[dict]:
    """The JSON object on each non-blank line; anything else is a
    FormatError naming the file and line."""
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path}: line {lineno}: {exc.msg}") from exc
            if not isinstance(record, dict):
                raise FormatError(
                    f"{path}: line {lineno}: expected a JSON object, got {type(record).__name__}"
                )
            records.append(record)
    return records


def _read_records(path: Path, from_record: Callable[[dict], T]) -> list[T]:
    """Parse every record of a JSON-lines log; a missing or bad field is a
    FormatError naming the file."""
    try:
        return [from_record(r) for r in read_jsonl(path)]
    except KeyError as exc:
        raise FormatError(f"{path}: missing field {exc}") from exc
    except (FormatError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


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


# -- grouping and outcomes -----------------------------------------------------------


def write_grouping(grouping: dict[str, str], path: Path):
    Path(path).write_text(json.dumps(grouping, indent=2, sort_keys=True) + "\n")


def load_grouping(path: Path) -> dict[str, str]:
    """Student id -> group name; anything but a JSON object of strings is a
    FormatError naming the file."""
    try:
        grouping = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if not isinstance(grouping, dict) or not all(
        isinstance(group, str) for group in grouping.values()
    ):
        raise FormatError(f"{path}: expected a JSON object of student id to group name")
    return grouping


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
