"""Action-log annotation: map each raw event to its cognitive process,
tag map edits with effectiveness and coherence, collapse repeated actions
into -Mult tokens, and compute per-activity time distributions."""

from __future__ import annotations

from dataclasses import replace
from enum import Enum
from itertools import groupby
from typing import Iterable, Optional, Sequence

from ._record import record
from .causal import (
    CausalLink,
    CausalMap,
    Concept,
    ExpertMap,
    MapError,
    Marking,
    QuizScope,
    is_correct_link,
    map_score,
)


class ActionKind(str, Enum):
    READ = "read"
    MAKE_NOTES = "make_notes"
    MAP_EDIT = "map_edit"
    TAKE_QUIZ = "take_quiz"
    QUIZ_EXPL = "quiz_expl"


class MapEditAction(str, Enum):
    ADD_CONCEPT = "add_concept"
    DELETE_CONCEPT = "delete_concept"
    ADD_LINK = "add_link"
    DELETE_LINK = "delete_link"
    MODIFY_LINK = "modify_link"
    MARK_LINK = "mark_link"


class Process(str, Enum):
    IA = "IA"  # information acquisition: reading, notes
    SC = "SC"  # solution construction: map edits
    SA = "SA"  # solution assessment: quizzes, explanations


class Effectiveness(str, Enum):
    EFF = "eff"
    INEFF = "ineff"
    NEUTRAL = "neutral"


PROCESS_FOR_KIND = {
    ActionKind.READ: Process.IA,
    ActionKind.MAKE_NOTES: Process.IA,
    ActionKind.MAP_EDIT: Process.SC,
    ActionKind.TAKE_QUIZ: Process.SA,
    ActionKind.QUIZ_EXPL: Process.SA,
}
# members feed reads, as globals: a global read costs a fraction of a class attribute read
_READ, _MAP_EDIT = ActionKind.READ, ActionKind.MAP_EDIT


@record
class MapEdit:
    """One map-edit payload; fields beyond `action` are action-specific."""

    action: MapEditAction
    concept: Optional[Concept] = None          # add_concept
    concept_id: Optional[str] = None           # delete_concept
    link: Optional[CausalLink] = None          # add_link
    source: Optional[str] = None               # delete_link / mark_link
    target: Optional[str] = None
    old: Optional[CausalLink] = None           # modify_link
    new: Optional[CausalLink] = None
    marking: Optional[Marking] = None          # mark_link

    def placed_link(self) -> Optional[CausalLink]:
        """The link an add or modify edit leaves in the map, else None."""
        if self.action is MapEditAction.ADD_LINK:
            return self.link
        if self.action is MapEditAction.MODIFY_LINK:
            return self.new
        return None


@record
class ActionEvent:
    student_id: str
    timestamp: float
    kind: ActionKind
    duration: float
    page: Optional[str] = None                 # read
    note_id: Optional[str] = None              # make_notes
    edit: Optional[MapEdit] = None             # map_edit
    quiz_scope: Optional[QuizScope] = None     # take_quiz
    question_ref: Optional[int] = None         # quiz_expl

    @property
    def end(self) -> float:
        return self.timestamp + self.duration


@record
class AnnotatedEvent:
    base: ActionEvent
    process: Process
    effectiveness: Effectiveness
    long: bool
    map_score_after: int
    coherent: Optional[bool] = None

    @property
    def student_id(self) -> str:
        return self.base.student_id

    @property
    def kind(self) -> ActionKind:
        return self.base.kind

    @property
    def timestamp(self) -> float:
        return self.base.timestamp

    @property
    def duration(self) -> float:
        return self.base.duration


class ReplayError(ValueError):
    def __init__(self, index: int, message: str):
        super().__init__(f"event {index}: {message}")
        self.index = index


DEFAULT_LONG_THRESHOLD = 60.0


def apply_edit(cmap: CausalMap, edit: MapEdit) -> CausalMap:
    """Apply one edit to a map, raising MapError on inconsistent edits.

    Deleting a concept drops its incident links; modifying a link keeps the
    old link's marking attached to the replacement.  The endpoints of an
    added or replacing link are checked once, by the map update itself."""
    a = edit.action
    if a is MapEditAction.ADD_CONCEPT:
        return cmap.with_concept(edit.concept)
    if a is MapEditAction.DELETE_CONCEPT:
        return cmap.without_concept(edit.concept_id)
    if a is MapEditAction.ADD_LINK:
        return cmap.with_link(edit.link)
    if a is MapEditAction.DELETE_LINK:
        return cmap.without_link(edit.source, edit.target)
    if a is MapEditAction.MODIFY_LINK:
        old = cmap.get_link(edit.old.source, edit.old.target)
        if old is None or old.triple != edit.old.triple:
            raise MapError(f"no link {edit.old.display()} to modify")
        new = edit.new
        return cmap.with_replaced_link(old.key, CausalLink(
            new.source, new.target, new.sign, old.marking, new.source_page))
    if a is MapEditAction.MARK_LINK:
        link = cmap.get_link(edit.source, edit.target)
        if link is None:
            raise MapError(f"no link {edit.source}->{edit.target} to mark")
        return cmap.with_replaced_link(link.key, CausalLink(
            link.source, link.target, link.sign, edit.marking, link.source_page))
    raise MapError(f"unknown edit action {a}")


class SessionAnnotator:
    """Streaming annotator: replays edits on an evolving map and labels each
    event as it arrives.  The simulator and replay both reach it through
    `pipeline.SessionStep`, so the two paths agree exactly.

    The map score (`causal.map_score`, correct links minus incorrect ones)
    is kept up to date from the pairs each edit touches: an added or a
    deleted link counts +1 if it is correct and -1 if not, a modified link
    swaps its old pair's count for its new pair's, and marks and added
    concepts change nothing.  Deleting a concept, which drops every
    incident link and already copies the map's links, rescores the map.

    A link add or modify is coherent when the expert has a link with the
    pair it leaves, whatever its sign, whose source page was read at most
    `coherence_lookback` seconds before (None: at any earlier time); as
    timestamps never go back, each page's latest read is all that is kept.
    Other events carry no `coherent`."""

    def __init__(self, expert: ExpertMap, long_threshold: float = DEFAULT_LONG_THRESHOLD,
                 coherence_lookback: Optional[float] = None):
        if coherence_lookback is not None and not coherence_lookback >= 0:
            raise ValueError(f"coherence lookback must be >= 0 seconds, got {coherence_lookback}")
        self.expert = expert
        self.long_threshold = long_threshold
        self.coherence_lookback = coherence_lookback
        self.current_map = CausalMap()
        self.score = 0
        self._index = 0
        self._last_timestamp: Optional[float] = None
        self._expert_links = expert.links
        self._last_read: dict[Optional[str], float] = {}  # page -> time of its latest read

    def feed(self, event: ActionEvent) -> AnnotatedEvent:
        timestamp = event.timestamp
        if self._last_timestamp is not None and timestamp < self._last_timestamp:
            raise ReplayError(self._index, "events out of timestamp order")
        self._last_timestamp = timestamp
        kind = event.kind
        effectiveness = Effectiveness.NEUTRAL
        coherent = None
        if kind is _MAP_EDIT:
            edit = event.edit
            try:
                new_map = apply_edit(self.current_map, edit)
            except MapError as exc:
                raise ReplayError(self._index, str(exc)) from exc
            new_score = self._score_after(edit, new_map)
            if new_score > self.score:
                effectiveness = Effectiveness.EFF
            elif new_score < self.score:
                effectiveness = Effectiveness.INEFF
            self.current_map, self.score = new_map, new_score
            link = edit.placed_link()
            if link is not None:
                expert_link = self._expert_links.get((link.source, link.target))
                read_at = None if expert_link is None else self._last_read.get(expert_link.source_page)
                lookback = self.coherence_lookback
                coherent = read_at is not None and (lookback is None or read_at >= timestamp - lookback)
        elif kind is _READ:
            self._last_read[event.page] = timestamp
        long = kind is _READ and event.duration >= self.long_threshold
        self._index += 1
        return AnnotatedEvent(event, PROCESS_FOR_KIND[kind], effectiveness, long, self.score, coherent)

    def _score_after(self, edit: MapEdit, new_map: CausalMap) -> int:
        """The map score once `edit`, already applied as `new_map`, is made."""
        a = edit.action
        if a is MapEditAction.ADD_LINK:
            return self.score + self._worth(edit.link)
        if a is MapEditAction.DELETE_LINK:
            return self.score - self._worth(self.current_map.get_link(edit.source, edit.target))
        if a is MapEditAction.MODIFY_LINK:
            return self.score + self._worth(edit.new) - self._worth(edit.old)
        if a is MapEditAction.DELETE_CONCEPT:
            return map_score(new_map, self.expert)
        return self.score

    def _worth(self, link: CausalLink) -> int:
        return 1 if is_correct_link(link, self.expert) else -1


def annotate_session(
    events: Sequence[ActionEvent],
    expert: ExpertMap,
    long_threshold: float = DEFAULT_LONG_THRESHOLD,
) -> list[AnnotatedEvent]:
    annotator = SessionAnnotator(expert, long_threshold=long_threshold)
    return [annotator.feed(e) for e in events]


def tag_coherence(
    annotated: Sequence[AnnotatedEvent],
    expert: ExpertMap,
    lookback: Optional[float] = None,
) -> list[AnnotatedEvent]:
    """The events with `coherent` re-tagged under a lookback of `lookback`
    seconds (None: the whole session), by the rule `SessionAnnotator`
    applies as it feeds."""
    annotator = SessionAnnotator(expert, coherence_lookback=lookback)
    return [replace(event, coherent=annotator.feed(event.base).coherent) for event in annotated]


# -- collapsed token streams -------------------------------------------------


@record
class CollapsedToken:
    label: str
    count: int
    span: tuple[float, float]


def event_label(event: AnnotatedEvent) -> str:
    """Token label for one annotated event (before -Mult collapsing)."""
    kind = event.kind
    if kind is ActionKind.READ:
        return "Read"
    if kind is ActionKind.MAKE_NOTES:
        return "Note"
    if kind is ActionKind.TAKE_QUIZ:
        return "QuizTaken"
    if kind is ActionKind.QUIZ_EXPL:
        return "QuizExpl"
    action = event.base.edit.action
    if action is MapEditAction.MARK_LINK:
        base = "Mark"
    elif action in (MapEditAction.ADD_CONCEPT, MapEditAction.DELETE_CONCEPT):
        base = "ConceptEdit"
    else:
        base = "LinkEdit"
    if event.effectiveness is Effectiveness.EFF:
        return base + "-Eff"
    if event.effectiveness is Effectiveness.INEFF:
        return base + "-Ineff"
    return base


def collapse(annotated: Sequence[AnnotatedEvent]) -> list[CollapsedToken]:
    """Merge runs of same-labeled events into single tokens tagged -Mult."""
    tokens = []
    for label, run in groupby(annotated, event_label):
        run = list(run)
        tokens.append(CollapsedToken(label + "-Mult" if len(run) > 1 else label, len(run),
                                     (run[0].timestamp, run[-1].base.end)))
    return tokens


# -- time distribution ---------------------------------------------------------


class EmptySession(ValueError):
    pass


def time_distribution(annotated: Iterable[AnnotatedEvent]) -> dict[ActionKind, float]:
    """Fraction of total logged time spent in each of the five activities."""
    totals = {kind: 0.0 for kind in ActionKind}
    for event in annotated:
        totals[event.kind] += event.duration
    grand = sum(totals.values())
    if grand <= 0:
        raise EmptySession("no logged time in session")
    return {kind: t / grand for kind, t in totals.items()}
