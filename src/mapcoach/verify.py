"""Offline reference for the scaffold engine: which deliveries were due.

`_expected` walks the annotated log once and re-derives, from the log and
the `EngineConfig` alone, every delivery the trigger rules call for: the
pair rules with the hint3 -> hint4 -> enc3/hint5 case order and the enc3
alternation, the inter-scaffold window (held by disabled kinds too, with
hint6 exempt right after a hint5), the early ineffective-edit -> quiz
suppression that counts no alternation occasion, and the hint1 arm,
supersede, cancel and expiry steps through session end.  It calls no
engine code, so a false or missing firing cannot hide behind shared code.
`verify_session` diffs that due sequence against the delivery record.

A quiz is regraded against its replayed map only when a rule reads it:
the quiz after an effective edit, the quiz before it when the later one
has a correct answer, and a quiz followed by a long read.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from typing import Optional, Sequence

from .annotate import (
    ActionKind,
    AnnotatedEvent,
    Effectiveness,
    MapEditAction,
    apply_edit,
)
from .causal import (
    CausalMap,
    ExpertMap,
    LinkClass,
    Marking,
    QuizQuestion,
    QuizResult,
    QuizScope,
    classify_link,
    generate_quiz,
    grade_quiz,
    is_correct_link,
)
from .engine import EngineConfig, ScaffoldDelivery, ScaffoldKind

# (kind, time, prev_index, cur_index, rule, prev_time, cur_time) of a delivery
_Due = tuple[ScaffoldKind, float, int, Optional[int], str, float, float]
_HINT1_RULE = "hint1_window_expired"


def verify_session(
    annotated: Sequence[AnnotatedEvent],
    deliveries: Sequence[ScaffoldDelivery],
    expert: ExpertMap,
    config: EngineConfig,
) -> list[str]:
    """One `missing: ...` line per due delivery the record lacks and one
    `not due: ...` line per recorded delivery the rules do not call for;
    an empty list means the log and the delivery record agree."""
    due = Counter(_expected(annotated, expert, config))
    recorded = Counter(
        (d.kind, d.timestamp, d.trigger.prev_index, d.trigger.cur_index,
         d.trigger.rule, d.trigger.prev_time, d.trigger.cur_time)
        for d in deliveries
    )
    return [f"missing: {_describe(k)}" for k in (due - recorded).elements()] + [
        f"not due: {_describe(k)}" for k in (recorded - due).elements()
    ]


def _describe(due: _Due) -> str:
    kind, at, i, j, rule, prev_time, cur_time = due
    return f"{kind.value}@{at}: {rule} on events ({i}, {j}) at ({prev_time}, {cur_time})"


def _expected(
    annotated: Sequence[AnnotatedEvent], expert: ExpertMap, config: EngineConfig
) -> list[_Due]:
    """Every delivery the rules call for on this log, in delivery order."""
    maps = _map_timeline(annotated)
    quizzes = _Quizzes(annotated, maps, expert)
    due: list[_Due] = []
    last: Optional[tuple[ScaffoldKind, float]] = None  # the delivery holding the window
    occasions = 0  # ineffective-edit -> quiz occasions that reached case 3
    pending: Optional[tuple[int, float]] = None  # armed hint1: quiz index, deadline

    def held(kind: ScaffoldKind, at: float) -> bool:
        return (
            last is not None
            and at - last[1] < config.min_inter_scaffold_seconds
            and not (kind is ScaffoldKind.HINT6 and last[0] is ScaffoldKind.HINT5)
        )

    def deliver(kind: ScaffoldKind, rule: str, i: int, j: Optional[int], at: float):
        nonlocal last
        if held(kind, at):
            return
        last = (kind, at)
        if kind not in config.disabled_kinds:
            due.append((kind, at, i, j, rule, annotated[i].timestamp, at))

    for j, cur in enumerate(annotated):
        at = cur.timestamp
        if pending is not None:
            arm, deadline = pending
            if at > deadline:
                pending = None
                deliver(ScaffoldKind.HINT1, _HINT1_RULE, arm, None, deadline)
            elif _correct_marking(cur):
                pending = None
            elif j - arm >= config.hint1_window_events:
                pending = None
                deliver(ScaffoldKind.HINT1, _HINT1_RULE, arm, j, at)
        if j == 0:
            continue
        i, prev = j - 1, annotated[j - 1]
        quiz_now = cur.kind is ActionKind.TAKE_QUIZ
        if _long_read(prev):
            if _edit(cur, Effectiveness.INEFF):
                deliver(ScaffoldKind.HINT2, "read_long->edit_ineff", i, j, at)
            elif _edit(cur, Effectiveness.EFF):
                deliver(ScaffoldKind.ENC2, "read_long->edit_eff", i, j, at)
        elif quiz_now and _edit(prev, Effectiveness.INEFF) and not held(ScaffoldKind.HINT5, at):
            if _unmarked_touched(annotated, maps[j], quizzes, j, expert):
                kind = ScaffoldKind.HINT3
            elif _edited_is_shortcut(prev, expert):
                kind = ScaffoldKind.HINT4
            else:
                occasions += 1
                kind = ScaffoldKind.ENC3 if occasions % config.enc3_every == 0 else ScaffoldKind.HINT5
            deliver(kind, "edit_ineff->quiz", i, j, at)
        elif quiz_now and _edit(prev, Effectiveness.EFF):
            quiz = quizzes.result(j)
            if quiz.n_correct >= 1:
                earlier = quizzes.previous(j)
                if earlier is not None and quiz.score > quizzes.result(earlier).score:
                    deliver(ScaffoldKind.ENC1, "edit_eff->quiz_improved", i, j, at)
                else:
                    pending = (j, at + config.hint1_window_seconds)
        elif (
            prev.kind is ActionKind.TAKE_QUIZ
            and _long_read(cur)
            and quizzes.result(i).n_incorrect >= 1
        ):
            deliver(ScaffoldKind.HINT6, "quiz->read_long", i, j, at)

    session_end = annotated[-1].base.end if annotated else 0.0
    if pending is not None and session_end >= pending[1]:
        deliver(ScaffoldKind.HINT1, _HINT1_RULE, pending[0], None, pending[1])
    return due


def _map_timeline(annotated: Sequence[AnnotatedEvent]) -> list[CausalMap]:
    """Map state after each event, replayed independently of annotation."""
    maps = []
    current = CausalMap()
    for event in annotated:
        if event.kind is ActionKind.MAP_EDIT:
            current = apply_edit(current, event.base.edit)
        maps.append(current)
    return maps


class _Quizzes:
    """The session's quiz events, each graded against its replayed map the
    first time a rule reads the result.  Every scope is resolved up front,
    so a scope the expert map lacks fails the whole check even when no
    rule reads that quiz."""

    def __init__(
        self,
        annotated: Sequence[AnnotatedEvent],
        maps: Sequence[CausalMap],
        expert: ExpertMap,
    ):
        self._maps = maps
        self._quizzes: dict[int, tuple[QuizScope, list[QuizQuestion]]] = {}
        for i, event in enumerate(annotated):
            if event.kind is ActionKind.TAKE_QUIZ:
                scope = event.base.quiz_scope
                self._quizzes[i] = (scope, generate_quiz(expert, scope))
        self._indices = list(self._quizzes)
        self._results: dict[int, QuizResult] = {}

    def result(self, index: int) -> Optional[QuizResult]:
        """The graded quiz taken at event index, or None if it was no quiz."""
        result = self._results.get(index)
        if result is None and index in self._quizzes:
            scope, questions = self._quizzes[index]
            result = self._results[index] = grade_quiz(self._maps[index], questions, scope=scope)
        return result

    def previous(self, before: int) -> Optional[int]:
        """Index of the last quiz before event index `before`, if any."""
        k = bisect_left(self._indices, before)
        return self._indices[k - 1] if k else None


def _unmarked_touched(
    annotated: Sequence[AnnotatedEvent],
    current: CausalMap,
    quizzes: _Quizzes,
    quiz_index: int,
    expert: ExpertMap,
) -> list[tuple[str, str]]:
    """Pairs added/modified since the previous quiz that sit on the map
    incorrect and unmarked at quiz time."""
    earlier = quizzes.previous(quiz_index)
    start = earlier + 1 if earlier is not None else 0
    touched: set[tuple[str, str]] = set()
    for event in annotated[start:quiz_index]:
        if event.kind is ActionKind.MAP_EDIT:
            link = event.base.edit.placed_link()
            if link is not None:
                touched.add(link.key)
    found = []
    for pair in sorted(touched):
        link = current.links.get(pair)
        if link is None or link.marking is not Marking.UNMARKED:
            continue
        if not is_correct_link(link, expert):
            found.append(pair)
    return found


def _edited_is_shortcut(prev: AnnotatedEvent, expert: ExpertMap) -> bool:
    link = prev.base.edit.placed_link()
    return link is not None and classify_link(link, expert) is LinkClass.INCORRECT_SHORTCUT


def _long_read(event: AnnotatedEvent) -> bool:
    return event.kind is ActionKind.READ and event.long


def _edit(event: AnnotatedEvent, effectiveness: Effectiveness) -> bool:
    return event.kind is ActionKind.MAP_EDIT and event.effectiveness is effectiveness


def _correct_marking(event: AnnotatedEvent) -> bool:
    return (
        event.kind is ActionKind.MAP_EDIT
        and event.base.edit.action is MapEditAction.MARK_LINK
        and event.base.edit.marking is Marking.MARKED_CORRECT
    )
