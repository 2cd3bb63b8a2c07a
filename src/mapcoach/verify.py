"""Offline re-check of delivered scaffolds against the annotated log.

Re-derives every delivery's trigger condition straight from the log (map
replay, quiz regrading, window arithmetic) without going through the
engine's state machine, so a false firing cannot hide behind shared code.
A quiz is regraded only when a check first reads its result.
Returns human-readable violation strings; an empty list means the log and
the delivery record agree.
"""

from __future__ import annotations

from bisect import bisect_left
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


def verify_session(
    annotated: Sequence[AnnotatedEvent],
    deliveries: Sequence[ScaffoldDelivery],
    expert: ExpertMap,
    config: EngineConfig,
) -> list[str]:
    violations: list[str] = []
    maps = _map_timeline(annotated)
    quizzes = _Quizzes(annotated, maps, expert)
    session_end = annotated[-1].base.end if annotated else 0.0

    ordered = sorted(deliveries, key=lambda d: d.timestamp)
    for prev_d, cur_d in zip(ordered, ordered[1:]):
        gap = cur_d.timestamp - prev_d.timestamp
        exempt = cur_d.kind is ScaffoldKind.HINT6 and prev_d.kind is ScaffoldKind.HINT5
        if gap < config.min_inter_scaffold_seconds and not exempt:
            violations.append(
                f"{cur_d.kind.value}@{cur_d.timestamp}: only {gap:.1f}s after previous delivery"
            )

    for d in ordered:
        if d.trigger.rule == "hint1_window_expired":
            violations.extend(
                _check_hint1(d, annotated, quizzes, config, session_end)
            )
        else:
            violations.extend(
                _check_pair(d, annotated, maps, quizzes, expert)
            )
    return violations


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
    first time a check reads the result.  Every scope is resolved up front,
    so a scope the expert map lacks fails the whole check even when no
    check reads that quiz."""

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


def _check_pair(
    d: ScaffoldDelivery,
    annotated: Sequence[AnnotatedEvent],
    maps: Sequence[CausalMap],
    quizzes: _Quizzes,
    expert: ExpertMap,
) -> list[str]:
    out: list[str] = []
    label = f"{d.kind.value}@{d.timestamp}"
    i, j = d.trigger.prev_index, d.trigger.cur_index
    if i is None or j is None or j != i + 1 or not 0 <= i < len(annotated) - 1:
        return [f"{label}: trigger indices ({i}, {j}) are not an adjacent pair"]
    prev, cur = annotated[i], annotated[j]
    if prev.timestamp != d.trigger.prev_time or cur.timestamp != d.trigger.cur_time:
        out.append(f"{label}: recorded trigger times do not match the log")
    if d.timestamp != cur.timestamp:
        out.append(f"{label}: delivered at {d.timestamp}, trigger event at {cur.timestamp}")

    def need(condition: bool, why: str):
        if not condition:
            out.append(f"{label}: {why}")

    kind = d.kind
    if kind is ScaffoldKind.HINT2:
        need(_long_read(prev), "previous event is not a long read")
        need(_edit(cur, Effectiveness.INEFF), "current event is not an ineffective edit")
    elif kind is ScaffoldKind.ENC2:
        need(_long_read(prev), "previous event is not a long read")
        need(_edit(cur, Effectiveness.EFF), "current event is not an effective edit")
    elif kind in (ScaffoldKind.HINT3, ScaffoldKind.HINT4, ScaffoldKind.HINT5, ScaffoldKind.ENC3):
        need(_edit(prev, Effectiveness.INEFF), "previous event is not an ineffective edit")
        need(cur.kind is ActionKind.TAKE_QUIZ, "current event is not a quiz")
        if out:
            return out
        unmarked = _unmarked_touched(annotated, maps[j], quizzes, j, expert)
        shortcut = _edited_is_shortcut(prev, expert)
        if kind is ScaffoldKind.HINT3:
            need(bool(unmarked), "no unmarked incorrect link touched since the previous quiz")
        elif kind is ScaffoldKind.HINT4:
            need(not unmarked, "an unmarked incorrect link should have taken precedence")
            need(shortcut, "triggering edit is not a shortcut link")
        else:
            need(not unmarked, "an unmarked incorrect link should have taken precedence")
            need(not shortcut, "a shortcut edit should have taken precedence")
    elif kind is ScaffoldKind.HINT6:
        need(prev.kind is ActionKind.TAKE_QUIZ, "previous event is not a quiz")
        need(_long_read(cur), "current event is not a long read")
        quiz = quizzes.result(i)
        need(quiz is not None and quiz.n_incorrect >= 1, "preceding quiz has no incorrect answers")
    elif kind is ScaffoldKind.ENC1:
        need(_edit(prev, Effectiveness.EFF), "previous event is not an effective edit")
        need(cur.kind is ActionKind.TAKE_QUIZ, "current event is not a quiz")
        quiz = quizzes.result(j)
        need(quiz is not None and quiz.n_correct >= 1, "quiz has no correct answers")
        earlier = quizzes.previous(j)
        need(
            earlier is not None
            and quiz is not None
            and quiz.score > quizzes.result(earlier).score,
            "quiz score did not improve on the previous quiz",
        )
    else:
        out.append(f"{label}: unexpected pair rule for kind {kind.value}")
    return out


def _check_hint1(
    d: ScaffoldDelivery,
    annotated: Sequence[AnnotatedEvent],
    quizzes: _Quizzes,
    config: EngineConfig,
    session_end: float,
) -> list[str]:
    label = f"hint1@{d.timestamp}"
    out: list[str] = []
    arm = d.trigger.prev_index
    if arm is None or not 0 < arm < len(annotated):
        return [f"{label}: arming index {arm} out of range"]
    arm_event = annotated[arm]
    if arm_event.kind is not ActionKind.TAKE_QUIZ:
        return [f"{label}: arming event is not a quiz"]
    if not _edit(annotated[arm - 1], Effectiveness.EFF):
        out.append(f"{label}: arming quiz not preceded by an effective edit")
    quiz = quizzes.result(arm)
    if quiz is None or quiz.n_correct < 1:
        out.append(f"{label}: arming quiz has no correct answers")
    earlier = quizzes.previous(arm)
    if earlier is not None and quiz is not None and quiz.score > quizzes.result(earlier).score:
        out.append(f"{label}: improving quiz should have praised instead of arming")

    deadline = arm_event.timestamp + config.hint1_window_seconds
    expected: Optional[float] = None
    count = 0
    for event in annotated[arm + 1 :]:
        if event.timestamp > deadline:
            expected = deadline
            break
        if (
            event.kind is ActionKind.MAP_EDIT
            and event.base.edit.action is MapEditAction.MARK_LINK
            and event.base.edit.marking is Marking.MARKED_CORRECT
        ):
            out.append(f"{label}: a correct-marking inside the window should have canceled it")
            return out
        count += 1
        if count >= config.hint1_window_events:
            expected = event.timestamp
            break
    if expected is None and session_end >= deadline:
        expected = deadline
    if expected is None:
        out.append(f"{label}: follow-up window never elapsed")
    elif expected != d.timestamp:
        out.append(f"{label}: expected delivery at {expected}, recorded {d.timestamp}")
    return out


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
