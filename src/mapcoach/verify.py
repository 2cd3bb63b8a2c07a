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

The pass replays each map edit and takes each quiz on the replayed map
as it reaches them.  A quiz is graded only when a rule reads it: the quiz
after an effective edit, the quiz before it when the later one has a
correct answer, and a quiz followed by a long read.
"""

from __future__ import annotations

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
    QuizResult,
    classify_link,
    generate_quiz,
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
    current = CausalMap()  # the map after the event at hand
    latest: Optional[tuple[int, QuizResult]] = None  # the last quiz so far, and its index
    earlier: Optional[tuple[int, QuizResult]] = None  # the quiz before that one
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
        if cur.kind is ActionKind.MAP_EDIT:
            current = apply_edit(current, cur.base.edit)
        elif cur.kind is ActionKind.TAKE_QUIZ:
            scope = cur.base.quiz_scope
            earlier, latest = latest, (j, QuizResult(current, generate_quiz(expert, scope), scope))
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
            since = earlier[0] + 1 if earlier is not None else 0
            if _unmarked_touched(annotated[since:j], current, expert):
                kind = ScaffoldKind.HINT3
            elif _edited_is_shortcut(prev, expert):
                kind = ScaffoldKind.HINT4
            else:
                occasions += 1
                kind = ScaffoldKind.ENC3 if occasions % config.enc3_every == 0 else ScaffoldKind.HINT5
            deliver(kind, "edit_ineff->quiz", i, j, at)
        elif quiz_now and _edit(prev, Effectiveness.EFF):
            quiz = latest[1]
            if quiz.n_correct >= 1:
                if earlier is not None and quiz.score > earlier[1].score:
                    deliver(ScaffoldKind.ENC1, "edit_eff->quiz_improved", i, j, at)
                else:
                    pending = (j, at + config.hint1_window_seconds)
        elif (
            prev.kind is ActionKind.TAKE_QUIZ
            and _long_read(cur)
            and latest[1].n_incorrect >= 1
        ):
            deliver(ScaffoldKind.HINT6, "quiz->read_long", i, j, at)

    session_end = annotated[-1].base.end if annotated else 0.0
    if pending is not None and session_end >= pending[1]:
        deliver(ScaffoldKind.HINT1, _HINT1_RULE, pending[0], None, pending[1])
    return due


def _unmarked_touched(
    since_quiz: Sequence[AnnotatedEvent], current: CausalMap, expert: ExpertMap
) -> list[tuple[str, str]]:
    """Pairs added/modified by the events since the previous quiz that sit
    on the map incorrect and unmarked at quiz time."""
    touched: set[tuple[str, str]] = set()
    for event in since_quiz:
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
