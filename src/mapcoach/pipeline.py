"""Wiring shared by the CLI and tests: run the annotator and engine over a
recorded event stream, exactly as the simulator runs them in the loop."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .annotate import (
    ActionEvent,
    ActionKind,
    AnnotatedEvent,
    SessionAnnotator,
    tag_coherence,
)
from .causal import ExpertMap, QuizResult, generate_quiz, grade_quiz
from .engine import ConversationTree, EngineConfig, ScaffoldDelivery, ScaffoldEngine, ScaffoldKind


@dataclass(frozen=True)
class ReplayResult:
    student_id: str
    annotated: tuple[AnnotatedEvent, ...]
    deliveries: tuple[ScaffoldDelivery, ...]
    session_end: float


def replay_events(
    student_id: str,
    events: Sequence[ActionEvent],
    expert: ExpertMap,
    config: EngineConfig = EngineConfig(),
    coherence_lookback: Optional[float] = None,
    trees: Optional[dict[ScaffoldKind, ConversationTree]] = None,
) -> ReplayResult:
    """Annotate a recorded stream and run the scaffold engine over it.

    Quizzes are regraded against the replayed map, so a replay of a
    simulated session reproduces its in-loop deliveries exactly under the
    same config.
    """
    annotator = SessionAnnotator(expert, long_threshold=config.long_threshold)
    engine = ScaffoldEngine(student_id, expert, config, trees=trees)
    last_quiz: Optional[QuizResult] = None
    annotated: list[AnnotatedEvent] = []
    deliveries: list[ScaffoldDelivery] = []
    for event in events:
        ann = annotator.feed(event)
        if event.kind is ActionKind.TAKE_QUIZ:
            scope = event.quiz_scope
            last_quiz = grade_quiz(annotator.current_map, generate_quiz(expert, scope), scope=scope)
        deliveries.extend(engine.observe(ann, annotator.current_map, last_quiz))
        annotated.append(ann)
    session_end = events[-1].end if events else 0.0
    deliveries.extend(engine.finalize(session_end))
    annotated = tag_coherence(annotated, expert, lookback=coherence_lookback)
    return ReplayResult(
        student_id=student_id,
        annotated=tuple(annotated),
        deliveries=tuple(deliveries),
        session_end=session_end,
    )
