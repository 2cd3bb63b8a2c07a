"""The per-student step that the simulator and replay both run, so a replay
of a simulated session reproduces its in-loop deliveries."""

from __future__ import annotations

from typing import Optional, Sequence

from ._record import record
from .annotate import (
    DEFAULT_LONG_THRESHOLD,
    ActionEvent,
    ActionKind,
    AnnotatedEvent,
    SessionAnnotator,
)
from .causal import ExpertMap, QuizResult, generate_quiz
from .engine import ConversationTree, EngineConfig, ScaffoldDelivery, ScaffoldEngine, ScaffoldKind


class SessionStep:
    """One student's step from a raw event to the engine's decision; without
    an engine it annotates and grades only, at the default long threshold."""

    def __init__(self, expert: ExpertMap, engine: Optional[ScaffoldEngine] = None,
                 coherence_lookback: Optional[float] = None):
        self.expert = expert
        self.engine = engine
        long_threshold = engine.config.long_threshold if engine else DEFAULT_LONG_THRESHOLD
        self.annotator = SessionAnnotator(expert, long_threshold, coherence_lookback)
        self.last_quiz: Optional[QuizResult] = None

    def feed(self, event: ActionEvent) -> tuple[AnnotatedEvent, list[ScaffoldDelivery]]:
        """Annotate the event, take it on the map if it is a quiz (a quiz
        leaves the map unchanged) and let the engine observe it: (annotated,
        released).  The quiz's scope is resolved here, but it is graded only
        when the engine or the simulator first reads its answers."""
        annotated = self.annotator.feed(event)
        current_map = self.annotator.current_map
        if event.kind is ActionKind.TAKE_QUIZ:
            scope = event.quiz_scope
            self.last_quiz = QuizResult(current_map, generate_quiz(self.expert, scope), scope)
        if self.engine is None:
            return annotated, []
        return annotated, self.engine.observe(annotated, current_map, self.last_quiz)

    def finish(self, session_end: float) -> list[ScaffoldDelivery]:
        """The deliveries the engine still holds at session end."""
        return self.engine.finalize(session_end) if self.engine else []


@record
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
    step = SessionStep(expert, ScaffoldEngine(student_id, expert, config, trees=trees),
                       coherence_lookback)
    annotated: list[AnnotatedEvent] = []
    deliveries: list[ScaffoldDelivery] = []
    for event in events:
        ann, released = step.feed(event)
        annotated.append(ann)
        deliveries.extend(released)
    session_end = events[-1].end if events else 0.0
    deliveries.extend(step.finish(session_end))
    return ReplayResult(
        student_id=student_id,
        annotated=tuple(annotated),
        deliveries=tuple(deliveries),
        session_end=session_end,
    )
