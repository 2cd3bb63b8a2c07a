"""Online scaffold engine: watches an annotated event stream per student,
detects the nine inflection-point triggers, resolves competing cases, and
delivers conversation-tree scaffolds.

Trigger summary (evaluated on the previous/current event pair; the
previous event's kind, read, map edit or quiz, picks the one family that
can fire):

  hint2  read-long -> ineffective map edit        (teachable agent)
  enc2   read-long -> effective map edit          (mentor)
  hint3  ineffective edit -> quiz, case 1: a recently added/modified
         incorrect link is still unmarked         (mentor)
  hint4  ineffective edit -> quiz, case 2: the edit was a shortcut link
  hint5  ineffective edit -> quiz, case 3 (alternation default)
  enc3   ineffective edit -> quiz, case 4 (every `enc3_every`-th occasion)
  hint6  quiz with >=1 incorrect answer -> read-long (mentor; exempt from
         the inter-scaffold window right after a hint5)
  hint1  effective edit -> quiz with >=1 correct answer and no score
         improvement: armed, then delivered at window expiry unless the
         student marks a link correct first       (mentor, deferred)
  enc1   effective edit -> quiz whose score improved on the previous quiz
"""

from __future__ import annotations

import math
from dataclasses import field
from enum import Enum
from string import Template
from typing import Callable, Optional, Sequence

from ._record import record
from .annotate import (
    DEFAULT_LONG_THRESHOLD,
    ActionKind,
    AnnotatedEvent,
    Effectiveness,
    MapEditAction,
)
from .causal import (
    CausalLink,
    CausalMap,
    ExpertMap,
    LinkClass,
    Marking,
    QuizResult,
    answer_query,
    classify_link,
    is_correct_link,
)


class Agent(str, Enum):
    MR_DAVIS = "mr_davis"
    BETTY = "betty"


class ScaffoldKind(str, Enum):
    HINT1 = "hint1"
    HINT2 = "hint2"
    HINT3 = "hint3"
    HINT4 = "hint4"
    HINT5 = "hint5"
    HINT6 = "hint6"
    ENC1 = "enc1"
    ENC2 = "enc2"
    ENC3 = "enc3"

    @property
    def agent(self) -> Agent:
        return AGENT_FOR_KIND[self]

    @property
    def label(self) -> str:
        return KIND_LABELS[self]


AGENT_FOR_KIND = {
    ScaffoldKind.HINT1: Agent.MR_DAVIS,
    ScaffoldKind.HINT2: Agent.BETTY,
    ScaffoldKind.HINT3: Agent.MR_DAVIS,
    ScaffoldKind.HINT4: Agent.MR_DAVIS,
    ScaffoldKind.HINT5: Agent.MR_DAVIS,
    ScaffoldKind.HINT6: Agent.MR_DAVIS,
    ScaffoldKind.ENC1: Agent.BETTY,
    ScaffoldKind.ENC2: Agent.MR_DAVIS,
    ScaffoldKind.ENC3: Agent.BETTY,
}

KIND_LABELS = {
    ScaffoldKind.HINT1: "Hint1 Mark Correct",
    ScaffoldKind.HINT2: "Hint2 Assess by Quiz",
    ScaffoldKind.HINT3: "Hint3 Mark Wrong",
    ScaffoldKind.HINT4: "Hint4 Shortcut Link",
    ScaffoldKind.HINT5: "Hint5 Debug from Map",
    ScaffoldKind.HINT6: "Hint6 Debug from Read",
    ScaffoldKind.ENC1: "Enc1 Praise",
    ScaffoldKind.ENC2: "Enc2 Praise & Quiz",
    ScaffoldKind.ENC3: "Enc3 Reassure",
}


# -- conversation trees --------------------------------------------------------


class MalformedTree(ValueError):
    pass


@record
class ResponseOption:
    text: str
    goto: Optional[str] = None  # None means the student exits here


@record
class ConversationNode:
    id: str
    prompt: str
    responses: tuple[ResponseOption, ...]


class ConversationTree:
    """Branching prompt/response structure; every node offers an exit and
    the graph must be acyclic so a walk can never revisit a node."""

    def __init__(self, root: str, nodes: Sequence[ConversationNode]):
        self.nodes: dict[str, ConversationNode] = {}
        for node in nodes:
            if node.id in self.nodes:
                raise MalformedTree(f"duplicate node id {node.id!r}")
            self.nodes[node.id] = node
        if root not in self.nodes:
            raise MalformedTree(f"root {root!r} not among nodes")
        self.root = root
        self._validate()

    def _validate(self):
        for node in self.nodes.values():
            if not node.responses:
                raise MalformedTree(f"node {node.id!r} offers no responses")
            if not any(r.goto is None for r in node.responses):
                raise MalformedTree(f"node {node.id!r} offers no exit")
            for r in node.responses:
                if r.goto is not None and r.goto not in self.nodes:
                    raise MalformedTree(f"node {node.id!r} points at missing {r.goto!r}")
        # depth first in response order, on an explicit stack of the nodes on
        # the current path and their responses left, so a tree may be deeper
        # than the interpreter's recursion limit
        reachable = {self.root}
        on_path = {self.root}
        stack = [(self.root, iter(self.nodes[self.root].responses))]
        while stack:
            node_id, responses = stack[-1]
            for r in responses:
                if r.goto is None:
                    continue
                if r.goto in on_path:
                    raise MalformedTree(f"cycle through node {r.goto!r}")
                if r.goto not in reachable:
                    reachable.add(r.goto)
                    on_path.add(r.goto)
                    stack.append((r.goto, iter(self.nodes[r.goto].responses)))
                    break
            else:
                stack.pop()
                on_path.discard(node_id)
        unreachable = set(self.nodes) - reachable
        if unreachable:
            raise MalformedTree(f"unreachable nodes: {sorted(unreachable)}")


@record
class TranscriptStep:
    node: str
    prompt: str
    response: str


Responder = Callable[[ConversationNode], int]


def first_option(node: ConversationNode) -> int:
    return 0


def run_conversation(
    tree: ConversationTree,
    responder: Responder = first_option,
    template_vars: Optional[dict[str, str]] = None,
) -> list[TranscriptStep]:
    """Walk a tree under a response policy, rendering prompt templates.

    The walk ends at the first exit response; a revisit (impossible on a
    validated tree) raises MalformedTree as a guard."""
    variables = dict(_TEMPLATE_DEFAULTS)
    if template_vars:
        variables.update({k: v for k, v in template_vars.items() if v is not None})
    transcript: list[TranscriptStep] = []
    seen: set[str] = set()
    node = tree.nodes[tree.root]
    while True:
        if node.id in seen:
            raise MalformedTree(f"walk revisited node {node.id!r}")
        seen.add(node.id)
        choice = responder(node)
        option = node.responses[choice]
        prompt = node.prompt
        if "$" in prompt:
            prompt = Template(prompt).safe_substitute(variables)
        transcript.append(TranscriptStep(node=node.id, prompt=prompt, response=option.text))
        if option.goto is None:
            return transcript
        node = tree.nodes[option.goto]


_TEMPLATE_DEFAULTS = {
    "concept": "one of your concepts",
    "source": "one concept",
    "target": "another concept",
    "link": "one of your links",
    "page": "the science book",
}


def _tree(*nodes: tuple[str, str, list[tuple[str, Optional[str]]]]) -> ConversationTree:
    """A tree rooted at its first node."""
    return ConversationTree(
        nodes[0][0],
        [
            ConversationNode(
                id=node_id,
                prompt=prompt,
                responses=tuple(ResponseOption(text=t, goto=g) for t, g in responses),
            )
            for node_id, prompt, responses in nodes
        ],
    )


def _bundled_trees() -> dict[ScaffoldKind, ConversationTree]:
    return {
        ScaffoldKind.HINT2: _tree(
            (
                "h2-1",
                "Hi, I think you just added a causal link on your map after "
                "looking at the science book. Do you think I am ready for a quiz now?",
                [("Sure, take a quiz.", "h2-2"), ("Not yet.", None)],
            ),
            (
                "h2-2",
                "Great! Quizzes help us see which links are working. "
                "Pick a section quiz or the Everything quiz from the quiz menu.",
                [("Will do.", None)],
            ),
        ),
        ScaffoldKind.HINT3: _tree(
            (
                "h3-1",
                "From the quiz results, looks like Betty may have some incorrect "
                "links on her map. You can mark those links as 'could be wrong'. "
                "Do you want to know more?",
                [("Yes, tell me more.", "h3-2"), ("No thanks.", None)],
            ),
            (
                "h3-2",
                "Marking a link keeps track of what still needs checking. "
                "Right-click a link and choose a marking; you can always change it later.",
                [("Got it.", None)],
            ),
        ),
        ScaffoldKind.HINT4: _tree(
            (
                "h4-1",
                "From the quiz, it seems you may have an incorrect shortcut link on "
                "your map. Do you want to know more about shortcut links?",
                [("Yes.", "h4-2"), ("No thanks.", None)],
            ),
            (
                "h4-2",
                "A shortcut link connects two concepts directly when the book "
                "describes a chain of links between them. Check whether $link "
                "skips over a concept in between.",
                [("I'll check.", None)],
            ),
        ),
        ScaffoldKind.HINT5: _tree(
            (
                "h5-1",
                "Some of Betty's quiz answers were graded incorrect. That usually "
                "means a link on the map does not match the science book.",
                [("Tell me more.", "h5-2"), ("I'll look myself.", None)],
            ),
            (
                "h5-2",
                "One of the links going out of '$concept' is wrong. "
                "Try to find out which one it is.",
                [("Tell me more.", "h5-3"), ("Thanks, I'll take it from here.", None)],
            ),
            (
                "h5-3",
                "Take a close look at the link from '$source' to '$target'. "
                "Compare it with what the science book says about those concepts.",
                [("Thanks.", None)],
            ),
        ),
        ScaffoldKind.HINT6: _tree(
            (
                "h6-1",
                "You are missing a link that comes out of '$concept'. "
                "Try reading up on page '$page' and see if you can find the link.",
                [("Where do I find that page?", "h6-2"), ("Thanks.", None)],
            ),
            (
                "h6-2",
                "Open the science book and look for '$page' in the table of "
                "contents. Read it carefully, then update your map.",
                [("OK.", None)],
            ),
        ),
        ScaffoldKind.HINT1: _tree(
            (
                "h1-1",
                "If Betty got an answer graded correct, remember to mark those links "
                "as 'correct' in the map. This can help you keep track of what you "
                "have taught her correctly so far. Do you know how to mark a link?",
                [("Yes.", None), ("Show me.", "h1-2")],
            ),
            (
                "h1-2",
                "Right-click a link on the map and choose 'mark correct'. "
                "Marked links are easy to spot when you debug the rest of the map.",
                [("Got it.", None)],
            ),
        ),
        ScaffoldKind.ENC1: _tree(
            (
                "e1-1",
                "Wow! I think I have some correct links on the map. "
                "This is fun! Thanks, teacher.",
                [("You're welcome!", None)],
            ),
        ),
        ScaffoldKind.ENC2: _tree(
            (
                "e2-1",
                "Looks like you're doing a good job teaching correct causal links to "
                "Betty. Make sure you check her progress by asking her to take a quiz.",
                [("I'll ask her now.", None), ("Maybe later.", None)],
            ),
        ),
        ScaffoldKind.ENC3: _tree(
            (
                "e3-1",
                "Sometimes I find all this a little tricky. But with you to teach me, "
                "I'm sure we can do it.",
                [("We'll figure it out.", None)],
            ),
        ),
    }


# built once and shared: only ConversationTree.__init__ writes a tree's nodes
_BUNDLED_TREES = _bundled_trees()


def default_trees() -> dict[ScaffoldKind, ConversationTree]:
    """Bundled conversation trees, one per scaffold kind, in a fresh dict."""
    return dict(_BUNDLED_TREES)


# -- deliveries ----------------------------------------------------------------


@record
class TargetHints:
    link: Optional[str] = None
    source: Optional[str] = None
    target: Optional[str] = None
    concept: Optional[str] = None
    page: Optional[str] = None

    def template_vars(self) -> dict[str, str]:
        return {
            k: v
            for k, v in (
                ("link", self.link),
                ("source", self.source),
                ("target", self.target),
                ("concept", self.concept),
                ("page", self.page),
            )
            if v is not None
        }


@record
class TriggerContext:
    rule: str
    prev_index: Optional[int]
    cur_index: Optional[int]
    prev_time: Optional[float]
    cur_time: Optional[float]
    detail: dict = field(default_factory=dict)


@record
class ScaffoldDelivery:
    student_id: str
    kind: ScaffoldKind
    agent: Agent
    timestamp: float
    trigger: TriggerContext
    transcript: tuple[TranscriptStep, ...]
    target_hints: Optional[TargetHints] = None


class EngineError(ValueError):
    pass


class OutOfOrderEvent(EngineError):
    pass


@record
class EngineConfig:
    min_inter_scaffold_seconds: float = 60.0
    hint1_window_events: int = 5
    hint1_window_seconds: float = 120.0
    long_threshold: float = DEFAULT_LONG_THRESHOLD
    enc3_every: int = 3
    disabled_kinds: frozenset[ScaffoldKind] = frozenset()

    def __post_init__(self):
        for name in ("min_inter_scaffold_seconds", "hint1_window_seconds", "long_threshold"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.min_inter_scaffold_seconds <= 0:
            raise ValueError("min_inter_scaffold_seconds must be positive")
        if self.hint1_window_events <= 0 or self.hint1_window_seconds <= 0:
            raise ValueError("hint1 follow-up windows must be positive")
        if self.long_threshold <= 0:
            raise ValueError("long_threshold must be positive")
        if self.enc3_every < 1:
            raise ValueError("enc3_every must be >= 1")


@record
class _PendingHint1:
    arm_index: int
    arm_time: float
    deadline: float
    hints: TargetHints


class ScaffoldEngine:
    """Per-student trigger state machine.

    Feed one student's annotated events in timestamp order via observe();
    call finalize() at session end to resolve a still-pending hint1 whose
    window elapsed before the last event.  Disabled kinds are detected and
    advance internal state exactly as enabled ones; `_deliver` swallows
    their deliveries before any conversation runs, but each still holds the
    inter-scaffold window, so disabling one kind can hold back another.
    """

    def __init__(
        self,
        student_id: str,
        expert: ExpertMap,
        config: EngineConfig = EngineConfig(),
        trees: Optional[dict[ScaffoldKind, ConversationTree]] = None,
        responder: Responder = first_option,
    ):
        self.student_id = student_id
        self.expert = expert
        self.config = config
        self.trees = trees if trees is not None else default_trees()
        self.responder = responder
        self._index = 0
        self._prev: Optional[AnnotatedEvent] = None
        self._prev_time = -math.inf
        self._last_delivery: Optional[tuple[ScaffoldKind, float]] = None
        self._ineff_occasions = 0
        self._last_hint5_pair: Optional[tuple[str, str]] = None
        self._pending_hint1: Optional[_PendingHint1] = None
        self._prev_quiz: Optional[QuizResult] = None
        self._placed_pairs: set[tuple[str, str]] = set()

    # -- public API -------------------------------------------------------

    def observe(
        self,
        event: AnnotatedEvent,
        student_map: CausalMap,
        last_quiz: Optional[QuizResult] = None,
    ) -> list[ScaffoldDelivery]:
        """Process one event; returns the deliveries it released (possibly a
        deferred hint1 plus at most one pair-triggered scaffold).  One rule
        family per previous-event kind is tested (`_detect`), and the
        pending hint1 only while one is armed."""
        base = event.base
        at, kind = base.timestamp, base.kind
        if at < self._prev_time:
            raise OutOfOrderEvent(f"event at {at} after event at {self._prev_time}")
        index = self._index
        self._index = index + 1
        out = self._resolve_pending_hint1(event) if self._pending_hint1 is not None else []
        candidate = self._detect(event, kind, index, student_map, last_quiz)
        if candidate is not None:
            out.append(candidate)
        # bookkeeping that must happen regardless of what fired
        if kind is ActionKind.MAP_EDIT:
            link = base.edit.placed_link()
            if link is not None:
                self._placed_pairs.add(link.key)
        elif kind is ActionKind.TAKE_QUIZ and last_quiz is not None:
            self._prev_quiz = last_quiz
            self._placed_pairs.clear()
        self._prev = event
        self._prev_time = at
        return out

    def finalize(self, session_end: float) -> list[ScaffoldDelivery]:
        """Resolve a pending hint1 whose window elapsed by session end."""
        pending = self._pending_hint1
        if pending is None or session_end < pending.deadline:
            return []
        return self._expire_hint1(pending, pending.deadline, None)

    # -- internals ----------------------------------------------------------

    def _resolve_pending_hint1(self, event: AnnotatedEvent) -> list[ScaffoldDelivery]:
        """Expire, cancel or count down the pending hint1 at `event`."""
        pending = self._pending_hint1
        if event.timestamp > pending.deadline:
            return self._expire_hint1(pending, pending.deadline, None)
        if _is_correct_marking(event):
            self._pending_hint1 = None
            return []
        if self._index - 1 - pending.arm_index >= self.config.hint1_window_events:
            return self._expire_hint1(pending, event.timestamp, self._index - 1)
        return []

    def _expire_hint1(
        self, pending: _PendingHint1, at: float, cur_index: Optional[int]
    ) -> list[ScaffoldDelivery]:
        """Deliver the pending hint1 whose follow-up window ran out at `at`."""
        self._pending_hint1 = None
        delivery = self._deliver(
            ScaffoldKind.HINT1, pending.hints, "hint1_window_expired",
            pending.arm_index, pending.arm_time, cur_index, at,
        )
        return [delivery] if delivery is not None else []

    def _detect(
        self,
        event: AnnotatedEvent,
        kind: ActionKind,
        index: int,
        student_map: CausalMap,
        last_quiz: Optional[QuizResult],
    ) -> Optional[ScaffoldDelivery]:
        """The scaffold the previous event and `event` trigger, if any.

        Each rule family is keyed on one previous-event kind: a read leads
        to hint2/enc2, a map edit followed by a quiz to the hint5 family
        (ineffective) or enc1/hint1 (effective), a quiz to hint6."""
        prev = self._prev
        if prev is None:
            return None
        prev_kind = prev.base.kind
        if prev_kind is ActionKind.READ:
            if not prev.long or kind is not ActionKind.MAP_EDIT:
                return None
            if event.effectiveness is Effectiveness.INEFF:
                return self._deliver_on_pair(ScaffoldKind.HINT2, event, index, None,
                                             "read_long->edit_ineff")
            if event.effectiveness is Effectiveness.EFF:
                return self._deliver_on_pair(ScaffoldKind.ENC2, event, index, None,
                                             "read_long->edit_eff")
            return None

        if prev_kind is ActionKind.MAP_EDIT:
            if kind is not ActionKind.TAKE_QUIZ:
                return None
            if prev.effectiveness is Effectiveness.INEFF:
                if self._suppressed(ScaffoldKind.HINT5, event.base.timestamp):
                    return None
                return self._resolve_ineff_quiz(prev, event, index, student_map, last_quiz)
            if (
                prev.effectiveness is Effectiveness.EFF
                and last_quiz is not None
                and last_quiz.n_correct >= 1
            ):
                if self._prev_quiz is not None and last_quiz.score > self._prev_quiz.score:
                    return self._deliver_on_pair(ScaffoldKind.ENC1, event, index, None,
                                                 "edit_eff->quiz_improved")
                self._arm_hint1(index, event, student_map, last_quiz)
            return None

        if (
            prev_kind is ActionKind.TAKE_QUIZ
            and kind is ActionKind.READ
            and event.long
            and last_quiz is not None
            and last_quiz.n_incorrect >= 1
        ):
            hints = self._hint6_targets(student_map, last_quiz)
            return self._deliver_on_pair(ScaffoldKind.HINT6, event, index, hints,
                                         "quiz->read_long")
        return None

    def _resolve_ineff_quiz(
        self,
        prev: AnnotatedEvent,
        event: AnnotatedEvent,
        index: int,
        student_map: CausalMap,
        last_quiz: Optional[QuizResult],
    ) -> Optional[ScaffoldDelivery]:
        """Case resolution for the ineffective-edit -> quiz inflection."""
        unmarked = self._unmarked_touched_links(student_map)
        if unmarked:
            return self._deliver_on_pair(
                ScaffoldKind.HINT3, event, index, _link_hints(unmarked[0]),
                "edit_ineff->quiz", case="unmarked_incorrect",
            )
        edited = prev.base.edit.placed_link()
        if edited is not None and classify_link(edited, self.expert) is LinkClass.INCORRECT_SHORTCUT:
            return self._deliver_on_pair(
                ScaffoldKind.HINT4, event, index, _link_hints(edited),
                "edit_ineff->quiz", case="shortcut",
            )
        self._ineff_occasions += 1
        if self._ineff_occasions % self.config.enc3_every == 0:
            return self._deliver_on_pair(
                ScaffoldKind.ENC3, event, index, None, "edit_ineff->quiz", case="alternation"
            )
        return self._deliver_on_pair(
            ScaffoldKind.HINT5, event, index, self._hint5_targets(student_map, last_quiz),
            "edit_ineff->quiz", case="alternation",
        )

    def _arm_hint1(
        self,
        index: int,
        event: AnnotatedEvent,
        student_map: CausalMap,
        quiz: QuizResult,
    ):
        """Arm a deferred hint1 naming the least-key link on the paths behind
        the first correct answer of the quiz just graded on student_map."""
        link = None
        for q, answer in zip(quiz.questions, quiz.answers):
            if answer is q.expert_answer:
                used = answer_query(student_map, q.source, q.target).used_links
                link = min(used, key=lambda l: l.key, default=None)
                break
        hints = _link_hints(link) if link is not None else TargetHints()
        self._pending_hint1 = _PendingHint1(
            arm_index=index,
            arm_time=event.timestamp,
            deadline=event.timestamp + self.config.hint1_window_seconds,
            hints=hints,
        )

    def _unmarked_touched_links(self, student_map: CausalMap) -> list[CausalLink]:
        """Incorrect, still-unmarked links among pairs added/modified since
        the previous quiz."""
        found = []
        for pair in sorted(self._placed_pairs):
            link = student_map.links.get(pair)
            if link is None or link.marking is not Marking.UNMARKED:
                continue
            if not is_correct_link(link, self.expert):
                found.append(link)
        return found

    def _hint5_targets(
        self, student_map: CausalMap, quiz: Optional[QuizResult]
    ) -> Optional[TargetHints]:
        if quiz is None:
            return None
        concepts: set[str] = set()
        for q, answer in zip(quiz.questions, quiz.answers):
            if answer is not q.expert_answer:
                concepts.add(q.source)
                concepts.add(q.target)
        candidates = [
            link
            for link in student_map.sorted_links()
            if (link.source in concepts or link.target in concepts)
            and not is_correct_link(link, self.expert)
        ]
        if not candidates:
            return None
        pick = next(
            (l for l in candidates if l.key != self._last_hint5_pair), candidates[0]
        )
        self._last_hint5_pair = pick.key
        return _link_hints(pick)

    def _hint6_targets(
        self, student_map: CausalMap, quiz: QuizResult
    ) -> Optional[TargetHints]:
        """Name the source page of an expert link implicated by an incorrect
        answer and missing or wrong-signed on the student map."""
        for q, answer in zip(quiz.questions, quiz.answers):
            if answer is q.expert_answer:
                continue
            for expert_link in self.expert.path_links(q.source, q.target):
                student_link = student_map.links.get(expert_link.key)
                if student_link is None or student_link.sign is not expert_link.sign:
                    return TargetHints(
                        concept=expert_link.source,
                        page=expert_link.source_page,
                        source=expert_link.source,
                        target=expert_link.target,
                    )
        return None

    def _suppressed(self, kind: ScaffoldKind, at: float) -> bool:
        if self._last_delivery is None:
            return False
        last_kind, last_time = self._last_delivery
        if at - last_time >= self.config.min_inter_scaffold_seconds:
            return False
        # observed hint5+hint6 chaining: hint6 may follow a hint5 immediately
        return not (kind is ScaffoldKind.HINT6 and last_kind is ScaffoldKind.HINT5)

    def _deliver_on_pair(
        self,
        kind: ScaffoldKind,
        event: AnnotatedEvent,
        index: int,
        hints: Optional[TargetHints],
        rule: str,
        **detail,
    ) -> Optional[ScaffoldDelivery]:
        """Deliver a scaffold triggered by the previous event and `event`."""
        return self._deliver(
            kind, hints, rule, index - 1, self._prev_time, index, event.base.timestamp, **detail,
        )

    def _deliver(
        self,
        kind: ScaffoldKind,
        hints: Optional[TargetHints],
        rule: str,
        prev_index: Optional[int],
        prev_time: Optional[float],
        cur_index: Optional[int],
        at: float,
        **detail,
    ) -> Optional[ScaffoldDelivery]:
        """Deliver a scaffold at `at` unless the window suppresses it; a
        disabled kind takes the window, then is dropped here, the one place
        it is, before its conversation runs or its trigger context is built."""
        if self._suppressed(kind, at):
            return None
        self._last_delivery = (kind, at)
        if kind in self.config.disabled_kinds:
            return None
        transcript = run_conversation(
            self.trees[kind],
            self.responder,
            hints.template_vars() if hints is not None else None,
        )
        return ScaffoldDelivery(
            student_id=self.student_id,
            kind=kind,
            agent=kind.agent,
            timestamp=at,
            trigger=TriggerContext(rule, prev_index, cur_index, prev_time, at, detail),
            transcript=tuple(transcript),
            target_hints=hints,
        )


def _is_correct_marking(event: AnnotatedEvent) -> bool:
    return (
        event.kind is ActionKind.MAP_EDIT
        and event.base.edit.action is MapEditAction.MARK_LINK
        and event.base.edit.marking is Marking.MARKED_CORRECT
    )


def _link_hints(link: CausalLink) -> TargetHints:
    return TargetHints(
        link=link.display(),
        source=link.source,
        target=link.target,
        concept=link.source,
    )


# -- delivery statistics ---------------------------------------------------------


@record
class DeliveryStats:
    count_range: tuple[int, int]
    mean: float
    sd: float
    histogram: dict[str, int]


HISTOGRAM_BUCKETS = ("never", "1", "2", "3", "4+")


def delivery_counts(
    deliveries: Sequence[ScaffoldDelivery],
    grouping: dict[str, str],
) -> dict[tuple[str, ScaffoldKind], DeliveryStats]:
    """Per-group, per-kind receipt statistics.

    The range and histogram cover every student in the group (zeros
    included); mean and sd cover only students who received the scaffold at
    least once, with sd reported as 0 for fewer than two receivers.
    """
    import statistics

    counts: dict[tuple[str, ScaffoldKind], dict[str, int]] = {}
    groups = sorted(set(grouping.values()))
    roster: dict[str, list[str]] = {g: [] for g in groups}
    for student, group in grouping.items():
        roster[group].append(student)
    for group in groups:
        for kind in ScaffoldKind:
            counts[(group, kind)] = {s: 0 for s in roster[group]}
    for d in deliveries:
        group = grouping.get(d.student_id)
        if group is None:
            continue
        counts[(group, d.kind)][d.student_id] += 1
    out: dict[tuple[str, ScaffoldKind], DeliveryStats] = {}
    for key, per_student in counts.items():
        values = list(per_student.values())
        receivers = [v for v in values if v > 0]
        histogram = {bucket: 0 for bucket in HISTOGRAM_BUCKETS}
        for v in values:
            if v == 0:
                histogram["never"] += 1
            elif v >= 4:
                histogram["4+"] += 1
            else:
                histogram[str(v)] += 1
        out[key] = DeliveryStats(
            count_range=(min(values, default=0), max(values, default=0)),
            mean=statistics.fmean(receivers) if receivers else 0.0,
            sd=statistics.stdev(receivers) if len(receivers) >= 2 else 0.0,
            histogram=histogram,
        )
    return out
