"""Synthetic student sessions from parameterized behavior profiles.

The generator is a steered semi-Markov process: each step draws the next
activity with weights pulled toward the profile's target time mix, then
plays it out against the evolving causal map (reads cover resource pages,
edits add correct or flawed links, quizzes are graded for real).  Run with
a scaffold engine attached, deliveries feed back into behavior through
per-kind compliance probabilities.

Everything is driven by one seeded Mersenne Twister (`random.Random`) per
student, so a (profile, seed) pair reproduces its session bit for bit.
There is no claim of cognitive fidelity; the bundled profiles only imitate
observed group-level statistics (time mix, edit effectiveness, coherence).
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect
from collections import deque
from dataclasses import replace
from functools import partial
from itertools import accumulate
from typing import Callable, Optional, Sequence

from ._record import record
from .analytics import AffectObservation, Emotion
from .annotate import ActionEvent, ActionKind, MapEdit, MapEditAction
from .causal import (
    CausalLink,
    CausalMap,
    EmptyQuiz,
    ExpertMap,
    LinkClass,
    Marking,
    QuizScope,
    Sign,
    classify_link,
    generate_quiz,
    is_correct_link,
)
from .engine import (
    ConversationTree,
    EngineConfig,
    ScaffoldDelivery,
    ScaffoldEngine,
    ScaffoldKind,
)
from .pipeline import SessionStep

AFFECT_PERIOD = 20.0
CONFUSION_BUMP = 0.05
CONFUSION_BUMP_WINDOW = 120.0


@record
class DurationModel:
    mean: float
    spread: float

    def __post_init__(self):
        if self.mean <= 0 or self.spread < 0:
            raise ValueError("durations need positive mean and non-negative spread")
        if not (math.isfinite(self.mean) and math.isfinite(self.spread)):
            raise ValueError("durations need a finite mean and spread")

    def draw(self, rng: random.Random) -> float:
        return round(max(1.0, rng.gauss(self.mean, self.spread)), 1)


# durations of the concept layout that opens a session and of a forced marking
LAYOUT_DURATION = DurationModel(4.0, 1.5)
MARK_DURATION = DurationModel(5.0, 2.0)


@record
class StudentProfile:
    student_id: str
    activity_mix: dict[ActionKind, float]
    read_effectiveness: float
    quiz_propensity: float
    scaffold_compliance: dict[ScaffoldKind, float]
    read_duration: DurationModel
    edit_duration: DurationModel
    quiz_duration: DurationModel
    note_duration: DurationModel
    expl_duration: DurationModel
    affect_baseline: dict[Emotion, float]
    wrong_sign_share: float = 0.8   # of non-shortcut flawed links, share that flip a read link's sign
    shortcut_share: float = 0.3     # of flawed links, share drawn as shortcut links
    seed: int = 0

    def __post_init__(self):
        for name, given, members in (("activity_mix", self.activity_mix, ActionKind),
                                     ("affect_baseline", self.affect_baseline, Emotion)):
            missing = [m.value for m in members if m not in given]
            if missing:
                raise ValueError(f"{name} lacks {', '.join(missing)}")
        total = sum(self.activity_mix.values())
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"activity_mix sums to {total}, expected 1")
        for name, p in [
            ("read_effectiveness", self.read_effectiveness),
            ("quiz_propensity", self.quiz_propensity),
            ("wrong_sign_share", self.wrong_sign_share),
            ("shortcut_share", self.shortcut_share),
            *[(f"activity_mix[{k.value}]", v) for k, v in self.activity_mix.items()],
            *[(f"compliance[{k.value}]", v) for k, v in self.scaffold_compliance.items()],
            *[(f"affect[{e.value}]", v) for e, v in self.affect_baseline.items()],
        ]:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name}={p} outside [0, 1]")


@record
class SessionLog:
    student_id: str
    events: tuple[ActionEvent, ...]
    affect: tuple[AffectObservation, ...]
    final_map: CausalMap
    deliveries: tuple[ScaffoldDelivery, ...]
    session_end: float


def bundled_profiles() -> dict[str, StudentProfile]:
    """Two documented default profiles calibrated to observed group rows:

    high: time mix 26.2/0.5/47/23.13/3.2 (IA 26.7, SC 47, SA 26.3),
          edit effectiveness 0.637, read->edit coherence target 0.88
    low:  time mix 37.3/0.7/46.1/14.1/1.8 (IA 38, SC 46.1, SA 15.9),
          edit effectiveness 0.454, coherence target 0.748
    """
    high_mix = _normalized_mix(read=26.2, notes=0.5, edit=47.0, quiz=23.13, expl=3.2)
    low_mix = _normalized_mix(read=37.3, notes=0.7, edit=46.1, quiz=14.1, expl=1.8)
    high = StudentProfile(
        student_id="high-default",
        activity_mix=high_mix,
        read_effectiveness=0.637,
        quiz_propensity=0.15,
        scaffold_compliance={
            ScaffoldKind.HINT1: 0.30,
            ScaffoldKind.HINT2: 0.85,
            ScaffoldKind.HINT3: 0.40,
            ScaffoldKind.HINT4: 0.40,
            ScaffoldKind.HINT5: 0.55,
            ScaffoldKind.HINT6: 0.40,
            ScaffoldKind.ENC2: 0.40,
        },
        read_duration=DurationModel(40.0, 28.0),
        edit_duration=DurationModel(18.0, 8.0),
        quiz_duration=DurationModel(45.0, 15.0),
        note_duration=DurationModel(25.0, 10.0),
        expl_duration=DurationModel(20.0, 8.0),
        affect_baseline={
            Emotion.ENGAGED_CONCENTRATION: 0.60,
            Emotion.BOREDOM: 0.12,
            Emotion.DELIGHT: 0.08,
            Emotion.CONFUSION: 0.08,
            Emotion.FRUSTRATION: 0.07,
        },
        wrong_sign_share=0.96,
    )
    low = StudentProfile(
        student_id="low-default",
        activity_mix=low_mix,
        read_effectiveness=0.454,
        quiz_propensity=0.05,
        scaffold_compliance={
            ScaffoldKind.HINT1: 0.50,
            ScaffoldKind.HINT2: 0.70,
            ScaffoldKind.HINT3: 0.40,
            ScaffoldKind.HINT4: 0.40,
            ScaffoldKind.HINT5: 0.60,
            ScaffoldKind.HINT6: 0.70,
            ScaffoldKind.ENC2: 0.30,
        },
        read_duration=DurationModel(52.0, 30.0),
        edit_duration=DurationModel(18.0, 8.0),
        quiz_duration=DurationModel(40.0, 15.0),
        note_duration=DurationModel(25.0, 10.0),
        expl_duration=DurationModel(20.0, 8.0),
        affect_baseline={
            Emotion.ENGAGED_CONCENTRATION: 0.55,
            Emotion.BOREDOM: 0.15,
            Emotion.DELIGHT: 0.06,
            Emotion.CONFUSION: 0.08,
            Emotion.FRUSTRATION: 0.10,
        },
        wrong_sign_share=0.84,
    )
    return {"high": high, "low": low}


def _normalized_mix(read, notes, edit, quiz, expl) -> dict[ActionKind, float]:
    total = read + notes + edit + quiz + expl
    return {
        ActionKind.READ: read / total,
        ActionKind.MAKE_NOTES: notes / total,
        ActionKind.MAP_EDIT: edit / total,
        ActionKind.TAKE_QUIZ: quiz / total,
        ActionKind.QUIZ_EXPL: expl / total,
    }


# -- the session generator ----------------------------------------------------


class _Session:
    STEER_GAIN = 3.0
    CHOICE_KINDS = (ActionKind.READ, ActionKind.MAKE_NOTES, ActionKind.MAP_EDIT, ActionKind.TAKE_QUIZ)

    def __init__(
        self,
        profile: StudentProfile,
        expert: ExpertMap,
        duration_budget: float,
        engine: Optional[ScaffoldEngine],
    ):
        self.profile = profile
        self.expert = expert
        self.budget = duration_budget
        self.step = SessionStep(expert, engine)
        self.rng = random.Random(profile.seed)
        self.t = 0.0
        self.events: list[ActionEvent] = []
        self.deliveries: list[ScaffoldDelivery] = []
        self.time_per_kind = {kind: 0.0 for kind in ActionKind}
        # target share and mean duration of each activity a choice draws
        self._choices = [
            (kind, profile.activity_mix[kind], duration.mean)
            for kind, duration in zip(
                self.CHOICE_KINDS,
                (profile.read_duration, profile.note_duration,
                 profile.edit_duration, profile.quiz_duration),
            )
        ]
        self._expert_signs = {key: link.sign for key, link in expert.links.items()}
        # the pages read so far, with their expert links as (key, sign) in
        # sorted page then key order and the concepts those links join,
        # sorted; updated when a read reaches a page not read before
        self._read_pages: set[str] = set()
        self._read_links: list[tuple[tuple[str, str], Sign]] = []
        self._read_concepts: list[str] = []
        self.edits_since_quiz = 0
        self.note_counter = 0
        self.forced: deque[Callable[[], None]] = deque()
        self.pages = expert.page_ids()
        self.sections = []
        for section in sorted(expert.sections()):
            try:
                generate_quiz(expert, QuizScope.for_section(section))
                self.sections.append(section)
            except EmptyQuiz:
                continue
        self._shortcuts = expert.shortcuts()

    # -- activity selection -------------------------------------------------

    def _choose_activity(self) -> ActionKind:
        """Draw the next activity, each weighted toward the target time mix.

        Dividing by the expected duration makes the target mix a fixed
        point of the realized time shares; the deficit term corrects
        drift."""
        time_per_kind = self.time_per_kind
        total = sum(time_per_kind.values())
        weights = []
        for kind, mix, mean in self._choices:
            w = 0.0
            if mix > 0:
                share = time_per_kind[kind] / total if total > 0 else 0.0
                w = mix + self.STEER_GAIN * (mix - share)
                w = (w if w > 1e-6 else 1e-6) / mean  # max(1e-6, w) / mean
            weights.append(w)
        # weights follow CHOICE_KINDS; on a map without links every read
        # expert link is a correct candidate and every shortcut is open
        links = self.step.annotator.current_map.links
        if not (links or self._read_links or self._shortcuts):
            weights[2] = 0.0
        if links:
            weights[3] *= 1.0 + self.profile.quiz_propensity * self.edits_since_quiz
        else:
            weights[3] = 0.0
        if not any(weights):
            return ActionKind.READ
        return _weighted_choice(self.rng, self.CHOICE_KINDS, weights)

    # -- edit move selection --------------------------------------------------

    def _correct_candidates(self) -> list[tuple[tuple[str, str], Sign, Optional[CausalLink]]]:
        """Expert links from read pages that are absent or wrong-signed on the
        map, as (key, expert sign, link on the map or None) for _link_edit."""
        current = self.step.annotator.current_map.links
        return [(key, sign, mine) for key, sign in self._read_links
                if (mine := current.get(key)) is None or mine.sign is not sign]

    def _open_shortcuts(self) -> list[CausalLink]:
        current = self.step.annotator.current_map.links
        return [link for link in self._shortcuts if link.key not in current]

    def _links_by_correctness(self) -> tuple[list[CausalLink], list[CausalLink]]:
        """The map's links in key order, split into correct and incorrect."""
        current = self.step.annotator.current_map.links
        expert_signs = self._expert_signs
        correct, incorrect = [], []
        for key in sorted(current):
            link = current[key]
            if expert_signs.get(key) is link.sign:
                correct.append(link)
            else:
                incorrect.append(link)
        return correct, incorrect

    def _choose_edit(self) -> Optional[MapEdit]:
        """Pick the next link edit, or None when the drawn move kind has no
        candidates (the caller reads instead).

        A read_effectiveness draw decides whether the move raises the map
        score (add or sign-fix a read expert link, or delete a flawed link)
        or lowers it (add a flawed link, or delete a correct one), so the
        realized effective-edit share tracks the profile parameter."""
        if self.rng.random() < self.profile.read_effectiveness:
            return self._effective_move()
        return self._ineffective_move()

    def _effective_move(self) -> Optional[MapEdit]:
        correct = self._correct_candidates()
        correct_on_map, flawed_on_map = self._links_by_correctness()
        if correct and (not flawed_on_map or self.rng.random() < 0.7):
            return _link_edit(*self.rng.choice(correct))
        if flawed_on_map:
            victim = self.rng.choice(flawed_on_map)
            return MapEdit(MapEditAction.DELETE_LINK, source=victim.source, target=victim.target)
        # nothing raises the score: keep track of finished work instead
        unmarked = [l for l in correct_on_map if l.marking is Marking.UNMARKED]
        if unmarked:
            pick = self.rng.choice(unmarked)
            return MapEdit(
                MapEditAction.MARK_LINK,
                source=pick.source,
                target=pick.target,
                marking=Marking.MARKED_CORRECT,
            )
        return None

    def _ineffective_move(self) -> Optional[MapEdit]:
        correct_on_map, _ = self._links_by_correctness()
        if self.rng.random() < 0.8 or not correct_on_map:
            flawed = self._draw_flawed()
            if flawed is not None:
                return flawed
        if correct_on_map:
            victim = self.rng.choice(correct_on_map)
            return MapEdit(MapEditAction.DELETE_LINK, source=victim.source, target=victim.target)
        return None

    def _wrong_sign_edits(self) -> list[tuple[tuple[str, str], Sign, Optional[CausalLink]]]:
        """Add a read-page expert link with its sign flipped, or, when every
        one is on the map, flip the sign of a correctly-mapped one (a
        coherent but score-lowering revision); each candidate carries the
        expert sign, which the drawn edit flips."""
        current = self.step.annotator.current_map.links
        adds = [(key, sign, None) for key, sign in self._read_links if key not in current]
        if adds:
            return adds
        return [(key, sign, mine) for key, sign in self._read_links
                if (mine := current.get(key)) is not None and mine.sign is sign]

    def _draw_flawed(self) -> Optional[MapEdit]:
        """Draw a flawed link edit: a shortcut, a wrong sign or a wrong pair.

        A candidate list is built only when a draw reads it; building draws
        nothing, so the draws are those of building every list up front."""
        current = self.step.annotator.current_map.links
        if self.rng.random() < self.profile.shortcut_share:
            shortcuts = self._open_shortcuts()
            if shortcuts:
                return MapEdit(MapEditAction.ADD_LINK, link=self.rng.choice(shortcuts))
        wrong_sign = None
        if self.rng.random() < self.profile.wrong_sign_share:
            wrong_sign = self._wrong_sign_edits()
            if wrong_sign:
                key, sign, mine = self.rng.choice(wrong_sign)
                return _link_edit(key, sign.flipped(), mine)
        read_concepts = self._read_concepts
        expert_links = self.expert.links
        wrong_pair = []
        for s in read_concepts:
            for t in read_concepts:
                if s == t or (s, t) in current or (s, t) in expert_links:
                    continue
                sign = Sign.INCREASE if self.rng.random() < 0.5 else Sign.DECREASE
                candidate = CausalLink(source=s, target=t, sign=sign)
                if classify_link(candidate, self.expert) is LinkClass.INCORRECT:
                    wrong_pair.append(candidate)
                if len(wrong_pair) >= 4:
                    break
            if len(wrong_pair) >= 4:
                break
        if wrong_pair:
            return MapEdit(MapEditAction.ADD_LINK, link=self.rng.choice(wrong_pair))
        if wrong_sign is None:
            wrong_sign = self._wrong_sign_edits()
        if wrong_sign:
            key, sign, mine = self.rng.choice(wrong_sign)
            return _link_edit(key, sign.flipped(), mine)
        shortcuts = self._open_shortcuts()
        if shortcuts:
            return MapEdit(MapEditAction.ADD_LINK, link=self.rng.choice(shortcuts))
        return None

    # -- event emission ----------------------------------------------------------

    def _emit(self, kind: ActionKind, duration_model: DurationModel, **payload):
        """Append one event of kind, its duration drawn after every draw the
        caller made, and feed it through the session step."""
        event = ActionEvent(student_id=self.profile.student_id, timestamp=self.t, kind=kind,
                            duration=duration_model.draw(self.rng), **payload)
        self.events.append(event)
        self.time_per_kind[kind] += event.duration
        self.t = event.end
        _, released = self.step.feed(event)
        for delivery in released:
            self.deliveries.append(delivery)
            self._comply(delivery)

    def _do_read(self, page: Optional[str] = None):
        if page is None:
            # pages of the expert links absent or wrong-signed on the map
            current = self.step.annotator.current_map.links
            needed = sorted({
                link.source_page
                for key, link in self.expert.links.items()
                if (mine := current.get(key)) is None or mine.sign is not link.sign
            })
            if needed and self.rng.random() < 0.8:
                page = self.rng.choice(needed)
            else:
                page = self.rng.choice(self.pages)
        if page not in self._read_pages:
            self._read_pages.add(page)
            self._read_links = [
                (key, self._expert_signs[key])
                for p in sorted(self._read_pages)
                for key in sorted(self.expert.links_on_page(p))
            ]
            self._read_concepts = sorted({c for key, _ in self._read_links for c in key})
        self._emit(ActionKind.READ, self.profile.read_duration, page=page)

    def _do_notes(self):
        self.note_counter += 1
        self._emit(ActionKind.MAKE_NOTES, self.profile.note_duration,
                   note_id=f"n{self.note_counter}")

    def _do_edit(self, edit: Optional[MapEdit] = None):
        if edit is None:
            edit = self._choose_edit()
        if edit is None:
            self._do_read()
            return
        self.edits_since_quiz += 1
        self._emit(ActionKind.MAP_EDIT, self.profile.edit_duration, edit=edit)

    def _do_quiz(self):
        if self.rng.random() < 0.7 or not self.sections:
            scope = QuizScope.everything()
        else:
            scope = QuizScope.for_section(self.rng.choice(self.sections))
        self.edits_since_quiz = 0
        self._emit(ActionKind.TAKE_QUIZ, self.profile.quiz_duration, quiz_scope=scope)
        self._expl_burst()

    def _do_quiz_on_links(self):
        if self.step.annotator.current_map.links:
            self._do_quiz()

    def _expl_burst(self):
        """Review the answers of the quiz just taken until the explanation
        time share catches up.  The quiz is read, and so graded, only once
        the first review is due."""
        mix = self.profile.activity_mix[ActionKind.QUIZ_EXPL]
        n = 0
        while (
            n < 3
            and self.t < self.budget
            and self.time_per_kind[ActionKind.QUIZ_EXPL] < mix * sum(self.time_per_kind.values())
        ):
            if n == 0:
                quiz = self.step.last_quiz
                # the first incorrect answer, else the first question
                question = next(
                    (
                        i
                        for i, (q, answer) in enumerate(zip(quiz.questions, quiz.answers))
                        if answer is not q.expert_answer
                    ),
                    0,
                )
            self._emit(ActionKind.QUIZ_EXPL, self.profile.expl_duration, question_ref=question)
            n += 1

    def _do_mark(self, source: str, target: str, marking: Marking):
        link = self.step.annotator.current_map.get_link(source, target)
        if link is None or link.marking is marking:
            return
        self._emit(ActionKind.MAP_EDIT, MARK_DURATION,
                   edit=MapEdit(MapEditAction.MARK_LINK, source=source, target=target,
                                marking=marking))

    def _do_delete(self, source: str, target: str):
        if self.step.annotator.current_map.get_link(source, target) is None:
            return
        self._do_edit(MapEdit(MapEditAction.DELETE_LINK, source=source, target=target))

    # -- compliance ------------------------------------------------------------

    def _comply(self, delivery: ScaffoldDelivery):
        """Maybe queue the action a delivery asks for; the main loop runs it
        before drawing the next activity."""
        p = self.profile.scaffold_compliance.get(delivery.kind, 0.0)
        if p <= 0.0 or self.rng.random() >= p:
            return
        kind, hints = delivery.kind, delivery.target_hints
        if kind in (ScaffoldKind.HINT2, ScaffoldKind.ENC2):
            self.forced.append(self._do_quiz_on_links)
        elif kind is ScaffoldKind.HINT1:
            for link in self.step.annotator.current_map.sorted_links():
                if link.marking is Marking.UNMARKED and is_correct_link(link, self.expert):
                    self.forced.append(partial(self._do_mark, link.source, link.target,
                                               Marking.MARKED_CORRECT))
                    break
        elif kind is ScaffoldKind.HINT3 and hints and hints.source and hints.target:
            self.forced.append(partial(self._do_mark, hints.source, hints.target,
                                       Marking.MARKED_COULD_BE_WRONG))
        elif kind in (ScaffoldKind.HINT4, ScaffoldKind.HINT5) and hints and hints.source and hints.target:
            self.forced.append(partial(self._do_delete, hints.source, hints.target))
        elif kind is ScaffoldKind.HINT6 and hints and hints.page:
            self.forced.append(partial(self._do_read, hints.page))

    # -- main loop ----------------------------------------------------------------

    def run(self) -> SessionLog:
        profile = self.profile
        self._do_read()
        if profile.activity_mix[ActionKind.MAP_EDIT] > 0:
            # lay out every concept first so link edits can follow reads directly
            for concept in self.expert.map.sorted_concepts():
                if self.t >= self.budget:
                    break
                self._emit(ActionKind.MAP_EDIT, LAYOUT_DURATION,
                           edit=MapEdit(MapEditAction.ADD_CONCEPT, concept=concept))
        while self.t < self.budget:
            if self.forced:
                self.forced.popleft()()
                continue
            kind = self._choose_activity()
            if kind is ActionKind.READ:
                self._do_read()
            elif kind is ActionKind.MAKE_NOTES:
                self._do_notes()
            elif kind is ActionKind.MAP_EDIT:
                self._do_edit()
            else:
                self._do_quiz()
        session_end = self.events[-1].end
        self.deliveries.extend(self.step.finish(session_end))
        affect = _affect_stream(
            self.rng, profile, session_end, self.deliveries,
            self.step.engine.config if self.step.engine else None,
        )
        return SessionLog(
            student_id=profile.student_id,
            events=tuple(self.events),
            affect=tuple(affect),
            final_map=self.step.annotator.current_map,
            deliveries=tuple(self.deliveries),
            session_end=session_end,
        )


def _affect_stream(
    rng: random.Random,
    profile: StudentProfile,
    session_end: float,
    deliveries: Sequence[ScaffoldDelivery],
    engine_config: Optional[EngineConfig],
) -> list[AffectObservation]:
    """One observation per 20 s window: baseline plus jitter, with a small
    confusion bump in the windows after back-to-back deliveries."""
    bump_spans: list[tuple[float, float]] = []
    if engine_config is not None:
        ordered = sorted(deliveries, key=lambda d: d.timestamp)
        for prev, cur in zip(ordered, ordered[1:]):
            if cur.timestamp - prev.timestamp < engine_config.min_inter_scaffold_seconds:
                bump_spans.append((cur.timestamp, cur.timestamp + CONFUSION_BUMP_WINDOW))
    # the spans start in order and all have the same width, so they also end
    # in order: the first span not yet over at a window is the only candidate
    baselines = [(emotion, profile.affect_baseline[emotion], emotion is Emotion.CONFUSION)
                 for emotion in Emotion]
    student_id, draw = profile.student_id, rng.random
    count = math.ceil(session_end / AFFECT_PERIOD)
    observations = []
    span = 0
    for i in range(count):
        ts = i * AFFECT_PERIOD
        while span < len(bump_spans) and bump_spans[span][1] < ts:
            span += 1
        bumped = span < len(bump_spans) and bump_spans[span][0] <= ts
        likelihoods = {}
        for emotion, baseline, confusion in baselines:
            # rng.uniform(-0.02, 0.02) is -0.02 + (0.02 - -0.02) * random(), exactly
            value = baseline + (-0.02 + 0.04 * draw())
            if bumped and confusion:
                value += CONFUSION_BUMP
            value = round(value, 4)
            # min(1.0, max(0.0, value)), -0.0 included
            likelihoods[emotion] = 0.0 if value <= 0.0 else 1.0 if value > 1.0 else value
        observations.append(AffectObservation(student_id, ts, likelihoods))
    return observations


def _weighted_choice(rng: random.Random, population: Sequence, weights: Sequence[float]):
    """rng.choices(population, weights=weights)[0] by choices' own algorithm,
    one random() * total bisected into the accumulated weights."""
    cum_weights = list(accumulate(weights))
    return population[bisect(cum_weights, rng.random() * cum_weights[-1], 0, len(weights) - 1)]


def _link_edit(key: tuple[str, str], sign: Sign, mine: Optional[CausalLink]) -> MapEdit:
    """Add the link key with sign, or give mine, the map's link on that
    pair, that sign."""
    link = CausalLink(source=key[0], target=key[1], sign=sign)
    if mine is None:
        return MapEdit(MapEditAction.ADD_LINK, link=link)
    return MapEdit(MapEditAction.MODIFY_LINK, old=mine, new=link)


def simulate_session(
    profile: StudentProfile,
    expert: ExpertMap,
    duration_budget: float,
    engine: Optional[ScaffoldEngine] = None,
) -> SessionLog:
    if not 0 < duration_budget < math.inf:
        raise ValueError(f"duration_budget must be finite and positive, got {duration_budget}")
    return _Session(profile, expert, duration_budget, engine).run()


@record
class CohortResult:
    sessions: tuple[SessionLog, ...]
    grouping: dict[str, str]


def derive_seed(cohort_seed: int, student_id: str) -> int:
    """Stable per-student seed from the cohort seed (SHA-256 based, so it is
    identical across platforms and runs)."""
    digest = hashlib.sha256(f"{cohort_seed}:{student_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def simulate_cohort(
    n_high: int,
    n_low: int,
    seed: int,
    expert: ExpertMap,
    duration_budget: float = 1500.0,
    engine_config: Optional[EngineConfig] = None,
    profiles: Optional[dict[str, StudentProfile]] = None,
    trees: Optional[dict[ScaffoldKind, ConversationTree]] = None,
) -> CohortResult:
    """Simulate n_high + n_low students with derived per-student seeds.

    Pass an engine_config to run the scaffold engine in the loop; without
    one, sessions contain no deliveries.
    """
    if n_high < 1 or n_low < 1:
        raise ValueError("cohort needs at least one student per group")
    defaults = profiles or bundled_profiles()
    sessions = []
    grouping: dict[str, str] = {}
    for group, base, count in (("High", defaults["high"], n_high), ("Low", defaults["low"], n_low)):
        for i in range(count):
            student_id = f"{group.lower()}-{i:03d}"
            profile = replace(
                base, student_id=student_id, seed=derive_seed(seed, student_id)
            )
            engine = (
                ScaffoldEngine(student_id, expert, engine_config, trees=trees)
                if engine_config is not None
                else None
            )
            sessions.append(simulate_session(profile, expert, duration_budget, engine))
            grouping[student_id] = group
    return CohortResult(sessions=tuple(sessions), grouping=grouping)
