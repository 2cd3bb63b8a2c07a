"""verify_session on tampered sessions, and the quizzes it grades."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trigger_scripts as scripts
from mapcoach import verify
from mapcoach.annotate import ActionKind, MapEdit, MapEditAction
from mapcoach.engine import EngineConfig, ScaffoldKind
from mapcoach.pack import default_expert_map
from mapcoach.pipeline import replay_events
from mapcoach.simulate import simulate_cohort
from mapcoach.verify import verify_session


@pytest.fixture(scope="module")
def expert():
    return scripts.script_expert()


@pytest.fixture(scope="module")
def golden(expert):
    """kind -> (annotated log, deliveries, config) of each scripted session."""
    out = {}
    for kind, (events, config) in scripts.build_scripts(expert).items():
        result = replay_events(scripts.SID, events, expert, config)
        out[kind] = (list(result.annotated), list(result.deliveries), config)
    return out


def only(deliveries, kind):
    (delivery,) = [d for d in deliveries if d.kind is kind]
    return delivery


def label(delivery):
    return f"{delivery.kind.value}@{delivery.timestamp}"


def flip_link_edit(annotated, index):
    """The log with the add-link edit at index re-signed, its annotation kept."""
    event = annotated[index]
    link = event.base.edit.link
    edit = MapEdit(MapEditAction.ADD_LINK, link=replace(link, sign=link.sign.flipped()))
    tampered = list(annotated)
    tampered[index] = replace(event, base=replace(event.base, edit=edit))
    return tampered


def moved(delivery, annotated, prev_index, cur_index):
    """The delivery re-pointed at another pair of the log."""
    trigger = replace(
        delivery.trigger,
        prev_index=prev_index,
        cur_index=cur_index,
        prev_time=annotated[prev_index].timestamp,
        cur_time=annotated[cur_index].timestamp,
    )
    return replace(delivery, trigger=trigger, timestamp=annotated[cur_index].timestamp)


class TestTamperedSessions:
    def test_untampered_sessions_verify(self, expert, golden):
        for annotated, deliveries, config in golden.values():
            assert verify_session(annotated, deliveries, expert, config) == []

    def test_enc1_whose_quiz_did_not_improve(self, expert, golden):
        annotated, deliveries, config = golden[ScaffoldKind.ENC1]
        enc1 = only(deliveries, ScaffoldKind.ENC1)
        # the praised edit now adds b -> c with the wrong sign: the second
        # quiz scores no better than the first, though the log still says eff
        tampered = flip_link_edit(annotated, enc1.trigger.prev_index)
        assert verify_session(tampered, [enc1], expert, config) == [
            f"{label(enc1)}: quiz score did not improve on the previous quiz"
        ]

    def test_hint6_after_a_quiz_without_incorrect_answers(self, expert, golden):
        _, deliveries, _ = golden[ScaffoldKind.HINT6]
        hint6 = only(deliveries, ScaffoldKind.HINT6)
        # a session that maps every expert link, quizzes and then reads long
        s = scripts._Script().concepts(expert).read("pa", 30.0)
        for link in expert.map.sorted_links():
            s.add(link.source, link.target, link.sign)
        s.quiz().read("pb", 90.0)
        config = EngineConfig()
        result = replay_events(scripts.SID, s.events, expert, config)
        assert not any(d.kind is ScaffoldKind.HINT6 for d in result.deliveries)
        annotated = list(result.annotated)
        quiz = len(annotated) - 2
        assert annotated[quiz].kind is ActionKind.TAKE_QUIZ
        planted = moved(hint6, annotated, quiz, quiz + 1)
        assert verify_session(annotated, [planted], expert, config) == [
            f"{label(planted)}: preceding quiz has no incorrect answers"
        ]

    def test_hint1_armed_by_a_quiz_without_correct_answers(self, expert, golden):
        annotated, deliveries, config = golden[ScaffoldKind.HINT1]
        hint1 = only(deliveries, ScaffoldKind.HINT1)
        arm = hint1.trigger.prev_index
        # the arming quiz follows a -> b added with the wrong sign instead
        tampered = flip_link_edit(annotated, arm - 1)
        assert verify_session(tampered, [hint1], expert, config) == [
            f"{label(hint1)}: arming quiz has no correct answers"
        ]

    @pytest.mark.parametrize("kind", [ScaffoldKind.HINT2, ScaffoldKind.ENC1])
    def test_non_adjacent_trigger_indices(self, expert, golden, kind):
        annotated, deliveries, config = golden[kind]
        real = only(deliveries, kind)
        i = real.trigger.prev_index - 1
        planted = replace(real, trigger=replace(real.trigger, prev_index=i))
        assert verify_session(annotated, [planted], expert, config) == [
            f"{label(planted)}: trigger indices ({i}, {i + 2}) are not an adjacent pair"
        ]


class TestOnDemandGrading:
    def test_grades_only_the_quizzes_its_checks_read(self, monkeypatch):
        expert = default_expert_map()
        config = EngineConfig(min_inter_scaffold_seconds=15.0)
        cohort = simulate_cohort(2, 2, seed=7, expert=expert, duration_budget=1500.0,
                                 engine_config=config)
        graded = []
        grade_quiz = verify.grade_quiz

        def counting(student, questions, scope):
            graded.append(student)
            return grade_quiz(student, questions, scope=scope)

        monkeypatch.setattr(verify, "grade_quiz", counting)
        total_quizzes = total_read = 0
        for session in cohort.sessions:
            result = replay_events(session.student_id, session.events, expert, config)
            annotated = result.annotated
            quizzes = [i for i, e in enumerate(annotated) if e.kind is ActionKind.TAKE_QUIZ]

            def previous(index):
                earlier = [q for q in quizzes if q < index]
                return earlier[-1] if earlier else None

            read = set()
            for d in result.deliveries:
                if d.kind is ScaffoldKind.HINT6:
                    read.add(d.trigger.prev_index)
                elif d.kind in (ScaffoldKind.ENC1, ScaffoldKind.HINT1):
                    quiz = d.trigger.cur_index if d.kind is ScaffoldKind.ENC1 else d.trigger.prev_index
                    read |= {quiz, previous(quiz)} - {None}
            graded.clear()
            assert verify_session(annotated, result.deliveries, expert, config) == []
            assert len(graded) == len(read)
            total_quizzes += len(quizzes)
            total_read += len(read)
        assert 0 < total_read < total_quizzes


@st.composite
def engine_configs(draw):
    return EngineConfig(
        min_inter_scaffold_seconds=draw(st.floats(0.5, 200.0)),
        hint1_window_events=draw(st.integers(1, 20)),
        hint1_window_seconds=draw(st.floats(1.0, 900.0)),
        long_threshold=draw(st.floats(5.0, 300.0)),
        enc3_every=draw(st.integers(1, 7)),
        disabled_kinds=draw(st.frozensets(st.sampled_from(list(ScaffoldKind)))),
    )


class TestConfigSpace:
    @settings(max_examples=100, deadline=None)
    @given(
        config=engine_configs(),
        seed=st.integers(0, 10**6),
        budget=st.floats(300.0, 1200.0),
    )
    def test_replay_gives_the_in_loop_deliveries_and_they_verify(
        self, pack, config, seed, budget
    ):
        cohort = simulate_cohort(
            2, 2, seed=seed, expert=pack, duration_budget=budget, engine_config=config
        )
        for session in cohort.sessions:
            result = replay_events(session.student_id, session.events, pack, config)
            assert result.deliveries == session.deliveries
            assert not {d.kind for d in result.deliveries} & config.disabled_kinds
            assert verify_session(result.annotated, result.deliveries, pack, config) == []
