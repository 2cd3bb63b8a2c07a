"""verify_session on tampered sessions, under single-delivery mutations and
random configs, the quizzes it grades, and what it imports."""

import ast
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import trigger_scripts as scripts
from mapcoach import causal, pipeline, verify
from mapcoach.annotate import ActionKind, Effectiveness, MapEdit, MapEditAction
from mapcoach.engine import EngineConfig, ScaffoldKind
from mapcoach.pack import default_expert_map
from mapcoach.pipeline import SessionStep, replay_events
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


def line(verdict, delivery):
    """verify_session's line for a delivery that is missing or not due."""
    t = delivery.trigger
    return (
        f"{verdict}: {delivery.kind.value}@{delivery.timestamp}: {t.rule} on events "
        f"({t.prev_index}, {t.cur_index}) at ({t.prev_time}, {t.cur_time})"
    )


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


def rekinded(delivery, kind):
    return replace(delivery, kind=kind, agent=kind.agent)


class TestTamperedSessions:
    def test_untampered_sessions_verify(self, expert, golden):
        for annotated, deliveries, config in golden.values():
            assert verify_session(annotated, deliveries, expert, config) == []

    def test_enc1_whose_quiz_did_not_improve(self, expert, golden):
        annotated, deliveries, config = golden[ScaffoldKind.ENC1]
        enc1 = only(deliveries, ScaffoldKind.ENC1)
        # the praised edit now adds b -> c with the wrong sign: the second
        # quiz scores no better than the first, though the log still says
        # eff, so it arms a hint1 that the session ends too soon to deliver
        tampered = flip_link_edit(annotated, enc1.trigger.prev_index)
        assert verify_session(tampered, deliveries, expert, config) == [line("not due", enc1)]

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
        recorded = [*result.deliveries, planted]
        assert verify_session(annotated, recorded, expert, config) == [line("not due", planted)]

    def test_hint1_armed_by_a_quiz_without_correct_answers(self, expert, golden):
        annotated, deliveries, config = golden[ScaffoldKind.HINT1]
        hint1 = only(deliveries, ScaffoldKind.HINT1)
        arm = hint1.trigger.prev_index
        # the arming quiz follows a -> b added with the wrong sign instead
        tampered = flip_link_edit(annotated, arm - 1)
        assert verify_session(tampered, deliveries, expert, config) == [line("not due", hint1)]

    @pytest.mark.parametrize("kind", [ScaffoldKind.HINT2, ScaffoldKind.ENC1])
    def test_non_adjacent_trigger_indices(self, expert, golden, kind):
        annotated, deliveries, config = golden[kind]
        real = only(deliveries, kind)
        planted = replace(real, trigger=replace(real.trigger, prev_index=real.trigger.prev_index - 1))
        assert verify_session(annotated, [planted], expert, config) == [
            line("missing", real), line("not due", planted)
        ]

    @pytest.mark.parametrize("kind", list(ScaffoldKind))
    def test_an_empty_record_misses_the_due_delivery(self, expert, golden, kind):
        annotated, deliveries, config = golden[kind]
        assert verify_session(annotated, [], expert, config) == [line("missing", only(deliveries, kind))]

    @pytest.mark.parametrize(
        "kind, swapped", [(ScaffoldKind.HINT5, ScaffoldKind.ENC3), (ScaffoldKind.ENC3, ScaffoldKind.HINT5)]
    )
    def test_the_alternation_decides_between_hint5_and_enc3(self, expert, golden, kind, swapped):
        annotated, deliveries, config = golden[kind]
        real = only(deliveries, kind)
        planted = rekinded(real, swapped)
        assert verify_session(annotated, [planted], expert, config) == [
            line("missing", real), line("not due", planted)
        ]

    def test_a_disabled_kind_still_holds_the_window(self, expert, golden):
        # a long read, then a wrong-signed a -> b (hint2); 17 s later a long
        # read, then the correct b -> c (enc2), inside the hint2's window
        s = scripts._Script().concepts(expert).read("pa", 12.0).add("a", "b", scripts.DEC)
        s.read("pb", 12.0).add("b", "c", scripts.INC)
        config = EngineConfig(long_threshold=10.0, disabled_kinds=frozenset({ScaffoldKind.HINT2}))
        result = replay_events(scripts.SID, s.events, expert, config)
        assert result.deliveries == ()
        annotated = list(result.annotated)
        planted = moved(only(golden[ScaffoldKind.ENC2][1], ScaffoldKind.ENC2), annotated,
                        len(annotated) - 2, len(annotated) - 1)
        assert verify_session(annotated, [planted], expert, config) == [line("not due", planted)]
        enabled = replace(config, disabled_kinds=frozenset())
        (hint2,) = replay_events(scripts.SID, s.events, expert, enabled).deliveries
        assert hint2.kind is ScaffoldKind.HINT2
        assert verify_session(annotated, [hint2], expert, enabled) == []


class TestOnDemandGrading:
    def test_grades_only_the_quizzes_its_checks_read(self, monkeypatch):
        """Replay's step grades the quizzes the engine reads and verify the
        ones its checks read, each through one call of causal.grade_quiz."""
        expert = default_expert_map()
        config = EngineConfig(min_inter_scaffold_seconds=15.0)
        cohort = simulate_cohort(2, 2, seed=7, expert=expert, duration_budget=1500.0,
                                 engine_config=config)
        graded = []
        grade_quiz = causal.grade_quiz

        def counting(student, questions, scope):
            graded.append(student)
            return grade_quiz(student, questions, scope=scope)

        monkeypatch.setattr(causal, "grade_quiz", counting)
        total_quizzes = total_read = total_replayed = 0
        for session in cohort.sessions:
            graded.clear()
            result = replay_events(session.student_id, session.events, expert, config)
            replayed = len(graded)
            annotated = result.annotated
            # each quiz's correct-answer count, read from a step without an engine
            step = SessionStep(expert)
            has_correct = {}
            for i, event in enumerate(session.events):
                step.feed(event)
                if event.kind is ActionKind.TAKE_QUIZ:
                    has_correct[i] = step.last_quiz.n_correct >= 1
            quizzes = sorted(has_correct)
            read = set()
            for j in range(1, len(annotated)):
                prev, cur = annotated[j - 1], annotated[j]
                if (prev.kind is ActionKind.MAP_EDIT and prev.effectiveness is Effectiveness.EFF
                        and cur.kind is ActionKind.TAKE_QUIZ):
                    read.add(j)
                    earlier = [q for q in quizzes if q < j]
                    if has_correct[j] and earlier:
                        read.add(earlier[-1])
                elif prev.kind is ActionKind.TAKE_QUIZ and cur.kind is ActionKind.READ and cur.long:
                    read.add(j - 1)
            # the engine also reads the quiz that a hint5 names a link from
            hint5 = {d.trigger.cur_index for d in result.deliveries if d.kind is ScaffoldKind.HINT5}
            assert replayed == len(read | hint5)
            graded.clear()
            assert verify_session(annotated, result.deliveries, expert, config) == []
            assert len(graded) == len(read)
            total_quizzes += len(quizzes)
            total_read += len(read)
            total_replayed += replayed
        assert (total_read, total_replayed, total_quizzes) == (17, 17, 31)
        assert total_read <= total_replayed < total_quizzes


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

    @settings(max_examples=40, deadline=None)
    @given(
        config=engine_configs(),
        seed=st.integers(0, 10**6),
        budget=st.floats(300.0, 1200.0),
    )
    def test_grading_every_quiz_when_taken_changes_no_decision(
        self, pack, config, seed, budget
    ):
        """The step grades a quiz only when it is read; a step that reads
        every quiz's answers as soon as it takes the quiz annotates and
        delivers the same."""

        def read_at_once(student, questions, scope):
            quiz = causal.QuizResult(student, questions, scope)
            quiz.answers
            return quiz

        cohort = simulate_cohort(
            2, 2, seed=seed, expert=pack, duration_budget=budget, engine_config=config
        )
        for session in cohort.sessions:
            lazy = replay_events(session.student_id, session.events, pack, config)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pipeline, "QuizResult", read_at_once)
                eager = replay_events(session.student_id, session.events, pack, config)
            assert eager.annotated == lazy.annotated
            assert eager.deliveries == lazy.deliveries


class TestMutations:
    """A single changed delivery in a verified record never verifies."""

    @settings(max_examples=200, deadline=None)
    @given(
        config=engine_configs(),
        seed=st.integers(0, 10**6),
        how=st.sampled_from(["drop", "duplicate", "move", "rekind"]),
        data=st.data(),
    )
    def test_every_single_delivery_mutation_is_a_violation(self, pack, config, seed, how, data):
        cohort = simulate_cohort(1, 1, seed=seed, expert=pack, duration_budget=900.0,
                                 engine_config=config)
        result = max(
            (replay_events(s.student_id, s.events, pack, config) for s in cohort.sessions),
            key=lambda r: len(r.deliveries),
        )
        annotated, deliveries = list(result.annotated), list(result.deliveries)
        assert verify_session(annotated, deliveries, pack, config) == []
        assume(len(deliveries) >= (2 if how == "move" else 1))
        k = data.draw(st.integers(1 if how == "move" else 0, len(deliveries) - 1), label="k")
        target = deliveries[k]
        if how == "drop":
            mutated = deliveries[:k] + deliveries[k + 1:]
        elif how == "duplicate":
            mutated = deliveries[: k + 1] + deliveries[k:]
        elif how == "move":
            # onto another pair of events inside the predecessor's window
            start = deliveries[k - 1].timestamp
            window = [
                m for m in range(1, len(annotated))
                if start <= annotated[m].timestamp < start + config.min_inter_scaffold_seconds
                and m != target.trigger.cur_index
            ]
            assume(window)
            m = data.draw(st.sampled_from(window), label="m")
            mutated = deliveries[:k] + [moved(target, annotated, m - 1, m)] + deliveries[k + 1:]
        else:
            swap = {ScaffoldKind.HINT5: ScaffoldKind.ENC3, ScaffoldKind.ENC3: ScaffoldKind.HINT5}
            kind = swap.get(target.kind) or data.draw(
                st.sampled_from([kind for kind in ScaffoldKind if kind is not target.kind]),
                label="kind",
            )
            mutated = deliveries[:k] + [rekinded(target, kind)] + deliveries[k + 1:]
        assert verify_session(annotated, mutated, pack, config) != []


def test_verify_imports_no_engine_or_pipeline_code():
    """verify stays an independent reference: from the engine it takes only
    the config and the delivery record's types, and it imports nothing
    from the pipeline or the simulator that drive the engine."""
    tree = ast.parse(Path(verify.__file__).read_text())
    from_engine = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            whole = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module
            if node.level:
                module = "mapcoach" + (f".{module}" if module else "")
            whole = [f"mapcoach.{alias.name}" for alias in node.names] if module == "mapcoach" else []
            assert module not in ("mapcoach.pipeline", "mapcoach.simulate"), module
            if module == "mapcoach.engine":
                from_engine |= {alias.name for alias in node.names}
        else:
            continue
        assert not {"mapcoach.engine", "mapcoach.pipeline", "mapcoach.simulate"} & set(whole), whole
    assert from_engine == {"EngineConfig", "ScaffoldDelivery", "ScaffoldKind"}
