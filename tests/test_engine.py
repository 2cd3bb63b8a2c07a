import random
from dataclasses import replace
from string import Template

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import trigger_scripts as scripts
from mapcoach.annotate import (
    PROCESS_FOR_KIND,
    ActionEvent,
    ActionKind,
    AnnotatedEvent,
    Effectiveness,
    MapEdit,
    MapEditAction,
    annotate_session,
)
from mapcoach.causal import (
    CausalLink,
    CausalMap,
    Concept,
    EmptyQuiz,
    ExpertMap,
    Grade,
    Marking,
    QueryAnswer,
    QuizQuestion,
    QuizScope,
    generate_quiz,
    grade_quiz,
    is_correct_link,
)
from mapcoach.engine import (
    Agent,
    ConversationNode,
    ConversationTree,
    EngineConfig,
    MalformedTree,
    ResponseOption,
    ScaffoldEngine,
    ScaffoldKind,
    TargetHints,
    _link_hints,
    default_trees,
    delivery_counts,
    first_option,
    run_conversation,
)
from mapcoach.pipeline import SessionStep, replay_events
from mapcoach.verify import verify_session


@pytest.fixture(scope="module")
def expert():
    return scripts.script_expert()


@pytest.fixture(scope="module")
def golden(expert):
    return scripts.build_scripts(expert)


class TestConversationTrees:
    def test_bundled_trees_validate(self):
        trees = default_trees()
        assert set(trees) == set(ScaffoldKind)

    def test_node_without_exit_rejected(self):
        with pytest.raises(MalformedTree):
            ConversationTree(
                "n1",
                [
                    ConversationNode("n1", "hi", (ResponseOption("loop", "n2"),)),
                    ConversationNode("n2", "again", (ResponseOption("bye", None),)),
                ],
            )

    def test_unreachable_node_rejected(self):
        with pytest.raises(MalformedTree):
            ConversationTree(
                "n1",
                [
                    ConversationNode("n1", "hi", (ResponseOption("bye", None),)),
                    ConversationNode("n2", "lost", (ResponseOption("bye", None),)),
                ],
            )

    def test_dangling_target_rejected(self):
        with pytest.raises(MalformedTree):
            ConversationTree(
                "n1",
                [ConversationNode("n1", "hi", (ResponseOption("go", "missing"),
                                               ResponseOption("bye", None)))],
            )

    def test_cycle_rejected(self):
        with pytest.raises(MalformedTree):
            ConversationTree(
                "n1",
                [
                    ConversationNode("n1", "a", (ResponseOption("to n2", "n2"),
                                                 ResponseOption("bye", None))),
                    ConversationNode("n2", "b", (ResponseOption("back", "n1"),
                                                 ResponseOption("bye", None))),
                ],
            )

    def test_single_node_walk(self):
        tree = ConversationTree(
            "n1", [ConversationNode("n1", "hello", (ResponseOption("bye", None),))]
        )
        transcript = run_conversation(tree)
        assert len(transcript) == 1
        assert transcript[0].response == "bye"

    def test_hint5_walk_progresses_to_specifics(self):
        tree = default_trees()[ScaffoldKind.HINT5]
        transcript = run_conversation(
            tree, first_option, {"concept": "heat_loss", "source": "heat_loss", "target": "body_temperature"}
        )
        assert [s.node for s in transcript] == ["h5-1", "h5-2", "h5-3"]
        assert "heat_loss" in transcript[1].prompt
        assert "body_temperature" in transcript[2].prompt

    def test_templates_fall_back_when_hints_missing(self):
        tree = default_trees()[ScaffoldKind.HINT6]
        transcript = run_conversation(tree)
        assert "$" not in transcript[0].prompt

    def test_walk_is_deterministic(self):
        tree = default_trees()[ScaffoldKind.HINT5]
        a = run_conversation(tree, first_option, {"concept": "x"})
        b = run_conversation(tree, first_option, {"concept": "x"})
        assert a == b

    def test_prompts_render_as_template_substitution(self):
        prompts = [
            "It costs $$5 to ask about $concept.",
            "${concept} and ${missing}, then $",
            "No placeholder here.",
            "$$",
        ]
        tree = ConversationTree(
            "n0",
            [
                ConversationNode(
                    f"n{i}",
                    prompt,
                    (ResponseOption("next", f"n{i + 1}"), ResponseOption("bye", None))
                    if i + 1 < len(prompts)
                    else (ResponseOption("bye", None),),
                )
                for i, prompt in enumerate(prompts)
            ],
        )
        transcript = run_conversation(tree, first_option, {"concept": "heat"})
        assert [step.prompt for step in transcript] == [
            "It costs $5 to ask about heat.",
            "heat and ${missing}, then $",
            "No placeholder here.",
            "$",
        ]
        assert transcript[2].prompt is prompts[2]
        variables = {"concept": "heat"}
        assert [step.prompt for step in transcript] == [
            Template(p).safe_substitute(variables) for p in prompts
        ]

    def test_agent_assignment(self):
        betty = {ScaffoldKind.HINT2, ScaffoldKind.ENC1, ScaffoldKind.ENC3}
        for kind in ScaffoldKind:
            expected = Agent.BETTY if kind in betty else Agent.MR_DAVIS
            assert kind.agent is expected


class TestGoldenTriggers:
    @pytest.mark.parametrize("kind", list(ScaffoldKind), ids=lambda k: k.value)
    def test_each_kind_fires_exactly_once(self, expert, golden, kind):
        events, config = golden[kind]
        result = replay_events(scripts.SID, events, expert, config)
        assert [d.kind for d in result.deliveries] == [kind]

    def test_window_violation_fires_exactly_once(self, expert):
        events, config = scripts.suppression_script(expert)
        result = replay_events(scripts.SID, events, expert, config)
        assert [d.kind for d in result.deliveries] == [ScaffoldKind.HINT2]

    def test_hint1_delivered_at_window_expiry(self, expert, golden):
        events, config = golden[ScaffoldKind.HINT1]
        quiz_time = next(e.timestamp for e in events if e.kind.value == "take_quiz")
        result = replay_events(scripts.SID, events, expert, config)
        assert result.deliveries[0].timestamp == quiz_time + config.hint1_window_seconds

    def test_hint1_canceled_by_marking(self, expert):
        s = scripts._Script().concepts(expert).read("pa", 30.0).add("a", "b", scripts.INC).quiz()
        s.mark("a", "b", Marking.MARKED_CORRECT)
        s.read("pa", 30.0, at=s.t + 300.0)
        result = replay_events(scripts.SID, s.events, expert, EngineConfig())
        assert result.deliveries == ()

    def test_hint1_fires_by_event_window(self, expert):
        config = EngineConfig(hint1_window_events=2)
        s = scripts._Script().concepts(expert).read("pa", 30.0).add("a", "b", scripts.INC).quiz()
        s.note(2.0).note(2.0).note(2.0)
        result = replay_events(scripts.SID, s.events, expert, config)
        assert [d.kind for d in result.deliveries] == [ScaffoldKind.HINT1]
        second_event_after_quiz = s.events[-2]
        assert result.deliveries[0].timestamp == second_event_after_quiz.timestamp

    def test_hint1_names_the_least_key_link_behind_the_first_correct_answer(self):
        # the quiz's one question, m -> z, is answered by two student paths,
        # m -> b -> z and m -> c -> z; the least-key link on them, b -> z,
        # does not leave the question's source, and b -> m, on no path,
        # has a lesser key still
        concepts = [Concept(id=i, name=i.upper(), section="s") for i in "bcmz"]
        expert = ExpertMap(
            CausalMap(concepts, [CausalLink("m", "z", scripts.INC, source_page="pm")])
        )
        s = scripts._Script().concepts(expert).read("pm", 30.0)
        for pair in ("mb", "bz", "mc", "cz", "bm", "bc"):
            s.add(pair[0], pair[1], scripts.INC)
        # deleting the flawed b -> c is the effective edit that precedes the quiz
        s._emit(
            ActionKind.MAP_EDIT, 5.0,
            edit=MapEdit(MapEditAction.DELETE_LINK, source="b", target="c"),
        )
        s.quiz()
        s.read("pm", 30.0, at=s.t + 125.0)
        result = replay_events(scripts.SID, s.events, expert, EngineConfig())
        assert [d.kind for d in result.deliveries] == [ScaffoldKind.HINT1]
        hints = result.deliveries[0].target_hints
        assert (hints.source, hints.target) == ("b", "z")

    def test_hint5_then_hint6_chain_is_exempt(self, expert):
        s = (
            scripts._Script()
            .concepts(expert)
            .read("pa", 30.0)
            .add("a", "b", scripts.INC)
            .mark("a", "b", Marking.MARKED_COULD_BE_WRONG)
            .modify(
                scripts._link("a", "b", scripts.INC),
                scripts._link("a", "b", scripts.DEC),
            )
            .quiz()
            .read("pb", 90.0)
        )
        result = replay_events(scripts.SID, s.events, expert, EngineConfig())
        assert [d.kind for d in result.deliveries] == [ScaffoldKind.HINT5, ScaffoldKind.HINT6]
        gap = result.deliveries[1].timestamp - result.deliveries[0].timestamp
        assert gap < EngineConfig().min_inter_scaffold_seconds

    def test_hint5_names_an_incorrect_link(self, expert, golden):
        events, config = golden[ScaffoldKind.HINT5]
        result = replay_events(scripts.SID, events, expert, config)
        hints = result.deliveries[0].target_hints
        assert (hints.source, hints.target) == ("a", "b")

    def test_hint6_names_page_of_broken_expert_link(self, expert, golden):
        events, config = golden[ScaffoldKind.HINT6]
        result = replay_events(scripts.SID, events, expert, config)
        hints = result.deliveries[0].target_hints
        assert hints.page == "pa"  # a->b is wrong-signed on the student map

    def test_hint4_fires_only_for_shortcut_edits(self, expert, golden):
        events, config = golden[ScaffoldKind.HINT4]
        result = replay_events(scripts.SID, events, expert, config)
        assert result.deliveries[0].trigger.detail == {"case": "shortcut"}

    def test_out_of_order_event_rejected(self, expert):
        from mapcoach.engine import OutOfOrderEvent

        engine = ScaffoldEngine("s", expert, EngineConfig())
        fresh = annotate_session(
            [scripts._Script().read("pa", 30.0, at=10.0).events[0]], expert
        )[0]
        engine.observe(fresh, None, None)
        stale = annotate_session(
            [scripts._Script().read("pa", 5.0, at=4.0).events[0]], expert
        )[0]
        with pytest.raises(OutOfOrderEvent):
            engine.observe(stale, None, None)


# Every annotated event shape the engine can be shown: (kind, effectiveness,
# long).  The edits are marks "could be wrong": they add no link since the
# previous quiz and are no shortcut, so of the ineffective edit -> quiz cases
# only the alternation one can apply, and its first occasion is a hint5.
SHAPES = {
    "read-long": (ActionKind.READ, Effectiveness.NEUTRAL, True),
    "read-short": (ActionKind.READ, Effectiveness.NEUTRAL, False),
    "note": (ActionKind.MAKE_NOTES, Effectiveness.NEUTRAL, False),
    "edit-eff": (ActionKind.MAP_EDIT, Effectiveness.EFF, False),
    "edit-ineff": (ActionKind.MAP_EDIT, Effectiveness.INEFF, False),
    "edit-neutral": (ActionKind.MAP_EDIT, Effectiveness.NEUTRAL, False),
    "quiz": (ActionKind.TAKE_QUIZ, Effectiveness.NEUTRAL, False),
    "quiz-expl": (ActionKind.QUIZ_EXPL, Effectiveness.NEUTRAL, False),
}

# The quiz graded last when the pair is seen: (links on the map of an
# earlier quiz, links on the map of the quiz taken at the pair, what the
# latter shows).  None: no quiz graded.  The questions are a -> b and a -> d.
_HALF = (("a", "b", scripts.INC),)
_FULL = (("a", "b", scripts.INC), ("a", "d", scripts.DEC))
QUIZZES = {
    "no-quiz": (None, None, set()),
    "all-wrong": (None, (), {"incorrect"}),
    "mixed": (None, _HALF, {"incorrect", "correct"}),
    "mixed-improved": ((), _HALF, {"incorrect", "correct", "improved"}),
    "all-right": (_FULL, _FULL, {"correct"}),
    "all-right-improved": (_HALF, _FULL, {"correct", "improved"}),
}

# README "Scaffold triggers", one row per rule: previous shape, current
# shape, what the quiz graded last must show and must not show, the kind
# that fires.  hint1 is armed at the pair and delivered when its window
# runs out.
TRIGGER_TABLE = [
    ("read-long", "edit-ineff", set(), set(), ScaffoldKind.HINT2),
    ("read-long", "edit-eff", set(), set(), ScaffoldKind.ENC2),
    ("edit-ineff", "quiz", set(), set(), ScaffoldKind.HINT5),
    ("quiz", "read-long", {"incorrect"}, set(), ScaffoldKind.HINT6),
    ("edit-eff", "quiz", {"correct"}, {"improved"}, ScaffoldKind.HINT1),
    ("edit-eff", "quiz", {"improved"}, set(), ScaffoldKind.ENC1),
]


def _table_kinds(prev: str, cur: str, quiz: str) -> list:
    shows = QUIZZES[quiz][2]
    return [kind for p, c, needs, excludes, kind in TRIGGER_TABLE
            if (p, c) == (prev, cur) and needs <= shows and not excludes & shows]


def _shaped(shape: str, t: float) -> AnnotatedEvent:
    kind, effectiveness, long = SHAPES[shape]
    payload = {
        ActionKind.READ: {"page": "pa"},
        ActionKind.MAKE_NOTES: {"note_id": "n1"},
        ActionKind.MAP_EDIT: {"edit": MapEdit(MapEditAction.MARK_LINK, source="a", target="b",
                                              marking=Marking.MARKED_COULD_BE_WRONG)},
        ActionKind.TAKE_QUIZ: {"quiz_scope": QuizScope.everything()},
        ActionKind.QUIZ_EXPL: {"question_ref": 0},
    }[kind]
    base = ActionEvent(scripts.SID, t, kind, 90.0 if long else 10.0, **payload)
    return AnnotatedEvent(base, PROCESS_FOR_KIND[kind], effectiveness, long, 0)


def _graded(expert, links):
    student = CausalMap(expert.map.concepts.values(),
                        [CausalLink(s, t, sign) for s, t, sign in links or ()])
    questions = (QuizQuestion("a", "b", QueryAnswer.TARGET_INCREASES),
                 QuizQuestion("a", "d", QueryAnswer.TARGET_DECREASES))
    return student, None if links is None else grade_quiz(student, questions)


class TestTriggerTable:
    """Every (previous event, current event) shape, under every kind of quiz
    graded last, fires what README's trigger table says, or nothing."""

    @pytest.mark.parametrize("prev", SHAPES)
    @pytest.mark.parametrize("cur", SHAPES)
    def test_pair_fires_what_the_table_says(self, expert, prev, cur):
        config = EngineConfig()
        fired, expected = {}, {}
        for quiz, (earlier_links, links, shows) in QUIZZES.items():
            student, graded = _graded(expert, links)
            earlier = _graded(expert, earlier_links)[1]
            if graded is not None:
                assert shows == {fact for fact, holds in (
                    ("incorrect", graded.n_incorrect >= 1),
                    ("correct", graded.n_correct >= 1),
                    ("improved", earlier is not None and graded.score > earlier.score),
                ) if holds}
            # an earlier quiz and a note lead in; neither pair they make fires
            steps = [] if earlier is None else [("quiz", 0.0, earlier)]
            steps += [("note", 100.0, earlier),
                      (prev, 200.0, graded if prev == "quiz" else earlier),
                      (cur, 300.0, graded if "quiz" in (prev, cur) else earlier)]
            engine = ScaffoldEngine(scripts.SID, expert, config)
            released = [d for shape, t, last in steps
                        for d in engine.observe(_shaped(shape, t), student, last)]
            released += engine.finalize(300.0 + config.hint1_window_seconds)
            fired[quiz] = [d.kind for d in released]
            expected[quiz] = _table_kinds(prev, cur, quiz)
        assert fired == expected


def _incorrect_items(quiz):
    return [item for item in quiz.items if item.grade is Grade.INCORRECT]


class _ItemsEngine(ScaffoldEngine):
    """hint5's and hint6's target choices written over the quiz items graded
    incorrect."""

    def _hint5_targets(self, student_map, quiz):
        if quiz is None:
            return None
        concepts = set()
        for item in _incorrect_items(quiz):
            concepts.add(item.question.source)
            concepts.add(item.question.target)
        candidates = [
            link
            for link in student_map.sorted_links()
            if (link.source in concepts or link.target in concepts)
            and not is_correct_link(link, self.expert)
        ]
        if not candidates:
            return None
        pick = next((l for l in candidates if l.key != self._last_hint5_pair), candidates[0])
        self._last_hint5_pair = pick.key
        return _link_hints(pick)

    def _hint6_targets(self, student_map, quiz):
        for item in _incorrect_items(quiz):
            q = item.question
            for expert_link in self.expert.paths(q.source, q.target).links:
                student_link = student_map.links.get(expert_link.key)
                if student_link is None or student_link.sign is not expert_link.sign:
                    return TargetHints(
                        concept=expert_link.source,
                        page=expert_link.source_page,
                        source=expert_link.source,
                        target=expert_link.target,
                    )
        return None


class TestQuizTargets:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000))
    def test_targets_equal_the_incorrect_items_version(self, seed):
        rng = random.Random(seed)
        expert = oracles.random_expert(rng, max_concepts=7, max_links=12)
        try:
            bank = generate_quiz(expert)
        except EmptyQuiz:
            bank = []
        ids = sorted(expert.concepts) + ["absent"]
        engine = ScaffoldEngine("s", expert)
        reference = _ItemsEngine("s", expert)
        for _ in range(6):
            student = oracles.random_map(rng, max_concepts=7, max_links=14)
            questions = rng.sample(bank, rng.randint(0, len(bank))) + [
                QuizQuestion(rng.choice(ids), rng.choice(ids), rng.choice(list(QueryAnswer)))
                for _ in range(rng.randint(1, 4))
            ]
            quiz = grade_quiz(student, questions) if rng.random() < 0.9 else None
            assert engine._hint5_targets(student, quiz) == reference._hint5_targets(
                student, quiz
            )
            assert engine._last_hint5_pair == reference._last_hint5_pair
            if quiz is not None:
                assert engine._hint6_targets(student, quiz) == reference._hint6_targets(
                    student, quiz
                )


class TestEngineProperties:
    def test_determinism(self, expert, golden):
        import mapcoach.logio as logio

        for kind, (events, config) in golden.items():
            a = replay_events(scripts.SID, events, expert, config).deliveries
            b = replay_events(scripts.SID, events, expert, config).deliveries
            assert [logio.delivery_to_record(d) for d in a] == [
                logio.delivery_to_record(d) for d in b
            ]

    def test_disabling_one_kind_leaves_others_untouched(self, expert):
        s = (
            scripts._Script()
            .concepts(expert)
            .read("pa", 30.0)
            .add("a", "b", scripts.INC)
            .mark("a", "b", Marking.MARKED_COULD_BE_WRONG)
            .modify(
                scripts._link("a", "b", scripts.INC),
                scripts._link("a", "b", scripts.DEC),
            )
            .quiz()
            .read("pb", 90.0)
        )
        base = replay_events(scripts.SID, s.events, expert, EngineConfig()).deliveries
        assert [d.kind for d in base] == [ScaffoldKind.HINT5, ScaffoldKind.HINT6]
        filtered = replay_events(
            scripts.SID, s.events, expert,
            EngineConfig(disabled_kinds=frozenset({ScaffoldKind.HINT5})),
        ).deliveries
        assert [d.kind for d in filtered] == [ScaffoldKind.HINT6]
        hint6_base = next(d for d in base if d.kind is ScaffoldKind.HINT6)
        hint6_filtered = filtered[0]
        assert hint6_base.timestamp == hint6_filtered.timestamp

    def test_a_disabled_kind_runs_no_conversation(self, expert, golden):
        for kind, (events, config) in golden.items():
            for disabled in (frozenset(), frozenset({kind})):
                asked = []

                def responder(node):
                    asked.append(node.id)
                    return 0

                engine = ScaffoldEngine(
                    scripts.SID, expert, replace(config, disabled_kinds=disabled),
                    responder=responder,
                )
                step = SessionStep(expert, engine)
                released = [d for event in events for d in step.feed(event)[1]]
                released += step.finish(events[-1].end)
                if disabled:
                    assert released == [] and asked == [], kind
                else:
                    assert [d.kind for d in released] == [kind]
                    assert asked == [s.node for s in released[0].transcript]

    def test_a_swallowed_delivery_still_holds_the_window(self, expert):
        # hint2 at the first edit, then enc2 17 s later, inside the 60 s window
        s = (
            scripts._Script()
            .concepts(expert)
            .read("pa", 12.0)
            .add("a", "b", scripts.DEC)
            .read("pb", 12.0)
            .add("b", "c", scripts.INC)
        )
        config = EngineConfig(long_threshold=10.0)
        no_hint2 = frozenset({ScaffoldKind.HINT2})

        def kinds(**changes):
            result = replay_events(scripts.SID, s.events, expert, replace(config, **changes))
            return [d.kind for d in result.deliveries]

        assert kinds() == [ScaffoldKind.HINT2]
        assert kinds(min_inter_scaffold_seconds=10.0) == [ScaffoldKind.HINT2, ScaffoldKind.ENC2]
        assert kinds(disabled_kinds=no_hint2) == []
        assert kinds(disabled_kinds=no_hint2, min_inter_scaffold_seconds=10.0) == [
            ScaffoldKind.ENC2
        ]

    def test_golden_deliveries_verify_offline(self, expert, golden):
        for kind, (events, config) in golden.items():
            annotated = annotate_session(events, expert, long_threshold=config.long_threshold)
            deliveries = replay_events(scripts.SID, events, expert, config).deliveries
            assert verify_session(annotated, deliveries, expert, config) == []

    def test_no_trigger_context_without_a_delivery(self, expert, monkeypatch):
        import mapcoach.engine as engine_module

        built = []

        class CountedContext(engine_module.TriggerContext):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(engine_module, "TriggerContext", CountedContext)
        s = scripts._Script().read("pa", 90.0).note().read("pb", 30.0).note().read("pa", 90.0)
        deliveries = replay_events(scripts.SID, s.events, expert, EngineConfig()).deliveries
        assert deliveries == ()
        assert built == []

    def test_min_gap_invariant_on_simulated_sessions(self, pack):
        from mapcoach.simulate import bundled_profiles, simulate_session
        from dataclasses import replace

        config = EngineConfig()
        profile = replace(bundled_profiles()["low"], student_id="s", seed=77)
        log = simulate_session(profile, pack, 1500.0, ScaffoldEngine("s", pack, config))
        ordered = sorted(log.deliveries, key=lambda d: d.timestamp)
        for prev, cur in zip(ordered, ordered[1:]):
            gap = cur.timestamp - prev.timestamp
            if gap < config.min_inter_scaffold_seconds:
                assert cur.kind is ScaffoldKind.HINT6 and prev.kind is ScaffoldKind.HINT5


class TestDeliveryCounts:
    def test_no_deliveries_all_zero(self):
        stats = delivery_counts([], {"s1": "High", "s2": "Low"})
        for (group, kind), cell in stats.items():
            assert cell.histogram["never"] == 1
            assert cell.count_range == (0, 0)

    def test_three_hint2_for_one_student(self, expert, golden):
        events, config = golden[ScaffoldKind.HINT2]
        delivery = replay_events(scripts.SID, events, expert, config).deliveries[0]
        deliveries = [delivery, delivery, delivery]
        stats = delivery_counts(deliveries, {scripts.SID: "High"})
        cell = stats[("High", ScaffoldKind.HINT2)]
        assert cell.count_range == (3, 3)
        assert cell.mean == pytest.approx(3.0)
        assert cell.histogram == {"never": 0, "1": 0, "2": 0, "3": 1, "4+": 0}

    def test_mean_and_sd_cover_receivers_only(self, expert, golden):
        events, config = golden[ScaffoldKind.HINT2]
        delivery = replay_events(scripts.SID, events, expert, config).deliveries[0]
        grouping = {scripts.SID: "High", "other": "High"}
        stats = delivery_counts([delivery], grouping)
        cell = stats[("High", ScaffoldKind.HINT2)]
        assert cell.mean == pytest.approx(1.0)  # the non-receiver is excluded
        assert cell.histogram["never"] == 1
        assert cell.count_range == (0, 1)
