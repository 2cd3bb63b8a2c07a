import math
import random
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mapcoach.causal import (
    CausalLink,
    CausalMap,
    DEFAULT_MAX_PATHS,
    Concept,
    EmptyQuiz,
    ExpertMap,
    Grade,
    LinkClass,
    MapError,
    Marking,
    PathExplosion,
    QueryAnswer,
    QuizQuestion,
    QuizScope,
    Sign,
    UnknownConcept,
    UnknownSection,
    _walk,
    answer_query,
    classify_link,
    generate_quiz,
    grade_quiz,
    map_score,
)
from mapcoach.annotate import MapEdit, MapEditAction, apply_edit


def cmap(*links, ids="abcdefgh"):
    concepts = [Concept(id=i, name=i.upper(), section="s") for i in ids]
    return CausalMap(
        concepts,
        [CausalLink(source=s, target=t, sign=sign) for s, t, sign in links],
    )


def expert_of(*links, ids="abcdefgh"):
    concepts = [Concept(id=i, name=i.upper(), section="s") for i in ids]
    return ExpertMap(
        CausalMap(
            concepts,
            [
                CausalLink(source=s, target=t, sign=sign, source_page=f"p-{s}{t}")
                for s, t, sign in links
            ],
        )
    )


INC, DEC = Sign.INCREASE, Sign.DECREASE


def with_clique(hub, *links, size=10, back_to_hub=False):
    """A map of the given links plus a complete digraph on `size` concepts,
    all linked from `hub` (and, with back_to_hub, each linking back to it)."""
    clique = [f"k{i}" for i in range(size)]
    ids = sorted({x for s, t, _ in links for x in (s, t)} | {hub}) + clique
    triples = list(links) + [(u, v, INC) for u in clique for v in clique if u != v]
    triples += [(hub, k, INC) for k in clique]
    if back_to_hub:
        triples += [(k, hub, INC) for k in clique]
    return cmap(*triples, ids=ids)


class TestMapInvariants:
    def test_rejects_self_loop(self):
        with pytest.raises(MapError):
            cmap(("a", "a", INC))

    def test_rejects_duplicate_pair(self):
        with pytest.raises(MapError):
            cmap(("a", "b", INC), ("a", "b", DEC))

    def test_rejects_dangling_endpoint(self):
        with pytest.raises(MapError):
            CausalMap(
                [Concept(id="a", name="A", section="s")],
                [CausalLink(source="a", target="b", sign=INC)],
            )

    def test_expert_requires_pages(self):
        with pytest.raises(MapError):
            ExpertMap(cmap(("a", "b", INC)))

    def test_delete_concept_drops_incident_links(self):
        m = cmap(("a", "b", INC), ("b", "c", INC))
        out = m.without_concept("b")
        assert not out.links
        assert "b" not in out.concepts


class TestMapScore:
    def test_empty_student_scores_zero(self, pack):
        assert map_score(CausalMap(), pack) == 0

    def test_identical_to_expert_scores_link_count(self, pack):
        assert map_score(pack.map, pack) == 15

    def test_one_correct_one_incorrect_cancels(self):
        expert = expert_of(("a", "b", INC), ("b", "c", DEC))
        student = cmap(("a", "b", INC), ("a", "c", DEC))
        assert map_score(student, expert) == 0

    def test_wrong_sign_counts_as_incorrect(self):
        expert = expert_of(("a", "b", INC))
        assert map_score(cmap(("a", "b", DEC)), expert) == -1


class TestClassifyLink:
    def test_exact_match_is_correct(self):
        expert = expert_of(("a", "b", INC))
        assert classify_link(CausalLink("a", "b", INC), expert) is LinkClass.CORRECT

    def test_bridge_with_matching_sign_is_shortcut(self):
        expert = expert_of(("a", "b", INC), ("b", "c", INC))
        assert (
            classify_link(CausalLink("a", "c", INC), expert)
            is LinkClass.INCORRECT_SHORTCUT
        )

    def test_bridge_with_wrong_sign_is_plain_incorrect(self):
        expert = expert_of(("a", "b", INC), ("b", "c", INC))
        assert classify_link(CausalLink("a", "c", DEC), expert) is LinkClass.INCORRECT

    def test_direct_expert_link_blocks_shortcut(self):
        expert = expert_of(("a", "b", INC), ("b", "c", INC), ("a", "c", DEC))
        # direct a->c exists, so a wrong-signed a->c is incorrect, not shortcut
        assert classify_link(CausalLink("a", "c", INC), expert) is LinkClass.INCORRECT

    def test_unknown_endpoint_is_incorrect(self):
        expert = expert_of(("a", "b", INC))
        assert classify_link(CausalLink("a", "z", INC), expert) is LinkClass.INCORRECT


class TestAnswerQuery:
    def test_single_negative_path(self):
        m = cmap(("a", "b", INC), ("b", "c", DEC))
        result = answer_query(m, "a", "c")
        assert result.answer is QueryAnswer.TARGET_DECREASES
        assert {l.key for l in result.used_links} == {("a", "b"), ("b", "c")}

    def test_conflicting_paths_cancel(self):
        m = cmap(("a", "c", INC), ("a", "b", INC), ("b", "c", DEC))
        assert answer_query(m, "a", "c").answer is QueryAnswer.CANNOT_DETERMINE

    def test_no_path_cannot_determine_with_no_links(self):
        m = cmap(("b", "a", INC))
        result = answer_query(m, "a", "b")
        assert result.answer is QueryAnswer.CANNOT_DETERMINE
        assert result.used_links == frozenset()

    def test_unknown_concept_raises(self):
        with pytest.raises(UnknownConcept):
            answer_query(cmap(), "a", "zz")

    def test_path_cap_raises_not_truncates(self):
        # complete DAG a->...->f has many a-to-f paths
        ids = "abcdef"
        links = [
            (s, t, INC) for i, s in enumerate(ids) for t in ids[i + 1 :]
        ]
        m = cmap(*links, ids=ids)
        with pytest.raises(PathExplosion):
            answer_query(m, "a", "f", max_paths=3)

    def test_branch_that_cannot_reach_the_target_is_not_walked(self):
        # s -> t, plus a 10-clique hanging off s that never reaches t: an
        # unpruned walk enumerates its ~10^7 simple paths
        m = with_clique("s", ("s", "t", INC))
        start = time.perf_counter()
        assert answer_query(m, "s", "t").answer is QueryAnswer.TARGET_INCREASES
        assert time.perf_counter() - start < 1.0

    def test_path_longer_than_the_recursion_limit(self):
        ids = [f"c{i:04d}" for i in range(3000)]
        m = cmap(*[(s, t, DEC) for s, t in zip(ids, ids[1:])], ids=ids)
        result = answer_query(m, ids[0], ids[-1])
        assert result.answer is QueryAnswer.TARGET_DECREASES  # 2999 negative links
        assert len(result.used_links) == 2999

    def test_dead_end_blow_up_meets_the_step_budget(self):
        # s -> a -> t, plus a 10-clique hanging off a whose only way out is
        # back to a: every walk into it reaches t only through a, already on
        # the path, so its paths are dead ends that no path cap would bound
        m = with_clique("a", ("s", "a", INC), ("a", "t", INC), back_to_hub=True)
        start = time.perf_counter()
        with pytest.raises(PathExplosion, match="link steps"):
            answer_query(m, "s", "t")
        assert time.perf_counter() - start < 1.0

    def test_sign_flip_on_odd_length_paths_flips_answer(self):
        # flipping every link sign negates a path's product only when the
        # path has odd length, so the flip symmetry holds on odd chains
        m = cmap(("a", "b", INC), ("b", "c", DEC), ("c", "d", INC), ids="abcd")
        flipped = CausalMap(
            m.concepts.values(),
            [
                CausalLink(source=l.source, target=l.target, sign=l.sign.flipped())
                for l in m.links.values()
            ],
        )
        assert answer_query(m, "a", "d").answer is QueryAnswer.TARGET_DECREASES
        assert answer_query(flipped, "a", "d").answer is QueryAnswer.TARGET_INCREASES

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_sign_flip_parity_relation(self, seed):
        """Flipping every link sign scales each path vote by (-1)^length."""
        rng = random.Random(seed)
        m = oracles.random_map(rng, max_concepts=6, max_links=10)
        ids = sorted(m.concepts)
        if len(ids) < 2:
            return
        source, target = rng.sample(ids, 2)
        edges = oracles.edge_dict(m)
        flipped_total = 0
        for path in oracles.brute_simple_paths(edges, source, target):
            sign = 1
            for pair in path:
                sign *= edges[pair]
            flipped_total += sign * (-1) ** len(path)
        flipped = CausalMap(
            m.concepts.values(),
            [
                CausalLink(source=l.source, target=l.target, sign=l.sign.flipped())
                for l in m.links.values()
            ],
        )
        got = answer_query(flipped, source, target).answer
        if flipped_total > 0:
            assert got is QueryAnswer.TARGET_INCREASES
        elif flipped_total < 0:
            assert got is QueryAnswer.TARGET_DECREASES
        else:
            assert got is QueryAnswer.CANNOT_DETERMINE

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000))
    def test_agrees_with_brute_force_paths(self, seed):
        rng = random.Random(seed)
        m = oracles.random_map(rng, max_concepts=6, max_links=10)
        edges = oracles.edge_dict(m)
        ids = sorted(m.concepts)
        expected_map = {
            "increases": QueryAnswer.TARGET_INCREASES,
            "decreases": QueryAnswer.TARGET_DECREASES,
            "cannot": QueryAnswer.CANNOT_DETERMINE,
        }
        for source in ids:
            for target in ids:
                if source == target:
                    continue
                expected = expected_map[oracles.brute_query(edges, source, target)]
                assert answer_query(m, source, target).answer is expected


class TestWalk:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from((1, 2, 3, 5, 50, DEFAULT_MAX_PATHS)))
    def test_vote_only_walk_counts_and_votes_as_the_full_walk(self, seed, max_paths):
        """The unpruned walk counts and votes every concept's brute-force
        paths, and raises only when one has more than max_paths; where it
        finishes, the link-recording walk to each target finishes with that
        target's count and vote."""
        rng = random.Random(seed)
        m = oracles.random_map(rng, max_concepts=7, max_links=18)
        ids = sorted(m.concepts)
        source = rng.choice(ids)
        targets = rng.sample(ids, rng.randint(1, len(ids)))
        edges = oracles.edge_dict(m)
        expected = {}
        for t in ids:
            paths = oracles.brute_simple_paths(edges, source, t)
            if paths:
                votes = [math.prod(edges[pair] for pair in path) for path in paths]
                expected[t] = (len(paths), sum(votes))
        exploded = any(count > max_paths for count, _ in expected.values())
        adjacency = m._compiled()
        names, number = adjacency.names, adjacency.number
        assert names == ids
        try:
            counts, votes, links, multi_signs = _walk(adjacency, number[source], None, max_paths)
        except PathExplosion:
            assert exploded
        else:
            assert not exploded
            assert not links and not multi_signs
            got = {names[n]: (counts[n], votes[n]) for n in range(len(names)) if counts[n]}
            assert got == expected
        for t in targets:
            try:
                counts, votes, _, _ = _walk(adjacency, number[source], number[t], max_paths)
            except PathExplosion:
                assert exploded
                continue
            reached = {names[n] for n in range(len(names)) if counts[n]}
            assert reached <= {t}
            got = (counts[number[t]], votes[number[t]]) if reached else None
            assert got == expected.get(t)


class TestScoreClassifyConsistency:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_score_equals_classify_sum(self, seed):
        rng = random.Random(seed)
        expert = oracles.random_expert(rng, max_concepts=8, max_links=10)
        student = oracles.random_map(rng, max_concepts=8, max_links=10)
        total = 0
        for link in student.links.values():
            cls = classify_link(link, expert)
            total += 1 if cls is LinkClass.CORRECT else -1
        assert map_score(student, expert) == total


class TestGenerateQuiz:
    def test_single_link_everything(self):
        expert = expert_of(("a", "b", INC), ids="ab")
        questions = generate_quiz(expert)
        assert len(questions) == 1
        q = questions[0]
        assert (q.source, q.target) == ("a", "b")
        assert q.expert_answer is QueryAnswer.TARGET_INCREASES

    def test_question_count_matches_brute_force(self, pack):
        questions = generate_quiz(pack)
        edges = oracles.edge_dict(pack.map)
        ids = sorted(pack.concepts)
        determinate = [
            (s, t)
            for s in ids
            for t in ids
            if s != t and oracles.brute_query(edges, s, t) != "cannot"
        ]
        assert [(q.source, q.target) for q in questions] == sorted(determinate)

    def test_expert_answers_match_brute_force(self, pack):
        edges = oracles.edge_dict(pack.map)
        for q in generate_quiz(pack):
            expected = oracles.brute_query(edges, q.source, q.target)
            assert q.expert_answer.value == f"target_{expected}"

    def test_section_restricts_to_in_section_paths(self, pack):
        questions = generate_quiz(pack, QuizScope.for_section("cold"))
        assert questions
        cold = {c.id for c in pack.concepts.values() if c.section == "cold"}
        for q in questions:
            assert q.source in cold and q.target in cold

    def test_unknown_section(self, pack):
        with pytest.raises(UnknownSection):
            generate_quiz(pack, QuizScope.for_section("nope"))

    def test_empty_section_quiz(self, pack):
        # the core section holds a single concept: no pairs to ask about
        with pytest.raises(EmptyQuiz):
            generate_quiz(pack, QuizScope.for_section("core"))

    def test_deterministic_order(self, pack):
        assert generate_quiz(pack) == generate_quiz(pack)


class TestGradeQuiz:
    def test_expert_as_student_scores_100(self, pack):
        result = grade_quiz(pack.map, generate_quiz(pack))
        assert result.score == 100.0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_expert_as_student_scores_100_on_random_experts(self, seed):
        rng = random.Random(seed)
        expert = oracles.random_expert(rng, max_concepts=6, max_links=8)
        try:
            questions = generate_quiz(expert)
        except EmptyQuiz:
            return
        assert grade_quiz(expert.map, questions).score == 100.0

    def test_empty_student_map_scores_zero(self, pack):
        questions = generate_quiz(pack)
        result = grade_quiz(CausalMap(), questions)
        assert result.score == 0.0
        assert all(item.answer is QueryAnswer.CANNOT_DETERMINE for item in result.items)
        assert all(item.grade is Grade.INCORRECT for item in result.items)

    def test_one_of_five_grades_to_twenty_percent(self):
        expert = expert_of(
            ("a", "b", INC), ("b", "c", INC), ("c", "d", INC), ("d", "e", INC),
            ids="abcde",
        )
        questions = [
            QuizQuestion(source=s, target=t, expert_answer=QueryAnswer.TARGET_INCREASES)
            for s, t in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e")]
        ]
        student = cmap(("a", "b", INC), ids="abcde")
        result = grade_quiz(student, questions)
        assert result.score == pytest.approx(20.0)
        grades = [item.grade for item in result.items]
        assert grades.count(Grade.CORRECT) == 1 and grades.count(Grade.INCORRECT) == 4

    def test_empty_quiz_rejected(self):
        with pytest.raises(EmptyQuiz):
            grade_quiz(CausalMap(), [])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_items_are_a_view_of_questions_and_answers(self, seed):
        rng = random.Random(seed)
        student = oracles.random_map(rng, max_concepts=6, max_links=12)
        ids = sorted(student.concepts)
        questions = [
            QuizQuestion(rng.choice(ids), rng.choice(ids), rng.choice(list(QueryAnswer)))
            for _ in range(rng.randint(1, 10))
        ]
        result = grade_quiz(student, questions)
        assert result.questions == tuple(questions)
        assert len(result.answers) == len(questions)
        items = result.items
        assert [(it.question, it.answer) for it in items] == list(
            zip(result.questions, result.answers)
        )
        for it in items:
            assert it.grade is (
                Grade.CORRECT if it.answer is it.question.expert_answer else Grade.INCORRECT
            )
        incorrect = [it for it in items if it.grade is Grade.INCORRECT]
        assert result.n_incorrect == len(incorrect)
        assert result.n_correct == len(items) - len(incorrect)
        assert result.score == 100.0 * result.n_correct / len(items)


def _grade_each(student, questions, max_paths):
    """(question, answer, grade) per question, graded one by one through
    answer_query, the score and the number of correct answers."""
    items = []
    for q in questions:
        if student.has_concept(q.source) and student.has_concept(q.target):
            answer = answer_query(student, q.source, q.target, max_paths=max_paths).answer
        else:
            answer = QueryAnswer.CANNOT_DETERMINE
        grade = Grade.CORRECT if answer is q.expert_answer else Grade.INCORRECT
        items.append((q, answer, grade))
    correct = sum(1 for item in items if item[2] is Grade.CORRECT)
    return items, 100.0 * correct / len(items), correct


def _graded(result):
    got = [(it.question, it.answer, it.grade) for it in result.items]
    return got, result.score, result.n_correct


def _random_cyclic_map(rng, max_concepts):
    """A random map with at least one cycle when it has a link."""
    m = oracles.random_map(rng, max_concepts=max_concepts, max_links=3 * max_concepts)
    links = m.sorted_links()
    if links and m.get_link(links[0].target, links[0].source) is None:
        m = m.with_link(CausalLink(links[0].target, links[0].source, rng.choice((INC, DEC))))
    return m


def _same_as_grading_each(student, questions, max_paths):
    """Assert grade_quiz equals _grade_each, or raises its exception."""
    try:
        expected = _grade_each(student, questions, max_paths)
    except MapError as exc:
        with pytest.raises(MapError) as raised:
            grade_quiz(student, questions, max_paths=max_paths)
        assert type(raised.value) is type(exc)
        assert str(raised.value) == str(exc)
        return
    assert _graded(grade_quiz(student, questions, max_paths=max_paths)) == expected


class TestGroupedGrading:
    def test_grouped_walk_that_meets_the_step_budget_falls_back(self):
        # the walk from s passes through t1 into a clique whose only way out
        # is back to t1, and raises; each question alone does not
        m = with_clique("t1", ("s", "t1", INC), ("s", "t2", DEC), back_to_hub=True)
        questions = [
            QuizQuestion("s", "t1", QueryAnswer.TARGET_INCREASES),
            QuizQuestion("s", "t2", QueryAnswer.TARGET_DECREASES),
        ]
        start = time.perf_counter()
        result = grade_quiz(m, questions)
        assert time.perf_counter() - start < 1.0
        assert result.score == 100.0
        assert _graded(result) == _grade_each(m, questions, DEFAULT_MAX_PATHS)

    def test_dead_end_clique_off_a_quiz_source_falls_back(self):
        # s reaches a 10-clique that leads to no question target: the walk
        # from s enters it and raises, and the questions from s fall back
        m = with_clique("s", ("s", "t", INC), ("t", "u", DEC), ("u", "s", INC))
        questions = [
            QuizQuestion("s", "t", QueryAnswer.TARGET_INCREASES),
            QuizQuestion("t", "u", QueryAnswer.TARGET_DECREASES),
            QuizQuestion("s", "u", QueryAnswer.TARGET_DECREASES),
        ]
        start = time.perf_counter()
        result = grade_quiz(m, questions)
        assert time.perf_counter() - start < 1.0
        assert result.score == 100.0
        assert _graded(result) == _grade_each(m, questions, DEFAULT_MAX_PATHS)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 5))
    def test_grade_quiz_equals_grading_each_question(self, seed, max_paths):
        rng = random.Random(seed)
        student = oracles.random_map(rng, max_concepts=7, max_links=18)
        ids = sorted(student.concepts) + ["missing"]
        sources = rng.sample(ids, min(3, len(ids)))
        questions = [
            QuizQuestion(rng.choice(sources), rng.choice(ids), rng.choice(list(QueryAnswer)))
            for _ in range(rng.randint(1, 12))
        ]
        _same_as_grading_each(student, questions, max_paths)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from((1, 2, 3, 4, 5, DEFAULT_MAX_PATHS)))
    def test_every_pair_quiz_on_cyclic_maps_equals_grading_each_question(self, seed, max_paths):
        rng = random.Random(seed)
        student = _random_cyclic_map(rng, max_concepts=9)
        ids = sorted(student.concepts)
        questions = [
            QuizQuestion(s, t, rng.choice(list(QueryAnswer)))
            for s in ids
            for t in ids
            if s != t
        ]
        _same_as_grading_each(student, questions, max_paths)

    def test_engine_in_the_loop_cohort_quizzes_equal_grading_each_question(
        self, pack, monkeypatch
    ):
        from mapcoach import causal
        from mapcoach.engine import EngineConfig
        from mapcoach.simulate import simulate_cohort

        graded = []

        def recording(student, questions, **kwargs):
            result = grade_quiz(student, questions, **kwargs)
            graded.append((student, list(questions), result))
            return result

        monkeypatch.setattr(causal, "grade_quiz", recording)
        simulate_cohort(2, 2, seed=7, expert=pack, duration_budget=1500.0,
                        engine_config=EngineConfig())
        assert graded
        for student, questions, result in graded:
            assert _graded(result) == _grade_each(student, questions, DEFAULT_MAX_PATHS)


class TestNumberedConcepts:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from((1, 2, 3, 5, DEFAULT_MAX_PATHS)))
    def test_grading_equals_grading_each_question(self, seed, max_paths):
        """Concept ids inserted in shuffled order, so their sorted numbers
        differ from the insertion order, some concepts without any link,
        and questions that name concepts the map lacks."""
        rng = random.Random(seed)
        names = [f"{letter}{i}" for letter in "zqbma" for i in (7, 10, 2)]
        ids = rng.sample(names, rng.randint(2, 9))
        linked = ids[: rng.randint(1, len(ids))]
        pairs = [(s, t) for s in linked for t in linked if s != t]
        links = [
            CausalLink(s, t, rng.choice((INC, DEC)))
            for s, t in rng.sample(pairs, rng.randint(0, min(16, len(pairs))))
        ]
        student = CausalMap([Concept(i, i, "s") for i in ids], links)
        named = ids + ["absent", "zz9"]
        questions = [
            QuizQuestion(rng.choice(named), rng.choice(named), rng.choice(list(QueryAnswer)))
            for _ in range(rng.randint(1, 14))
        ]
        _same_as_grading_each(student, questions, max_paths)
        edges = oracles.edge_dict(student)
        answers = {"increases": QueryAnswer.TARGET_INCREASES,
                   "decreases": QueryAnswer.TARGET_DECREASES,
                   "cannot": QueryAnswer.CANNOT_DETERMINE}
        for q in questions:
            if q.source in ids and q.target in ids and q.source != q.target:
                expected = answers[oracles.brute_query(edges, q.source, q.target)]
                assert answer_query(student, q.source, q.target).answer is expected


def mark(m, source, target, marking):
    return apply_edit(
        m, MapEdit(MapEditAction.MARK_LINK, source=source, target=target, marking=marking)
    )


class TestSetMarking:
    def test_mark_and_remark_roundtrip(self):
        m = cmap(("a", "b", INC))
        marked = mark(m, "a", "b", Marking.MARKED_CORRECT)
        assert marked.get_link("a", "b").marking is Marking.MARKED_CORRECT
        back = mark(marked, "a", "b", Marking.UNMARKED)
        assert back == m

    def test_everything_else_unchanged(self):
        m = cmap(("a", "b", INC), ("b", "c", DEC))
        marked = mark(m, "a", "b", Marking.MARKED_COULD_BE_WRONG)
        assert marked.get_link("b", "c") == m.get_link("b", "c")
        assert marked.concepts == m.concepts

    def test_unknown_link(self):
        with pytest.raises(MapError):
            mark(cmap(("a", "b", INC)), "b", "a", Marking.MARKED_CORRECT)


_IDS = "abcde"
_ANY_LINK = st.builds(
    CausalLink,
    source=st.sampled_from(_IDS),
    target=st.sampled_from(_IDS),
    sign=st.sampled_from(Sign),
    marking=st.sampled_from(Marking),
)
_STEPS = st.lists(
    st.tuples(
        st.sampled_from(MapEditAction),
        st.integers(0, 9),
        st.integers(0, 9),
        st.booleans(),
        st.sampled_from(Marking),
    ),
    max_size=40,
)


def _edit_for(m, action, i, j, flip, marking):
    """An edit of the action, valid or not; i and j name concepts, or from 5
    up pick one of the map's own links."""
    sign = DEC if flip else INC
    links = m.sorted_links()
    if links and i >= 5:
        link = links[(i + j) % len(links)]
    else:
        link = CausalLink(_IDS[i % 5], _IDS[j % 5], sign, marking)
    if action is MapEditAction.ADD_CONCEPT:
        return MapEdit(action, concept=Concept(_IDS[i % 5], "N", "st"[j % 2]))
    if action is MapEditAction.DELETE_CONCEPT:
        return MapEdit(action, concept_id=_IDS[i % 5])
    if action is MapEditAction.ADD_LINK:
        return MapEdit(action, link=CausalLink(_IDS[i % 5], _IDS[j % 5], sign, marking))
    if action is MapEditAction.MODIFY_LINK:
        new = CausalLink(
            link.source if j < 5 else _IDS[j % 5],
            link.target if j % 3 == 0 else _IDS[(i + j) % 5],
            link.sign.flipped() if flip else link.sign,
        )
        return MapEdit(action, old=link, new=new)
    if action is MapEditAction.DELETE_LINK:
        return MapEdit(action, source=link.source, target=link.target)
    return MapEdit(action, source=link.source, target=link.target, marking=marking)


class TestEditsMatchRebuild:
    @settings(max_examples=150, deadline=None)
    @given(_STEPS)
    def test_edit_sequences_match_a_rebuild_from_scratch(self, steps):
        current = CausalMap([Concept(c, c.upper(), "s") for c in "abc"])
        for step in steps:
            edit = _edit_for(current, *step)
            try:
                expected = oracles.rebuilt_after_edit(current, edit)
            except MapError as exc:
                with pytest.raises(MapError) as raised:
                    apply_edit(current, edit)
                assert type(raised.value) is type(exc)
                assert str(raised.value) == str(exc)
                continue
            got = apply_edit(current, edit)
            assert got == expected
            assert list(got.concepts.items()) == list(expected.concepts.items())
            assert list(got.links.items()) == list(expected.links.items())
            current = got

    def test_shared_parent_is_left_as_it_was(self):
        m = cmap(("a", "b", INC))
        before = list(m.links.values())
        mark(m, "a", "b", Marking.MARKED_CORRECT)
        apply_edit(m, MapEdit(MapEditAction.ADD_LINK, link=CausalLink("b", "c", DEC)))
        m.without_concept("a")
        assert list(m.links.values()) == before


class TestLinkHash:
    @settings(max_examples=200, deadline=None)
    @given(_ANY_LINK, _ANY_LINK)
    def test_hash_is_consistent_with_equality(self, a, b):
        if a == b:
            assert hash(a) == hash(b)
        assert (b in {a}) == (a == b)
        assert (b in frozenset([a, replace(a, source_page="p")])) == (
            b == a or b == replace(a, source_page="p")
        )


class TestShortcutShadowProperty:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_never_shortcut_when_direct_expert_link_exists(self, seed):
        rng = random.Random(seed)
        expert = oracles.random_expert(rng, max_concepts=6, max_links=10)
        for key in expert.links:
            for sign in (INC, DEC):
                cls = classify_link(CausalLink(key[0], key[1], sign), expert)
                assert cls is not LinkClass.INCORRECT_SHORTCUT


def _brute_facts(edges, source, target):
    """(count, vote, reached, multi-link signs, distinct pairs in first-seen
    order) over the brute-force simple paths."""
    paths = oracles.brute_simple_paths(edges, source, target)
    signs = [math.prod(edges[pair] for pair in path) for path in paths]
    pairs = list(dict.fromkeys(pair for path in paths for pair in path))
    return (
        len(paths),
        sum(signs),
        {t for _, t in pairs},
        {sign for sign, path in zip(signs, paths) if len(path) >= 2},
        pairs,
    )


def _random_sectioned_expert(rng):
    expert = oracles.random_expert(rng, max_concepts=7, max_links=12)
    concepts = [replace(c, section=rng.choice("xy")) for c in expert.map.sorted_concepts()]
    return ExpertMap(CausalMap(concepts, expert.map.sorted_links()))


class TestExpertPathFacts:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_path_facts_match_brute_force(self, seed):
        expert = oracles.random_expert(random.Random(seed), max_concepts=7, max_links=12)
        edges = oracles.edge_dict(expert.map)
        for s in expert.concepts:
            for t in expert.concepts:
                facts = expert.paths(s, t)
                count, vote, reached, multi_signs, pairs = _brute_facts(edges, s, t)
                assert (facts.count, facts.vote) == (count, vote)
                assert facts.reached == reached
                assert facts.multi_signs == multi_signs
                assert [link.key for link in facts.links] == pairs
                assert expert.paths(s, t) is facts

    def test_paths_on_a_concept_the_expert_lacks_are_empty(self):
        expert = expert_of(("a", "b", INC), ("b", "c", DEC), ids="abc")
        for source, target in (("zz", "c"), ("a", "zz"), ("zz", "yy")):
            facts = expert.paths(source, target)
            assert (facts.count, facts.vote) == (0, 0)
            assert facts.reached == frozenset() and facts.multi_signs == frozenset()
            assert facts.links == ()
        assert expert.paths("a", "c").vote == -1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_shortcut_iff_no_direct_link_and_multi_link_path_of_that_sign(self, seed):
        expert = oracles.random_expert(random.Random(seed), max_concepts=7, max_links=12)
        edges = oracles.edge_dict(expert.map)
        ids = sorted(expert.concepts)
        expected_shortcuts = []
        for s in ids:
            for t in ids:
                if s == t:
                    continue
                multi_signs = _brute_facts(edges, s, t)[3]
                for sign in (DEC, INC):
                    shortcut = (s, t) not in edges and sign.factor in multi_signs
                    cls = classify_link(CausalLink(s, t, sign), expert)
                    assert (cls is LinkClass.INCORRECT_SHORTCUT) == shortcut
                    if shortcut:
                        expected_shortcuts.append(CausalLink(s, t, sign))
        assert expert.shortcuts() == tuple(expected_shortcuts)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_every_section_quiz_matches_brute_force(self, seed):
        expert = _random_sectioned_expert(random.Random(seed))
        edges = oracles.edge_dict(expert.map)
        for section, members in sorted(expert.sections().items()):
            expected = []
            for s in sorted(members):
                for t in sorted(members):
                    if s == t:
                        continue
                    _, vote, reached, _, _ = _brute_facts(edges, s, t)
                    if vote != 0 and reached <= members:
                        expected.append((s, t, "increases" if vote > 0 else "decreases"))
            scope = QuizScope.for_section(section)
            if not expected:
                with pytest.raises(EmptyQuiz):
                    generate_quiz(expert, scope)
                continue
            got = [(q.source, q.target, q.expert_answer.value) for q in generate_quiz(expert, scope)]
            assert got == [(s, t, f"target_{answer}") for s, t, answer in expected]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_mutating_a_returned_quiz_leaves_the_next_one_unchanged(self, seed):
        expert = oracles.random_expert(random.Random(seed), max_concepts=6, max_links=8)
        try:
            first = generate_quiz(expert)
        except EmptyQuiz:
            return
        expected = list(first)
        first.clear()
        second = generate_quiz(expert)
        assert second == expected
        second.append(second[0])
        second.reverse()
        assert generate_quiz(expert) == expected
