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

    def test_explanation_links_cover_used_paths(self):
        expert = expert_of(("a", "b", INC), ("b", "c", DEC))
        student = cmap(("a", "b", INC), ("b", "c", DEC))
        result = grade_quiz(student, generate_quiz(expert))
        links = result.explanation_links()
        ac = next(q for q in links if (q.source, q.target) == ("a", "c"))
        assert {l.key for l in links[ac]} == {("a", "b"), ("b", "c")}


def _grade_each(student, questions, max_paths):
    """(question, answer, grade, used links) per question, graded one by one
    through answer_query, and the score."""
    items = []
    for q in questions:
        if student.has_concept(q.source) and student.has_concept(q.target):
            result = answer_query(student, q.source, q.target, max_paths=max_paths)
            answer, used = result.answer, result.used_links
        else:
            answer, used = QueryAnswer.CANNOT_DETERMINE, frozenset()
        grade = Grade.CORRECT if answer is q.expert_answer else Grade.INCORRECT
        items.append((q, answer, grade, used))
    correct = sum(1 for item in items if item[2] is Grade.CORRECT)
    return items, 100.0 * correct / len(items)


class TestGroupedGrading:
    def test_grouped_walk_that_meets_the_step_budget_falls_back(self):
        # one walk for both questions from s passes through t1 into a clique
        # whose only way out is back to t1; each question alone does not
        m = with_clique("t1", ("s", "t1", INC), ("s", "t2", DEC), back_to_hub=True)
        questions = [
            QuizQuestion("s", "t1", QueryAnswer.TARGET_INCREASES),
            QuizQuestion("s", "t2", QueryAnswer.TARGET_DECREASES),
        ]
        start = time.perf_counter()
        result = grade_quiz(m, questions)
        assert time.perf_counter() - start < 1.0
        assert result.score == 100.0
        got = [(it.question, it.answer, it.grade, it.used_links) for it in result.items]
        assert (got, result.score) == _grade_each(m, questions, DEFAULT_MAX_PATHS)

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
        try:
            expected = _grade_each(student, questions, max_paths)
        except MapError as exc:
            with pytest.raises(MapError) as raised:
                grade_quiz(student, questions, max_paths=max_paths)
            assert type(raised.value) is type(exc)
            assert str(raised.value) == str(exc)
            return
        result = grade_quiz(student, questions, max_paths=max_paths)
        got = [(it.question, it.answer, it.grade, it.used_links) for it in result.items]
        assert (got, result.score) == expected


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
        assert expert.shortcuts() == expected_shortcuts

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
