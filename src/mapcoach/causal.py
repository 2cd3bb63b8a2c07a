"""Causal maps: signed concept graphs, scoring against an expert map,
sign-propagation queries, and quiz generation/grading."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence


class Sign(str, Enum):
    INCREASE = "increase"
    DECREASE = "decrease"

    @property
    def factor(self) -> int:
        return 1 if self is Sign.INCREASE else -1

    def flipped(self) -> "Sign":
        return Sign.DECREASE if self is Sign.INCREASE else Sign.INCREASE


class Marking(str, Enum):
    UNMARKED = "unmarked"
    MARKED_CORRECT = "marked_correct"
    MARKED_COULD_BE_WRONG = "marked_could_be_wrong"


class LinkClass(str, Enum):
    CORRECT = "correct"
    INCORRECT = "incorrect"
    INCORRECT_SHORTCUT = "incorrect_shortcut"


class QueryAnswer(str, Enum):
    TARGET_INCREASES = "target_increases"
    TARGET_DECREASES = "target_decreases"
    CANNOT_DETERMINE = "cannot_determine"


class Grade(str, Enum):
    CORRECT = "correct"
    INCORRECT = "incorrect"


class MapError(Exception):
    """Base class for malformed-map and bad-query errors."""


class UnknownConcept(MapError):
    pass


class UnknownLink(MapError):
    pass


class UnknownSection(MapError):
    pass


class EmptyQuiz(MapError):
    pass


class PathExplosion(MapError):
    """Raised when a path search would find more than max_paths simple paths
    to a target, or take more than max_paths steps per concept."""


DEFAULT_MAX_PATHS = 10_000


@dataclass(frozen=True)
class Concept:
    id: str
    name: str
    section: str


@dataclass(frozen=True)
class CausalLink:
    source: str
    target: str
    sign: Sign
    marking: Marking = Marking.UNMARKED
    source_page: Optional[str] = None

    @property
    def key(self) -> tuple[str, str]:
        return (self.source, self.target)

    @property
    def triple(self) -> tuple[str, str, Sign]:
        return (self.source, self.target, self.sign)

    def display(self) -> str:
        arrow = "+" if self.sign is Sign.INCREASE else "-"
        return f"{self.source} {arrow}-> {self.target}"


class CausalMap:
    """Immutable-by-convention map of concepts and signed links.

    All mutators return a new map; instances can be shared freely across
    sessions.  At most one link may exist per ordered (source, target) pair
    and self-loops are rejected.  The adjacency that path searches walk is
    compiled on first use and kept on the instance.
    """

    def __init__(self, concepts: Iterable[Concept] = (), links: Iterable[CausalLink] = ()):
        self._concepts: dict[str, Concept] = {}
        for c in concepts:
            if c.id in self._concepts:
                raise MapError(f"duplicate concept id {c.id!r}")
            self._concepts[c.id] = c
        self._links: dict[tuple[str, str], CausalLink] = {}
        for link in links:
            if link.source == link.target:
                raise MapError(f"self-loop on {link.source!r}")
            if link.source not in self._concepts or link.target not in self._concepts:
                raise MapError(f"link {link.display()} has an endpoint outside the map")
            if link.key in self._links:
                raise MapError(f"duplicate link for pair {link.key}")
            self._links[link.key] = link
        self._adjacency: Optional[_Adjacency] = None

    @property
    def concepts(self) -> Mapping[str, Concept]:
        return self._concepts

    @property
    def links(self) -> Mapping[tuple[str, str], CausalLink]:
        return self._links

    def __eq__(self, other) -> bool:
        if not isinstance(other, CausalMap):
            return NotImplemented
        return self._concepts == other._concepts and self._links == other._links

    def __repr__(self) -> str:
        return f"CausalMap({len(self._concepts)} concepts, {len(self._links)} links)"

    def has_concept(self, concept_id: str) -> bool:
        return concept_id in self._concepts

    def get_link(self, source: str, target: str) -> Optional[CausalLink]:
        return self._links.get((source, target))

    def sorted_links(self) -> list[CausalLink]:
        return [self._links[k] for k in sorted(self._links)]

    def sorted_concepts(self) -> list[Concept]:
        return [self._concepts[k] for k in sorted(self._concepts)]

    def _compiled(self) -> "_Adjacency":
        if self._adjacency is None:
            self._adjacency = _Adjacency(self.sorted_links())
        return self._adjacency

    # -- functional updates ------------------------------------------------

    def with_concept(self, concept: Concept) -> "CausalMap":
        if concept.id in self._concepts:
            raise MapError(f"concept {concept.id!r} already present")
        return CausalMap(list(self._concepts.values()) + [concept], self._links.values())

    def without_concept(self, concept_id: str) -> "CausalMap":
        """Drop a concept along with every incident link."""
        if concept_id not in self._concepts:
            raise UnknownConcept(concept_id)
        concepts = [c for c in self._concepts.values() if c.id != concept_id]
        links = [l for l in self._links.values() if concept_id not in l.key]
        return CausalMap(concepts, links)

    def with_link(self, link: CausalLink) -> "CausalMap":
        if link.key in self._links:
            raise MapError(f"pair {link.key} already linked")
        return CausalMap(self._concepts.values(), list(self._links.values()) + [link])

    def without_link(self, source: str, target: str) -> "CausalMap":
        if (source, target) not in self._links:
            raise UnknownLink(f"{source}->{target}")
        links = [l for l in self._links.values() if l.key != (source, target)]
        return CausalMap(self._concepts.values(), links)

    def with_replaced_link(self, old_key: tuple[str, str], new: CausalLink) -> "CausalMap":
        if old_key not in self._links:
            raise UnknownLink(f"{old_key[0]}->{old_key[1]}")
        links = [l for l in self._links.values() if l.key != old_key]
        if any(l.key == new.key for l in links):
            raise MapError(f"pair {new.key} already linked")
        return CausalMap(self._concepts.values(), links + [new])


@dataclass(frozen=True)
class PathFacts:
    """What the simple expert paths from one concept to another add up to."""

    count: int  # number of simple paths
    vote: int  # sum of path signs, +1 or -1 each
    reached: frozenset[str]  # concepts the paths reach (every link target)
    multi_signs: frozenset[int]  # signs of the paths with two or more links
    links: tuple[CausalLink, ...]  # distinct links, in the order the walk first meets them


class ExpertMap:
    """A causal map acting as ground truth, with page provenance per link.

    Every link must carry a source page; the derived page index maps each
    page to the set of link pairs it supports.  Path facts (`paths`) and
    quiz banks (`generate_quiz`) are computed on first use and memoised on
    the instance, so its map must not change after construction.
    """

    def __init__(self, cmap: CausalMap):
        for link in cmap.links.values():
            if not link.source_page:
                raise MapError(f"expert link {link.display()} has no source page")
        self.map = cmap
        pages: dict[str, set[tuple[str, str]]] = {}
        for link in cmap.links.values():
            pages.setdefault(link.source_page, set()).add(link.key)
        self.pages: dict[str, set[tuple[str, str]]] = pages
        self._paths: dict[tuple[str, str], PathFacts] = {}
        self._quizzes: dict[QuizScope, tuple[QuizQuestion, ...]] = {}

    @property
    def concepts(self) -> Mapping[str, Concept]:
        return self.map.concepts

    @property
    def links(self) -> Mapping[tuple[str, str], CausalLink]:
        return self.map.links

    def page_ids(self) -> list[str]:
        return sorted(self.pages)

    def links_on_page(self, page: str) -> set[tuple[str, str]]:
        return self.pages.get(page, set())

    def sections(self) -> dict[str, set[str]]:
        out: dict[str, set[str]] = {}
        for c in self.map.concepts.values():
            out.setdefault(c.section, set()).add(c.id)
        return out

    def paths(self, source: str, target: str) -> PathFacts:
        """Facts about every simple expert path source -> target, from one
        walk per pair; PathExplosion past DEFAULT_MAX_PATHS, as for
        answer_query."""
        facts = self._paths.get((source, target))
        if facts is None:
            reach = _walk(self.map, source, (target,), DEFAULT_MAX_PATHS).get(target, _Reach())
            links = tuple(map(self.map._compiled().links.__getitem__, reach.links))
            facts = self._paths[(source, target)] = PathFacts(
                count=reach.count,
                vote=reach.vote,
                reached=frozenset(link.target for link in links),
                multi_signs=frozenset(reach.multi_signs),
                links=links,
            )
        return facts

    def shortcuts(self) -> list[CausalLink]:
        """One link per net sign of the multi-link paths between each pair
        with no direct expert link, ordered by (source, target, sign)."""
        concepts = sorted(self.map.concepts)
        return [
            CausalLink(source=s, target=t, sign=Sign.INCREASE if sign > 0 else Sign.DECREASE)
            for s in concepts
            for t in concepts
            if s != t and (s, t) not in self.map.links
            for sign in sorted(self.paths(s, t).multi_signs)
        ]


# -- scoring ---------------------------------------------------------------


def map_score(student: CausalMap, expert: ExpertMap) -> int:
    """Correct links minus incorrect links; a link is correct iff its
    (source, target, sign) triple appears in the expert map."""
    score = 0
    for link in student.links.values():
        expert_link = expert.links.get(link.key)
        if expert_link is not None and expert_link.sign is link.sign:
            score += 1
        else:
            score -= 1
    return score


def classify_link(link: CausalLink, expert: ExpertMap) -> LinkClass:
    """Classify a student link against the expert map.

    A shortcut is a direct link standing in for a multi-step expert path
    with the same net sign, where no direct expert link exists for the
    pair.
    """
    expert_link = expert.links.get(link.key)
    if expert_link is not None and expert_link.sign is link.sign:
        return LinkClass.CORRECT
    if link.source not in expert.concepts or link.target not in expert.concepts:
        return LinkClass.INCORRECT
    if expert_link is not None:
        return LinkClass.INCORRECT
    if link.sign.factor in expert.paths(link.source, link.target).multi_signs:
        return LinkClass.INCORRECT_SHORTCUT
    return LinkClass.INCORRECT


# -- sign propagation --------------------------------------------------------


class _Adjacency:
    """A map's links compiled for walking: forward entries (target, sign
    factor, link index) in sorted link order, and each concept's sources."""

    def __init__(self, links: list[CausalLink]):
        self.links = links
        self.forward: dict[str, list[tuple[str, int, int]]] = {}
        self.reverse: dict[str, list[str]] = {}
        for index, link in enumerate(links):
            self.forward.setdefault(link.source, []).append((link.target, link.sign.factor, index))
            self.reverse.setdefault(link.target, []).append(link.source)


class _Reach:
    """What one walk found on the simple paths to one of its targets."""

    __slots__ = ("count", "vote", "links", "multi_signs")

    def __init__(self):
        self.count = 0  # number of paths
        self.vote = 0  # sum of path signs
        self.links: dict[int, None] = {}  # link indices, in the order the walk first meets them
        self.multi_signs: set[int] = set()  # signs of the paths with two or more links

    def query_result(self, links: list[CausalLink]) -> "QueryResult":
        if self.vote > 0:
            answer = QueryAnswer.TARGET_INCREASES
        elif self.vote < 0:
            answer = QueryAnswer.TARGET_DECREASES
        else:
            answer = QueryAnswer.CANNOT_DETERMINE
        return QueryResult(answer, frozenset(map(links.__getitem__, self.links)))


def _walk(
    cmap: CausalMap, source: str, targets: Iterable[str], max_paths: int
) -> dict[str, _Reach]:
    """Walk every simple path from source to each target, depth first in
    sorted link order.

    The walk steps only onto concepts that can reach a target without
    passing through source, and past a target only when there are others,
    so each target's paths, and their order, are those of a walk to that
    target alone.  It raises PathExplosion when a target has more than
    max_paths paths, or after max_paths link steps per concept of the map:
    a walk to one target without dead ends takes at most (number of paths)
    x (path length) steps, so only dead-end blow-ups meet that budget.
    The walk keeps its own stack, so a path may be longer than the
    interpreter's recursion limit.  Returns what it found for each target
    that it reached.
    """
    adjacency = cmap._compiled()
    forward, reverse = adjacency.forward, adjacency.reverse
    reaches: dict[str, _Reach] = {}
    if source not in forward:
        return reaches
    wanted = set(targets)
    wanted.discard(source)
    through = len(wanted) > 1
    # the concepts that can reach a target without passing through source
    # and are not on the current path
    open_ = set(wanted)
    frontier = list(wanted)
    while frontier:
        for pred in reverse.get(frontier.pop(), ()):
            if pred not in open_ and pred != source:
                open_.add(pred)
                frontier.append(pred)
    budget = max_paths * len(cmap.concepts)
    steps = 0
    path: list[int] = []  # link indices
    signs = [1]  # sign of each prefix of the path
    entered: list[str] = []  # concepts the path has stepped onto and may leave
    stack = [iter(forward[source])]
    while stack:
        for nxt, factor, index in stack[-1]:
            if nxt not in open_:
                continue
            steps += 1
            if steps > budget:
                raise PathExplosion(
                    f"more than {budget} link steps searching paths from {source!r}"
                    f" to {', '.join(map(repr, sorted(wanted)))}"
                )
            path.append(index)
            sign = signs[-1] * factor
            reach = None
            if nxt in wanted:
                reach = reaches.get(nxt)
                if reach is None:
                    reach = reaches[nxt] = _Reach()
                reach.count += 1
                if reach.count > max_paths:
                    raise PathExplosion(f"more than {max_paths} paths from {source!r} to {nxt!r}")
                reach.vote += sign
                if len(path) >= 2:
                    reach.multi_signs.add(sign)
                reach.links.update(dict.fromkeys(path))
            if (reach is None or through) and nxt in forward:
                open_.remove(nxt)
                entered.append(nxt)
                signs.append(sign)
                stack.append(iter(forward[nxt]))
                break
            path.pop()
        else:
            stack.pop()
            if entered:
                open_.add(entered.pop())
                signs.pop()
                path.pop()
    return reaches


@dataclass(frozen=True)
class QueryResult:
    answer: QueryAnswer
    used_links: frozenset[CausalLink]


_NO_PATHS = QueryResult(QueryAnswer.CANNOT_DETERMINE, frozenset())


def answer_query(
    cmap: CausalMap,
    source: str,
    target: str,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> QueryResult:
    """Propagate signs over all simple paths from source to target.

    Each path votes +1 or -1 by the product of its link signs; the vote sum
    decides the answer, with a zero sum (including "no paths") reported as
    cannot-determine.  The search is bounded rather than truncated: more
    than max_paths paths, or more than max_paths link steps per concept of
    the map, raises PathExplosion.  It steps only onto concepts that can
    still reach the target, so the step budget is met only by maps whose
    dead ends blow up, never by one with at most max_paths paths and no
    dead ends.
    """
    if not cmap.has_concept(source):
        raise UnknownConcept(source)
    if not cmap.has_concept(target):
        raise UnknownConcept(target)
    reach = _walk(cmap, source, (target,), max_paths).get(target)
    return _NO_PATHS if reach is None else reach.query_result(cmap._compiled().links)


# -- quizzes -----------------------------------------------------------------


@dataclass(frozen=True)
class QuizScope:
    kind: str  # "everything" | "section"
    section: Optional[str] = None

    @staticmethod
    def everything() -> "QuizScope":
        return QuizScope("everything")

    @staticmethod
    def for_section(section: str) -> "QuizScope":
        return QuizScope("section", section)

    def display(self) -> str:
        return self.kind if self.kind == "everything" else f"section:{self.section}"


@dataclass(frozen=True)
class QuizQuestion:
    source: str
    target: str
    expert_answer: QueryAnswer
    direction: Sign = Sign.INCREASE


@dataclass(frozen=True)
class QuizItem:
    question: QuizQuestion
    answer: QueryAnswer
    grade: Grade
    used_links: frozenset[CausalLink] = field(default_factory=frozenset)


@dataclass(frozen=True)
class QuizResult:
    scope: QuizScope
    items: tuple[QuizItem, ...]
    score: float

    @property
    def n_correct(self) -> int:
        return sum(1 for item in self.items if item.grade is Grade.CORRECT)

    @property
    def n_incorrect(self) -> int:
        return len(self.items) - self.n_correct

    def incorrect_items(self) -> list[QuizItem]:
        return [item for item in self.items if item.grade is Grade.INCORRECT]

    def explanation_links(self) -> dict[QuizQuestion, frozenset[CausalLink]]:
        return {item.question: item.used_links for item in self.items}


def generate_quiz(
    expert: ExpertMap,
    scope: QuizScope = QuizScope.everything(),
) -> list[QuizQuestion]:
    """One question per ordered concept pair with a determinate expert answer.

    A section-scoped quiz keeps only pairs whose connecting expert paths lie
    entirely inside the section's concepts.  Question order is lexicographic
    by (source, target) so quizzes are reproducible.  The bank is memoised
    per scope on the expert map; each call returns a fresh list.
    """
    bank = expert._quizzes.get(scope)
    if bank is not None:
        return list(bank)
    if scope.kind == "section":
        sections = expert.sections()
        if scope.section not in sections:
            raise UnknownSection(scope.section)
        allowed = sections[scope.section]
    else:
        allowed = set(expert.concepts)
    questions: list[QuizQuestion] = []
    for source, target in itertools.permutations(sorted(allowed), 2):
        facts = expert.paths(source, target)
        if facts.vote == 0 or not facts.reached <= allowed:
            continue
        answer = QueryAnswer.TARGET_INCREASES if facts.vote > 0 else QueryAnswer.TARGET_DECREASES
        questions.append(QuizQuestion(source=source, target=target, expert_answer=answer))
    if not questions:
        raise EmptyQuiz(f"no determinate concept pairs in scope {scope.display()}")
    expert._quizzes[scope] = tuple(questions)
    return questions


def grade_quiz(
    student: CausalMap,
    questions: Sequence[QuizQuestion],
    scope: QuizScope = QuizScope.everything(),
    max_paths: int = DEFAULT_MAX_PATHS,
) -> QuizResult:
    """Grade a quiz by propagating each question over the student map.

    A question whose concepts are missing from the student map is answered
    cannot-determine.  Grading is binary: the answer must equal the expert
    answer exactly.  The questions that share a source are answered by one
    bounded walk (see answer_query).  If any such walk raises
    PathExplosion, the quiz is graded question by question, in order,
    through answer_query, so the result, or the exception, is the one
    per-question grading gives.
    """
    if not questions:
        raise EmptyQuiz("cannot grade an empty quiz")
    concepts = student.concepts
    targets: dict[str, set[str]] = {}
    for q in questions:
        if q.source in concepts and q.target in concepts:
            targets.setdefault(q.source, set()).add(q.target)
    links = student._compiled().links
    try:
        results = {
            (s, t): reach.query_result(links)
            for s, ts in targets.items()
            for t, reach in _walk(student, s, ts, max_paths).items()
        }
    except PathExplosion:
        results = {
            (q.source, q.target): answer_query(student, q.source, q.target, max_paths=max_paths)
            for q in questions
            if q.source in concepts and q.target in concepts
        }
    items = []
    for q in questions:
        result = results.get((q.source, q.target), _NO_PATHS)
        grade = Grade.CORRECT if result.answer is q.expert_answer else Grade.INCORRECT
        items.append(
            QuizItem(question=q, answer=result.answer, grade=grade, used_links=result.used_links)
        )
    score = 100.0 * sum(1 for it in items if it.grade is Grade.CORRECT) / len(items)
    return QuizResult(scope=scope, items=tuple(items), score=score)
