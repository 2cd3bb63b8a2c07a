"""Causal maps: signed concept graphs, scoring against an expert map,
sign-propagation queries, and quiz generation/grading."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Iterator, Mapping, Optional, Sequence


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
    """Raised when a query would enumerate more simple paths than allowed."""


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
    and self-loops are rejected.
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


def set_marking(cmap: CausalMap, source: str, target: str, marking: Marking) -> CausalMap:
    """Return a copy of the map with one link's marking replaced."""
    link = cmap.get_link(source, target)
    if link is None:
        raise UnknownLink(f"{source}->{target}")
    return cmap.with_replaced_link(link.key, replace(link, marking=marking))


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
        walk per pair."""
        facts = self._paths.get((source, target))
        if facts is None:
            facts = self._paths[(source, target)] = _path_facts(self.map, source, target)
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


def _path_sign(path: Sequence[CausalLink]) -> int:
    sign = 1
    for link in path:
        sign *= link.sign.factor
    return sign


def _iter_simple_paths(
    cmap: CausalMap, source: str, target: str
) -> Iterator[list[CausalLink]]:
    """Yield every simple directed path source -> target (no node revisits)."""
    adjacency: dict[str, list[CausalLink]] = {}
    for link in cmap.sorted_links():
        adjacency.setdefault(link.source, []).append(link)
    path: list[CausalLink] = []
    visited = {source}

    def walk(node: str) -> Iterator[list[CausalLink]]:
        for link in adjacency.get(node, ()):
            if link.target in visited:
                continue
            path.append(link)
            if link.target == target:
                yield list(path)
            else:
                visited.add(link.target)
                yield from walk(link.target)
                visited.remove(link.target)
            path.pop()

    yield from walk(source)


def _path_facts(cmap: CausalMap, source: str, target: str) -> PathFacts:
    count = vote = 0
    multi_signs: set[int] = set()
    links: dict[tuple[str, str], CausalLink] = {}
    for path in _iter_simple_paths(cmap, source, target):
        sign = _path_sign(path)
        count += 1
        vote += sign
        if len(path) >= 2:
            multi_signs.add(sign)
        for link in path:
            links.setdefault(link.key, link)
    return PathFacts(
        count=count,
        vote=vote,
        reached=frozenset(link.target for link in links.values()),
        multi_signs=frozenset(multi_signs),
        links=tuple(links.values()),
    )


@dataclass(frozen=True)
class QueryResult:
    answer: QueryAnswer
    used_links: frozenset[CausalLink]


def answer_query(
    cmap: CausalMap,
    source: str,
    target: str,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> QueryResult:
    """Propagate signs over all simple paths from source to target.

    Each path votes +1 or -1 by the product of its link signs; the vote sum
    decides the answer, with a zero sum (including "no paths") reported as
    cannot-determine.  Enumerating more than max_paths paths raises
    PathExplosion rather than truncating.
    """
    if not cmap.has_concept(source):
        raise UnknownConcept(source)
    if not cmap.has_concept(target):
        raise UnknownConcept(target)
    total = 0
    used: set[CausalLink] = set()
    n_paths = 0
    for path in _iter_simple_paths(cmap, source, target):
        n_paths += 1
        if n_paths > max_paths:
            raise PathExplosion(f"more than {max_paths} paths from {source!r} to {target!r}")
        total += _path_sign(path)
        used.update(path)
    if total > 0:
        answer = QueryAnswer.TARGET_INCREASES
    elif total < 0:
        answer = QueryAnswer.TARGET_DECREASES
    else:
        answer = QueryAnswer.CANNOT_DETERMINE
        if n_paths == 0:
            used = set()
    return QueryResult(answer, frozenset(used))


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
        if facts.count > DEFAULT_MAX_PATHS:
            raise PathExplosion(
                f"more than {DEFAULT_MAX_PATHS} paths from {source!r} to {target!r}"
            )
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
    answer exactly.
    """
    if not questions:
        raise EmptyQuiz("cannot grade an empty quiz")
    items = []
    for q in questions:
        if student.has_concept(q.source) and student.has_concept(q.target):
            result = answer_query(student, q.source, q.target, max_paths=max_paths)
            answer, used = result.answer, result.used_links
        else:
            answer, used = QueryAnswer.CANNOT_DETERMINE, frozenset()
        grade = Grade.CORRECT if answer is q.expert_answer else Grade.INCORRECT
        items.append(QuizItem(question=q, answer=answer, grade=grade, used_links=used))
    score = 100.0 * sum(1 for it in items if it.grade is Grade.CORRECT) / len(items)
    return QuizResult(scope=scope, items=tuple(items), score=score)
