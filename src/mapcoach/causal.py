"""Causal maps: signed concept graphs, scoring against an expert map,
sign-propagation queries, and quiz generation/grading."""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence

from ._record import record


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


class MapError(ValueError):
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


@record
class Concept:
    id: str
    name: str
    section: str


@record
class CausalLink:
    source: str
    target: str
    sign: Sign
    marking: Marking = Marking.UNMARKED
    source_page: Optional[str] = None

    def __hash__(self) -> int:
        # equal links share a pair, and a pair's hash skips the enum fields
        return hash((self.source, self.target))

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
            self._check_link(link)
            if link.key in self._links:
                raise MapError(f"duplicate link for pair {link.key}")
            self._links[link.key] = link
        self._adjacency: Optional[_Adjacency] = None

    def _check_link(self, link: CausalLink):
        if link.source not in self._concepts or link.target not in self._concepts:
            raise MapError(f"link {link.display()} references a missing concept")
        if link.source == link.target:
            raise MapError(f"self-loop on {link.source!r}")

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
            self._adjacency = _Adjacency(self._concepts, self._links)
        return self._adjacency

    # -- functional updates ------------------------------------------------
    #
    # Each update copies the parent's dicts, or shares one it leaves as it
    # is, and checks only the concept or link it adds; the entries it keeps
    # were checked when the parent was built.

    def _derived(
        self, concepts: dict[str, Concept], links: dict[tuple[str, str], CausalLink]
    ) -> "CausalMap":
        child = CausalMap.__new__(CausalMap)
        child._concepts, child._links, child._adjacency = concepts, links, None
        return child

    def with_concept(self, concept: Concept) -> "CausalMap":
        if concept.id in self._concepts:
            raise MapError(f"concept {concept.id!r} already present")
        concepts = dict(self._concepts)
        concepts[concept.id] = concept
        return self._derived(concepts, self._links)

    def without_concept(self, concept_id: str) -> "CausalMap":
        """Drop a concept along with every incident link."""
        if concept_id not in self._concepts:
            raise UnknownConcept(concept_id)
        concepts = {k: c for k, c in self._concepts.items() if k != concept_id}
        links = {k: l for k, l in self._links.items() if concept_id not in k}
        return self._derived(concepts, links)

    def with_link(self, link: CausalLink) -> "CausalMap":
        if link.key in self._links:
            raise MapError(f"pair {link.key} already linked")
        self._check_link(link)
        links = dict(self._links)
        links[link.key] = link
        return self._derived(self._concepts, links)

    def without_link(self, source: str, target: str) -> "CausalMap":
        if (source, target) not in self._links:
            raise UnknownLink(f"{source}->{target}")
        links = dict(self._links)
        del links[(source, target)]
        return self._derived(self._concepts, links)

    def with_replaced_link(self, old_key: tuple[str, str], new: CausalLink) -> "CausalMap":
        """Drop the link at old_key and add new as the last link."""
        if old_key not in self._links:
            raise UnknownLink(f"{old_key[0]}->{old_key[1]}")
        links = dict(self._links)
        del links[old_key]
        if new.key in links:
            raise MapError(f"pair {new.key} already linked")
        self._check_link(new)
        links[new.key] = new
        return self._derived(self._concepts, links)


class ExpertMap:
    """A causal map acting as ground truth, with page provenance per link.

    Every link must carry a source page; the derived page index maps each
    page to the set of link pairs it supports.  Each source's path counts
    and votes (`tally`), shortcuts (`shortcuts`) and quiz banks
    (`generate_quiz`) are computed on first use and memoised on the
    instance, so its map must not change after construction.
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
        self._walks: dict[int, tuple[list[int], list[int]]] = {}
        self._quizzes: dict[QuizScope, tuple[QuizQuestion, ...]] = {}
        self._shortcuts: Optional[tuple[CausalLink, ...]] = None

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

    def tally(self, source: str, target: str) -> tuple[int, int]:
        """The number of simple expert paths source -> target and their vote
        (sum of path signs), (0, 0) for a concept the map lacks.  One
        unpruned walk per source counts every target's paths, and is
        memoised; it raises PathExplosion when the source has more than
        DEFAULT_MAX_PATHS paths to any concept."""
        adjacency = self.map._compiled()
        s, t = adjacency.number.get(source), adjacency.number.get(target)
        if s is None or t is None:
            return 0, 0
        if s not in self._walks:
            self._walks[s] = _walk(adjacency, s, None, DEFAULT_MAX_PATHS)[:2]
        counts, votes = self._walks[s]
        return counts[t], votes[t]

    def path_links(self, source: str, target: str) -> tuple[CausalLink, ...]:
        """The distinct links of the simple expert paths source -> target, in
        the order the walk first meets them, from one pruned walk; () for a
        concept the map lacks.  PathExplosion as for answer_query."""
        adjacency = self.map._compiled()
        s, t = adjacency.number.get(source), adjacency.number.get(target)
        if s is None or t is None:
            return ()
        return tuple(map(adjacency.links.__getitem__, _walk(adjacency, s, t, DEFAULT_MAX_PATHS)[2]))

    def shortcuts(self) -> tuple[CausalLink, ...]:
        """One link per sign of the paths between each pair with no direct
        expert link, ordered by (source, target, sign); every such path has
        two or more links."""
        if self._shortcuts is None:
            concepts = sorted(self.map.concepts)
            self._shortcuts = tuple(
                CausalLink(source=s, target=t, sign=sign)
                for s in concepts
                for t in concepts
                if s != t and (s, t) not in self.map.links
                for sign in (Sign.DECREASE, Sign.INCREASE)
                if _has_path_of_sign(self.tally(s, t), sign)
            )
        return self._shortcuts


# -- scoring ---------------------------------------------------------------


def is_correct_link(link: CausalLink, expert: ExpertMap) -> bool:
    """Whether the expert map has the link's pair with the link's sign."""
    expert_link = expert.map._links.get((link.source, link.target))
    return expert_link is not None and expert_link.sign is link.sign


def map_score(student: CausalMap, expert: ExpertMap) -> int:
    """Correct links minus incorrect links; a link is correct iff its
    (source, target, sign) triple appears in the expert map."""
    expert_links = expert.map._links
    correct = 0
    for key, link in student._links.items():
        expert_link = expert_links.get(key)
        if expert_link is not None and expert_link.sign is link.sign:
            correct += 1
    return 2 * correct - len(student._links)


def classify_link(link: CausalLink, expert: ExpertMap) -> LinkClass:
    """Classify a student link against the expert map.

    A shortcut is a direct link standing in for a multi-step expert path
    with the same net sign, where no direct expert link exists for the
    pair.
    """
    if is_correct_link(link, expert):
        return LinkClass.CORRECT
    expert_link = expert.links.get(link.key)
    if link.source not in expert.concepts or link.target not in expert.concepts:
        return LinkClass.INCORRECT
    if expert_link is not None:
        return LinkClass.INCORRECT
    if _has_path_of_sign(expert.tally(link.source, link.target), link.sign):
        return LinkClass.INCORRECT_SHORTCUT
    return LinkClass.INCORRECT


def _has_path_of_sign(tally: tuple[int, int], sign: Sign) -> bool:
    # of count paths with vote v, (count + sign * v) / 2 have the sign
    count, vote = tally
    return count + sign.factor * vote > 0


# -- sign propagation --------------------------------------------------------


class _Adjacency:
    """A map compiled for walking.  The concepts are numbered in sorted id
    order: `names[n]` is concept n and `number[name]` its number.  The
    links are listed in sorted (source, target) order, and `forward[n]`
    holds concept n's entries (target number, sign factor, link index) in
    that order.  Each concept's source numbers, which only a walk to one
    target reads, are listed on first use."""

    __slots__ = ("names", "number", "links", "forward", "_sources")

    def __init__(self, concepts: Iterable[str], links: Mapping[tuple[str, str], CausalLink]):
        names = sorted(concepts)
        number = {name: n for n, name in enumerate(names)}
        ordered: list[CausalLink] = []
        increase = Sign.INCREASE
        forward: list[list[tuple[int, int, int]]] = [[] for _ in names]
        for index, key in enumerate(sorted(links)):
            link = links[key]
            ordered.append(link)
            forward[number[key[0]]].append(
                (number[key[1]], 1 if link.sign is increase else -1, index)
            )
        self.names, self.number, self.links, self.forward = names, number, ordered, forward
        self._sources: Optional[list[list[int]]] = None

    def sources(self) -> list[list[int]]:
        if self._sources is None:
            sources: list[list[int]] = [[] for _ in self.names]
            for source, entries in enumerate(self.forward):
                for target, _, _ in entries:
                    sources[target].append(source)
            self._sources = sources
        return self._sources


def _answer(vote: int) -> QueryAnswer:
    if vote > 0:
        return QueryAnswer.TARGET_INCREASES
    if vote < 0:
        return QueryAnswer.TARGET_DECREASES
    return QueryAnswer.CANNOT_DETERMINE


def _walk(
    adjacency: _Adjacency,
    source: int,
    target: Optional[int],
    max_paths: int,
) -> tuple[list[int], list[int], dict[int, None]]:
    """Walk the simple paths from concept number source, depth first in
    sorted link order.

    With a target, the walk is pruned: it steps only onto concepts that can
    reach the target without passing through source, never past the
    target, and counts, votes and records the links of the paths to the
    target alone.  Without one, it is unpruned: it steps onto every concept
    not already on the path, and counts and votes the paths to every
    concept it reaches, recording no links.  A pruned walk's paths, and
    their order, are those of the unpruned walk that end at its target, and
    it takes a subset of the unpruned walk's steps.

    Either walk raises PathExplosion when a counted concept has more than
    max_paths paths, or after max_paths link steps per concept of the map.
    A pruned walk without dead ends takes at most (number of paths) x (path
    length) steps, so only dead-end blow-ups meet that budget; an unpruned
    walk counts a path at every step, so the path bound stops it first.  The walk
    keeps its own stack, so a path may be longer than the interpreter's
    recursion limit.  Concepts are numbers throughout; their names are
    looked up only for the PathExplosion message.  Returns the path count
    and the vote (sum of path signs) of each concept by number, zero for a
    concept it did not count, and the indices into the compiled links of
    the paths' links in the order the walk first meets them, which stay
    empty for an unpruned walk.
    """
    forward = adjacency.forward
    n = len(forward)
    counts = [0] * n
    votes = [0] * n
    links: dict[int, None] = {}
    if not forward[source] or source == target:
        return counts, votes, links
    if target is None:
        # every concept not on the current path
        open_ = [True] * n
    else:
        # the concepts that can reach target without passing through source
        # and are not on the current path
        sources = adjacency.sources()
        open_ = [False] * n
        open_[target] = True
        frontier = [target]
        while frontier:
            for pred in sources[frontier.pop()]:
                if not open_[pred] and pred != source:
                    open_[pred] = True
                    frontier.append(pred)
    open_[source] = False
    budget = max_paths * n
    steps = 0
    # one frame per concept on the current path after source: the links left
    # and the path sign at its predecessor, the concept, and the index of
    # the link into it
    frames: list[tuple] = []
    links_left = iter(forward[source])
    path_sign = 1
    while True:
        for nxt, factor, index in links_left:
            if not open_[nxt]:
                continue
            steps += 1
            if steps > budget:
                names = adjacency.names
                raise PathExplosion(
                    f"more than {budget} link steps searching paths from {names[source]!r} "
                    f"to {None if target is None else names[target]!r}"
                )
            sign = path_sign * factor
            if target is None or nxt == target:
                count = counts[nxt] = counts[nxt] + 1
                if count > max_paths:
                    names = adjacency.names
                    raise PathExplosion(
                        f"more than {max_paths} paths from {names[source]!r} to {names[nxt]!r}"
                    )
                votes[nxt] += sign
                if target is not None:
                    for frame in frames:
                        links[frame[3]] = None
                    links[index] = None
                    continue
            if forward[nxt]:
                open_[nxt] = False
                frames.append((links_left, path_sign, nxt, index))
                links_left, path_sign = iter(forward[nxt]), sign
                break
        else:
            if not frames:
                return counts, votes, links
            links_left, path_sign, left, _ = frames.pop()
            open_[left] = True


@record
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
    the map, raises PathExplosion.  It is _walk's pruned walk: it steps only
    onto concepts that can still reach the target, so the step budget is
    met only by maps whose dead ends blow up, never by one with at most
    max_paths paths and no dead ends.  The used links are those of every
    path to the target.
    """
    if not cmap.has_concept(source):
        raise UnknownConcept(source)
    if not cmap.has_concept(target):
        raise UnknownConcept(target)
    adjacency = cmap._compiled()
    t = adjacency.number[target]
    _, votes, indices = _walk(adjacency, adjacency.number[source], t, max_paths)
    if not indices:
        return _NO_PATHS
    used = frozenset(map(adjacency.links.__getitem__, indices))
    return QueryResult(_answer(votes[t]), used)


# -- quizzes -----------------------------------------------------------------


@record
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


@record
class QuizQuestion:
    """If `source` increases, what happens to `target`? `expert_answer` is
    the expert map's answer."""

    source: str
    target: str
    expert_answer: QueryAnswer


@record
class QuizItem:
    question: QuizQuestion
    answer: QueryAnswer
    grade: Grade


class QuizResult:
    """A quiz taken on a student map: its questions, in order, and the
    student's answer to each.

    It is graded, by a call of `grade_quiz`, the first time its answers,
    score, n_correct, n_incorrect or items is read, and keeps the grading,
    so a quiz that nothing reads is never graded and a `PathExplosion`
    surfaces only at a read.  `grade_quiz` returns one already graded.  The
    per-question items are built each time they are read.
    """

    __slots__ = ("student", "questions", "scope", "_answers", "_n_correct")

    def __init__(self, student: CausalMap, questions: Sequence[QuizQuestion],
                 scope: QuizScope = QuizScope.everything()):
        self.student = student
        self.questions = tuple(questions)
        self.scope = scope
        self._answers: Optional[tuple[QueryAnswer, ...]] = None
        self._n_correct = 0

    def _graded(self) -> "QuizResult":
        if self._answers is None:
            graded = grade_quiz(self.student, self.questions, scope=self.scope)
            self._answers, self._n_correct = graded._answers, graded._n_correct
        return self

    @property
    def answers(self) -> tuple[QueryAnswer, ...]:
        return self._graded()._answers

    @property
    def n_correct(self) -> int:
        return self._graded()._n_correct

    @property
    def score(self) -> float:
        return 100.0 * self.n_correct / len(self.questions)

    @property
    def n_incorrect(self) -> int:
        return len(self.questions) - self.n_correct

    @property
    def items(self) -> tuple[QuizItem, ...]:
        return tuple(
            QuizItem(q, answer, Grade.CORRECT if answer is q.expert_answer else Grade.INCORRECT)
            for q, answer in zip(self.questions, self.answers)
        )


def generate_quiz(
    expert: ExpertMap,
    scope: QuizScope = QuizScope.everything(),
) -> list[QuizQuestion]:
    """One question per ordered concept pair with a determinate expert answer.

    A section-scoped quiz keeps only pairs whose connecting expert paths lie
    entirely inside the section's concepts: those with as many paths over
    the section's own links, counted by one walk per source, as over the
    whole map.  Question order is lexicographic by (source, target) so
    quizzes are reproducible.  The bank is memoised per scope on the expert
    map; each call returns a fresh list.
    """
    bank = expert._quizzes.get(scope)
    if bank is not None:
        return list(bank)
    names, inside = sorted(expert.concepts), None
    if scope.kind == "section":
        sections = expert.sections()
        if scope.section not in sections:
            raise UnknownSection(f"unknown quiz section {scope.section!r}")
        allowed = sections[scope.section]
        names = sorted(allowed)
        inside = _Adjacency(names, {key: link for key, link in expert.links.items()
                                    if key[0] in allowed and key[1] in allowed})
    questions: list[QuizQuestion] = []
    for s, source in enumerate(names):
        tallies = [expert.tally(source, target) for target in names]
        if inside is not None:
            inside_counts = _walk(inside, s, None, DEFAULT_MAX_PATHS)[0]
        for t, (count, vote) in enumerate(tallies):
            if vote == 0 or inside is not None and inside_counts[t] != count:
                continue
            questions.append(QuizQuestion(source, names[t], _answer(vote)))
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
    answer exactly.  The questions are answered in order; the first
    question from a source walks that source once, unpruned, and the votes
    it leaves answer every question from it (see _walk).  That walk keeps
    answer_query's bound, and a pruned walk to one target takes a subset
    of its steps and finds the same paths, so when it finishes its votes
    are answer_query's answers.  When it raises PathExplosion, the
    questions from that source are answered one by one through
    answer_query, so the result, or the exception, is always the one
    per-question grading gives.
    """
    if not questions:
        raise EmptyQuiz("cannot grade an empty quiz")
    adjacency = student._compiled()
    number = adjacency.number
    increases, decreases = QueryAnswer.TARGET_INCREASES, QueryAnswer.TARGET_DECREASES
    cannot = QueryAnswer.CANNOT_DETERMINE
    votes_from: dict[int, Optional[list[int]]] = {}  # None: the walk raised
    answers = []
    n_correct = 0
    for q in questions:
        source, target = number.get(q.source), number.get(q.target)
        answer = cannot
        if source is not None and target is not None:
            if source in votes_from:
                votes = votes_from[source]
            else:
                try:
                    votes = _walk(adjacency, source, None, max_paths)[1]
                except PathExplosion:
                    votes = None
                votes_from[source] = votes
            if votes is None:
                answer = answer_query(student, q.source, q.target, max_paths).answer
            else:
                vote = votes[target]
                if vote > 0:
                    answer = increases
                elif vote < 0:
                    answer = decreases
        if answer is q.expert_answer:
            n_correct += 1
        answers.append(answer)
    result = QuizResult(student, questions, scope)
    result._answers, result._n_correct = tuple(answers), n_correct
    return result
