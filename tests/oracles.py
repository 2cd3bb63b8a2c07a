"""Independent brute-force oracles used to check the library's efficient
implementations.  Everything here is deliberately naive and shares no code
with the package beyond its public data types."""

from __future__ import annotations

import itertools
import random
from dataclasses import replace
from typing import Optional, Sequence

from mapcoach.annotate import ActionEvent, ActionKind, MapEdit, MapEditAction
from mapcoach.causal import (
    CausalLink,
    CausalMap,
    Concept,
    ExpertMap,
    MapError,
    Sign,
    UnknownConcept,
    UnknownLink,
)


# -- signed-path reasoning ------------------------------------------------------


def brute_simple_paths(
    links: dict[tuple[str, str], int], source: str, target: str
) -> list[list[tuple[str, str]]]:
    """All simple paths via plain recursion over an edge dict (pair -> +-1)."""
    adjacency: dict[str, list[str]] = {}
    for s, t in links:
        adjacency.setdefault(s, []).append(t)
    for outs in adjacency.values():
        outs.sort()
    paths: list[list[tuple[str, str]]] = []

    def walk(node: str, visited: set[str], acc: list[tuple[str, str]]):
        if node == target:
            paths.append(list(acc))
            return
        for nxt in adjacency.get(node, ()):
            if nxt in visited:
                continue
            visited.add(nxt)
            acc.append((node, nxt))
            walk(nxt, visited, acc)
            acc.pop()
            visited.discard(nxt)

    if source != target:
        walk(source, {source}, [])
    return paths


def brute_query(links: dict[tuple[str, str], int], source: str, target: str) -> str:
    """'increases' / 'decreases' / 'cannot' by summing path sign products."""
    total = 0
    for path in brute_simple_paths(links, source, target):
        sign = 1
        for pair in path:
            sign *= links[pair]
        total += sign
    if total > 0:
        return "increases"
    if total < 0:
        return "decreases"
    return "cannot"


def brute_map_score(
    student: Sequence[tuple[str, str, int]], expert: Sequence[tuple[str, str, int]]
) -> int:
    expert_set = set(expert)
    return sum(1 if triple in expert_set else -1 for triple in student)


def edge_dict(cmap: CausalMap) -> dict[tuple[str, str], int]:
    return {key: link.sign.factor for key, link in cmap.links.items()}


def triples(cmap: CausalMap) -> list[tuple[str, str, int]]:
    return [(l.source, l.target, l.sign.factor) for l in cmap.links.values()]


# -- random maps -----------------------------------------------------------------


def random_map(
    rng: random.Random,
    max_concepts: int = 8,
    max_links: int = 14,
    with_pages: bool = False,
) -> CausalMap:
    n = rng.randint(2, max_concepts)
    ids = [f"c{i}" for i in range(n)]
    concepts = [Concept(id=i, name=i.upper(), section="s") for i in ids]
    pairs = [(s, t) for s in ids for t in ids if s != t]
    rng.shuffle(pairs)
    n_links = rng.randint(0, min(max_links, len(pairs)))
    links = []
    for i, (s, t) in enumerate(pairs[:n_links]):
        links.append(
            CausalLink(
                source=s,
                target=t,
                sign=Sign.INCREASE if rng.random() < 0.5 else Sign.DECREASE,
                source_page=f"p{i % 3}" if with_pages else None,
            )
        )
    return CausalMap(concepts, links)


def random_expert(rng: random.Random, max_concepts: int = 8, max_links: int = 14) -> ExpertMap:
    while True:
        cmap = random_map(rng, max_concepts, max_links, with_pages=True)
        if cmap.links:
            return ExpertMap(cmap)


# -- map edits ---------------------------------------------------------------------


def rebuilt_after_edit(cmap: CausalMap, edit: MapEdit) -> CausalMap:
    """The map an edit leaves, built from scratch by the CausalMap
    constructor from lists of the kept and new entries, after the checks
    each edit makes before it touches the map."""
    concepts = list(cmap.concepts.values())
    links = list(cmap.links.values())

    def replaced(old_key, new):
        kept = [l for l in links if l.key != old_key]
        if any(l.key == new.key for l in kept):
            raise MapError(f"pair {new.key} already linked")
        return CausalMap(concepts, kept + [new])

    def need_endpoints(link):
        if link.source not in cmap.concepts or link.target not in cmap.concepts:
            raise MapError(f"link {link.display()} references a missing concept")

    a = edit.action
    if a is MapEditAction.ADD_CONCEPT:
        if edit.concept.id in cmap.concepts:
            raise MapError(f"concept {edit.concept.id!r} already present")
        return CausalMap(concepts + [edit.concept], links)
    if a is MapEditAction.DELETE_CONCEPT:
        gone = edit.concept_id
        if gone not in cmap.concepts:
            raise UnknownConcept(gone)
        return CausalMap(
            [c for c in concepts if c.id != gone], [l for l in links if gone not in l.key]
        )
    if a is MapEditAction.ADD_LINK:
        need_endpoints(edit.link)
        if edit.link.key in cmap.links:
            raise MapError(f"pair {edit.link.key} already linked")
        return CausalMap(concepts, links + [edit.link])
    if a is MapEditAction.DELETE_LINK:
        if (edit.source, edit.target) not in cmap.links:
            raise UnknownLink(f"{edit.source}->{edit.target}")
        return CausalMap(concepts, [l for l in links if l.key != (edit.source, edit.target)])
    if a is MapEditAction.MODIFY_LINK:
        old = cmap.links.get(edit.old.key)
        if old is None or old.triple != edit.old.triple:
            raise MapError(f"no link {edit.old.display()} to modify")
        new = replace(edit.new, marking=old.marking)
        need_endpoints(new)
        return replaced(old.key, new)
    link = cmap.links.get((edit.source, edit.target))
    if link is None:
        raise MapError(f"no link {edit.source}->{edit.target} to mark")
    return replaced(link.key, replace(link, marking=edit.marking))


def brute_coherence(
    events: Sequence[ActionEvent], expert: ExpertMap, lookback: Optional[float] = None
) -> list[Optional[bool]]:
    """Each event's `coherent`: None unless it adds or modifies a link, else
    whether some earlier read, no more than `lookback` seconds before it
    when a lookback is given, was of the source page of an expert link
    with the pair the edit leaves.  Every earlier read is rescanned."""
    out: list[Optional[bool]] = []
    reads: list[tuple[float, str]] = []
    for event in events:
        if event.kind is ActionKind.READ and event.page is not None:
            reads.append((event.timestamp, event.page))
        edit = event.edit if event.kind is ActionKind.MAP_EDIT else None
        if edit is None or edit.action not in (MapEditAction.ADD_LINK, MapEditAction.MODIFY_LINK):
            out.append(None)
            continue
        link = edit.link if edit.action is MapEditAction.ADD_LINK else edit.new
        pages = {l.source_page for l in expert.map.links.values()
                 if (l.source, l.target) == (link.source, link.target)}
        horizon = None if lookback is None else event.timestamp - lookback
        out.append(any(
            page in pages and (horizon is None or ts >= horizon) for ts, page in reads
        ))
    return out


# -- greedy gap-constrained pattern matching ---------------------------------------


def brute_all_matches(
    tokens: Sequence[str], pattern: Sequence[str], max_gap: int
) -> list[tuple[int, ...]]:
    """Every index tuple that matches, by filtering all combinations."""
    n, k = len(tokens), len(pattern)
    out = []
    for combo in itertools.combinations(range(n), k):
        if any(tokens[i] != p for i, p in zip(combo, pattern)):
            continue
        if any(b - a - 1 > max_gap for a, b in zip(combo, combo[1:])):
            continue
        out.append(combo)
    return out


def brute_greedy_count(tokens: Sequence[str], pattern: Sequence[str], max_gap: int) -> int:
    """Greedy non-overlapping count: repeatedly take the lexicographically
    smallest remaining match and retire everything up to its last token."""
    count = 0
    floor = 0
    while True:
        matches = [m for m in brute_all_matches(tokens, pattern, max_gap) if m[0] >= floor]
        if not matches:
            return count
        best = min(matches)
        count += 1
        floor = best[-1] + 1


def brute_contains(tokens: Sequence[str], pattern: Sequence[str], max_gap: int) -> bool:
    return bool(brute_all_matches(tokens, pattern, max_gap))


def brute_exists_fast(tokens: Sequence[str], pattern: Sequence[str], max_gap: int) -> bool:
    """Recursive existence check (cheaper than combinations for long inputs)."""

    def rec(pos: int, idx: int) -> bool:
        if idx == len(pattern):
            return True
        hi = len(tokens) if idx == 0 else min(len(tokens), pos + max_gap + 2)
        start = pos if idx == 0 else pos + 1
        for i in range(start, hi):
            if tokens[i] == pattern[idx] and rec(i, idx + 1):
                return True
        return False

    return rec(0, 0)


def brute_greedy_count_fast(tokens: Sequence[str], pattern: Sequence[str], max_gap: int) -> int:
    """Greedy count via recursive lexicographically-first match selection."""

    def first_match(floor: int) -> Optional[tuple[int, ...]]:
        def rec(positions: list[int], idx: int) -> Optional[tuple[int, ...]]:
            if idx == len(pattern):
                return tuple(positions)
            lo = positions[-1] + 1
            hi = min(len(tokens), positions[-1] + max_gap + 2)
            for i in range(lo, hi):
                if tokens[i] == pattern[idx]:
                    positions.append(i)
                    got = rec(positions, idx + 1)
                    if got is not None:
                        return got
                    positions.pop()
            return None

        for start in range(floor, len(tokens)):
            if tokens[start] == pattern[0]:
                got = rec([start], 1)
                if got is not None:
                    return got
        return None

    count = 0
    floor = 0
    while True:
        match = first_match(floor)
        if match is None:
            return count
        count += 1
        floor = match[-1] + 1


# -- scaffold-anchored intervals -----------------------------------------------------


def interval_edit_scores(annotated: Sequence, span: tuple[float, float]) -> list[int]:
    """Map scores after each map edit falling in [start, end) of a span, by a
    scan of the whole annotated log.  Half-open spans keep the interval
    tiling exact: an edit at a delivery time belongs to the interval that
    starts there."""
    start, end = span
    return [
        e.map_score_after
        for e in annotated
        if e.kind is ActionKind.MAP_EDIT and start <= e.timestamp < end
    ]


# -- ordinary least squares ---------------------------------------------------------


def brute_ols_slope(ys: Sequence[float]) -> float:
    """Closed-form OLS slope against 0..n-1 via raw sums."""
    n = len(ys)
    xs = list(range(n))
    sx, sy = sum(xs), sum(ys)
    sxy = sum(x * y for x, y in zip(xs, ys))
    sxx = sum(x * x for x in xs)
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)
