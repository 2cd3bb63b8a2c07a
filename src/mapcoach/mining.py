"""Differential sequence mining over collapsed token streams.

Patterns are ordered label sequences matched with a gap constraint: at most
`max_gap` non-matching tokens may sit between consecutive pattern elements.
Occurrences are counted greedily left to right and never overlap; once a
match is counted, every position up to its last matched token is retired.

Matching works on spans.  A span is the (first, last) position pair of one
match of a pattern in one sequence, and a pattern's span list holds its
distinct spans in the lexicographic order of the matches they come from.
The earliest match that starts at or after a position has the first span
in that order to start there or later, so the greedy count is one scan of
the list.  A pattern's one-label extensions get their span lists from its
own in one pass (`_extend`), growing patterns from projected occurrences
instead of rescanning the sequences, as PrefixSpan (Pei et al., ICDE 2001)
does.  Differential sequence mining itself follows Kinnebrew, Loretz &
Biswas (JEDM 2013).
"""

from __future__ import annotations

import math
from itertools import repeat
from statistics import fmean
from typing import Sequence

from ._record import record
from .stats import cohens_d, pooled_t, t_two_sided_p

Span = tuple[int, int]


class EmptyPattern(ValueError):
    pass


@record
class TokenSequence:
    student_id: str
    tokens: tuple[str, ...]


@record
class DsmPattern:
    pattern: tuple[str, ...]
    s_support_a: float
    s_support_b: float
    i_support_a: float
    i_support_b: float
    t_statistic: float
    p_value: float
    effect_size: float
    frequent_in: str  # "a", "b", or "both"


def _seed(tokens: Sequence[str]) -> dict[str, list[Span]]:
    """The span list of every single label in `tokens`."""
    spans: dict[str, list[Span]] = {}
    for p, label in enumerate(tokens):
        spans.setdefault(label, []).append((p, p))
    return spans


def _extend(tokens: Sequence[str], spans: Sequence[Span], max_gap: int) -> dict[str, list[Span]]:
    """The span lists of every one-label extension of a pattern, keyed by the
    appended label, from the pattern's span list in `tokens`.

    A match extends to each position the gap allows after its last token.
    Taking the spans in list order, and each span's next positions in
    ascending order, meets the extended matches in lexicographic order (a
    match skipped for sharing its span with an earlier one extends to spans
    already met).  A span met a second time comes from a later match and is
    dropped, so a list holds at most one entry per (first, last) pair, not
    one per match.
    """
    children: dict[str, list[Span]] = {}
    n = len(tokens)
    # the spans sharing a first position are adjacent in match order, so a
    # span was met before iff its last position was last met from that first
    met_from = [-1] * n
    for first, last in spans:
        for q in range(last + 1, min(n, last + max_gap + 2)):
            if met_from[q] != first:
                met_from[q] = first
                children.setdefault(tokens[q], []).append((first, q))
    return children


def _greedy_count(spans: Sequence[Span]) -> int:
    """Greedy non-overlapping count from a span list in match order."""
    count = 0
    start = 0
    for first, last in spans:
        if first >= start:
            count += 1
            start = last + 1
    return count


def _check_gap(max_gap: int):
    if max_gap < 0:
        raise ValueError("max_gap must be >= 0")


def _pattern_spans(tokens: Sequence[str], pattern: Sequence[str], max_gap: int) -> list[Span]:
    """The span list of `pattern` in `tokens`, grown one label at a time."""
    if not pattern:
        raise EmptyPattern("pattern must contain at least one label")
    _check_gap(max_gap)
    spans = _seed(tokens).get(pattern[0], [])
    for label in pattern[1:]:
        if not spans:
            break
        spans = _extend(tokens, spans, max_gap).get(label, [])
    return spans


def count_occurrences(tokens: Sequence[str], pattern: Sequence[str], max_gap: int) -> int:
    """Greedy non-overlapping occurrence count under the gap constraint."""
    return _greedy_count(_pattern_spans(tokens, pattern, max_gap))


def contains_pattern(tokens: Sequence[str], pattern: Sequence[str], max_gap: int) -> bool:
    return bool(_pattern_spans(tokens, pattern, max_gap))


def mine(
    group_a: Sequence[TokenSequence],
    group_b: Sequence[TokenSequence],
    max_gap: int = 1,
    s_threshold: float = 0.5,
    max_len: int = 4,
) -> list[DsmPattern]:
    """Mine every pattern of length 2..max_len whose s-support clears the
    threshold in at least one group.

    The single labels' span lists seed a depth-first walk of the pattern
    tree, and each pattern's one-label extensions get their span lists from
    its own in one `_extend` pass per sequence.  A pattern's s-support is the
    share of sequences where its span list is nonempty; for a kept pattern,
    one greedy scan of each span list gives the counts behind its i-support
    and pooled t test.  An extension can only occur where its stem does, so
    a pattern whose best group s-support is below the threshold is not
    extended.  Output is ordered by descending |t|, then lexicographically,
    so reports are reproducible whatever the walk order.
    """
    if not group_a or not group_b:
        raise ValueError("both groups must be nonempty")
    if not 0.0 < s_threshold <= 1.0:
        raise ValueError("s_threshold must be in (0, 1]")
    if max_len < 2:
        raise ValueError("max_len must be >= 2")
    _check_gap(max_gap)
    sequences = [seq.tokens for seq in group_a] + [seq.tokens for seq in group_b]
    if not all(sequences):
        raise ValueError("token sequences must be nonempty")
    n_a = len(group_a)
    results: list[DsmPattern] = []
    # Stems waiting to be extended, deepest last, each with a lazy map that
    # builds its extensions' span lists per sequence once it is popped: only
    # the span lists of waiting stems stay alive, not those of their children.
    stack = [((), map(_seed, sequences))]
    while stack:
        stem, pending = stack.pop()
        extensions = list(pending)
        for label in sorted(set().union(*extensions)):
            pattern = stem + (label,)
            spans = [ext.get(label, ()) for ext in extensions]
            # a sequence contains the pattern iff its span list is nonempty
            s_a = sum(map(bool, spans[:n_a])) / n_a
            s_b = sum(map(bool, spans[n_a:])) / len(group_b)
            if max(s_a, s_b) < s_threshold:
                continue
            if len(pattern) < max_len:
                stack.append((pattern, map(_extend, sequences, spans, repeat(max_gap))))
            if len(pattern) == 1:
                continue
            counts = [_greedy_count(s) for s in spans]
            counts_a, counts_b = counts[:n_a], counts[n_a:]
            if len(counts) > 2:
                t, df = pooled_t(counts_a, counts_b)
                p, d = t_two_sided_p(t, df), cohens_d(counts_a, counts_b)
            elif counts_a[0] == counts_b[0]:  # one student per group: no df
                t, p, d = 0.0, 1.0, 0.0
            else:
                t, p, d = math.copysign(math.inf, counts_a[0] - counts_b[0]), 0.0, math.inf
            frequent = (
                "both"
                if s_a >= s_threshold and s_b >= s_threshold
                else ("a" if s_a >= s_threshold else "b")
            )
            results.append(
                DsmPattern(
                    pattern=pattern,
                    s_support_a=s_a,
                    s_support_b=s_b,
                    i_support_a=fmean(counts_a),
                    i_support_b=fmean(counts_b),
                    t_statistic=t,
                    p_value=p,
                    effect_size=d,
                    frequent_in=frequent,
                )
            )
    results.sort(key=lambda r: (-abs(r.t_statistic), r.pattern))
    return results
