"""Differential sequence mining over collapsed token streams.

Patterns are ordered label sequences matched with a gap constraint: at most
`max_gap` non-matching tokens may sit between consecutive pattern elements.
Occurrences are counted greedily left to right and never overlap; once a
match is counted, every position up to its last matched token is retired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import fmean
from typing import Optional, Sequence

from .stats import cohens_d, pooled_t, t_two_sided_p


class EmptyPattern(Exception):
    pass


@dataclass(frozen=True)
class TokenSequence:
    student_id: str
    tokens: tuple[str, ...]


@dataclass(frozen=True)
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


def _find_match(
    tokens: Sequence[str], pattern: Sequence[str], start: int, max_gap: int
) -> Optional[tuple[int, ...]]:
    """Earliest (lexicographically smallest) match with all positions >= start."""
    n = len(tokens)

    def extend(positions: list[int], idx: int) -> Optional[tuple[int, ...]]:
        if idx == len(pattern):
            return tuple(positions)
        lo = positions[-1] + 1
        hi = min(n, positions[-1] + max_gap + 2)
        for p in range(lo, hi):
            if tokens[p] == pattern[idx]:
                positions.append(p)
                found = extend(positions, idx + 1)
                if found is not None:
                    return found
                positions.pop()
        return None

    for p0 in range(start, n):
        if tokens[p0] == pattern[0]:
            found = extend([p0], 1)
            if found is not None:
                return found
    return None


def count_occurrences(tokens: Sequence[str], pattern: Sequence[str], max_gap: int) -> int:
    """Greedy non-overlapping occurrence count under the gap constraint."""
    if not pattern:
        raise EmptyPattern("pattern must contain at least one label")
    if max_gap < 0:
        raise ValueError("max_gap must be >= 0")
    count = 0
    start = 0
    while True:
        match = _find_match(tokens, pattern, start, max_gap)
        if match is None:
            return count
        count += 1
        start = match[-1] + 1


def contains_pattern(tokens: Sequence[str], pattern: Sequence[str], max_gap: int) -> bool:
    if not pattern:
        raise EmptyPattern("pattern must contain at least one label")
    return _find_match(tokens, pattern, 0, max_gap) is not None


def mine(
    group_a: Sequence[TokenSequence],
    group_b: Sequence[TokenSequence],
    max_gap: int = 1,
    s_threshold: float = 0.5,
    max_len: int = 4,
) -> list[DsmPattern]:
    """Mine every pattern of length 2..max_len whose s-support clears the
    threshold in at least one group.

    Each candidate is counted once per sequence with `count_occurrences`:
    its s-support is the share of sequences with a nonzero count, and its
    i-support and pooled t test come from the same counts.  Patterns grow by
    appending labels to the frontier, starting from single labels.  A
    sequence with no occurrence of a stem has none of its extensions either,
    so a candidate is counted only where its stem occurs, and a stem whose
    best group s-support is below the threshold is not extended.  Output is
    ordered by descending |t|, then lexicographically, so reports are
    reproducible.
    """
    if not group_a or not group_b:
        raise ValueError("both groups must be nonempty")
    if not 0.0 < s_threshold <= 1.0:
        raise ValueError("s_threshold must be in (0, 1]")
    if max_len < 2:
        raise ValueError("max_len must be >= 2")
    sequences = [seq.tokens for seq in group_a] + [seq.tokens for seq in group_b]
    if not all(sequences):
        raise ValueError("token sequences must be nonempty")
    n_a = len(group_a)
    alphabet = sorted({label for tokens in sequences for label in tokens})
    results: list[DsmPattern] = []
    # (stem, its count per sequence); the empty stem occurs in every sequence
    frontier: list[tuple[tuple[str, ...], list[int]]] = [((), [1] * len(sequences))]
    for length in range(1, max_len + 1):
        next_frontier = []
        for stem, stem_counts in frontier:
            for label in alphabet:
                pattern = stem + (label,)
                counts = [
                    count_occurrences(tokens, pattern, max_gap) if occurs else 0
                    for tokens, occurs in zip(sequences, stem_counts)
                ]
                counts_a, counts_b = counts[:n_a], counts[n_a:]
                s_a = sum(c > 0 for c in counts_a) / len(counts_a)
                s_b = sum(c > 0 for c in counts_b) / len(counts_b)
                if max(s_a, s_b) < s_threshold:
                    continue
                next_frontier.append((pattern, counts))
                if length == 1:
                    continue
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
        frontier = next_frontier
    results.sort(key=lambda r: (-abs(r.t_statistic), r.pattern))
    return results
