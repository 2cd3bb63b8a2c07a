"""Outcome measures and scaffold-impact analysis: normalized learning gain,
median-split grouping, scaffold-anchored before/after intervals, map-score
slope, and affect aggregation."""

from __future__ import annotations

import math
import statistics
from bisect import bisect_left, bisect_right
from enum import Enum
from typing import Mapping, Optional, Sequence

from ._record import record
from .annotate import ActionKind, AnnotatedEvent
from .engine import ScaffoldDelivery, ScaffoldKind


class DegenerateDenominator(ValueError):
    pass


class InsufficientEdits(ValueError):
    pass


class NoObservationsInSpan(ValueError):
    pass


def nlg(pre: float, post: float, max_score: float) -> float:
    """Normalized learning gain: (post - pre) / (max - pre)."""
    if pre >= max_score:
        raise DegenerateDenominator(f"pre {pre} >= max {max_score}")
    return (post - pre) / (max_score - pre)


@record
class OutcomeRecord:
    student_id: str
    pre: float
    post: float
    max_score: float

    @property
    def nlg(self) -> float:
        return nlg(self.pre, self.post, self.max_score)


# -- grouping ---------------------------------------------------------------


@record
class MedianSplit:
    median: float
    high: frozenset[str]
    low: frozenset[str]
    excluded: frozenset[str]


def median_split(final_scores: Mapping[str, float], band: float = 1.0) -> MedianSplit:
    """Split students on the median of their final map scores.

    Students within `band` of the median are excluded to separate the
    groups; the median is computed on everyone before exclusion.
    """
    if len(final_scores) < 2:
        raise ValueError("need at least 2 students")
    median = statistics.median(final_scores.values())
    high, low, excluded = set(), set(), set()
    for student, score in final_scores.items():
        if abs(score - median) <= band:
            excluded.add(student)
        elif score > median:
            high.add(student)
        else:
            low.add(student)
    return MedianSplit(
        median=median,
        high=frozenset(high),
        low=frozenset(low),
        excluded=frozenset(excluded),
    )


# -- before/after intervals ------------------------------------------------------


class Phase(str, Enum):
    BEFORE = "before"
    AFTER = "after"


@record
class ScaffoldInterval:
    student_id: str
    kind: ScaffoldKind
    phase: Phase
    span: tuple[float, float]
    ordinal: int  # 1-based occurrence number of this kind for the student


def segment_intervals(
    deliveries: Sequence[ScaffoldDelivery], session_end: float
) -> list[ScaffoldInterval]:
    """Before/after intervals anchored at each delivery.

    A delivery's before interval runs from the previous delivery of any kind
    (or session start) to the delivery; its after interval runs to the next
    delivery of any kind (or session end).
    """
    ordered = sorted(deliveries, key=lambda d: d.timestamp)
    ordinals: dict[ScaffoldKind, int] = {}
    out: list[ScaffoldInterval] = []
    for i, d in enumerate(ordered):
        ordinals[d.kind] = ordinals.get(d.kind, 0) + 1
        before_start = ordered[i - 1].timestamp if i > 0 else 0.0
        after_end = ordered[i + 1].timestamp if i + 1 < len(ordered) else session_end
        out.append(
            ScaffoldInterval(
                student_id=d.student_id,
                kind=d.kind,
                phase=Phase.BEFORE,
                span=(before_start, d.timestamp),
                ordinal=ordinals[d.kind],
            )
        )
        out.append(
            ScaffoldInterval(
                student_id=d.student_id,
                kind=d.kind,
                phase=Phase.AFTER,
                span=(d.timestamp, after_end),
                ordinal=ordinals[d.kind],
            )
        )
    return out


def map_score_slope(scores: Sequence[float]) -> float:
    """OLS slope of map score against edit ordinal 0, 1, 2, ..."""
    n = len(scores)
    if n < 2:
        raise InsufficientEdits(f"need at least 2 edits, got {n}")
    mean_x = (n - 1) / 2.0
    mean_y = statistics.fmean(scores)
    sxy = sum((i - mean_x) * (y - mean_y) for i, y in enumerate(scores))
    sxx = sum((i - mean_x) ** 2 for i in range(n))
    return sxy / sxx


# -- affect -----------------------------------------------------------------------


class Emotion(str, Enum):
    ENGAGED_CONCENTRATION = "engaged_concentration"
    BOREDOM = "boredom"
    DELIGHT = "delight"
    CONFUSION = "confusion"
    FRUSTRATION = "frustration"


@record
class AffectObservation:
    student_id: str
    timestamp: float
    likelihoods: Mapping[Emotion, float]


def affect_aggregate(
    observations: Sequence[AffectObservation], span: tuple[float, float]
) -> dict[Emotion, float]:
    """Mean likelihood per emotion over observations inside [start, end]."""
    start, end = span
    if end < start:
        raise NoObservationsInSpan(f"empty span ({start}, {end})")
    hits = [o for o in observations if start <= o.timestamp <= end]
    if not hits:
        raise NoObservationsInSpan(f"no observations in ({start}, {end})")
    return _mean_likelihoods(hits)


def _mean_likelihoods(hits: Sequence[AffectObservation]) -> dict[Emotion, float]:
    # fsum is exact, so the means do not depend on the order of hits; the
    # sum over the count is statistics.fmean's own formula, bit for bit
    return {
        emotion: math.fsum([o.likelihoods[emotion] for o in hits]) / len(hits)
        for emotion in Emotion
    }


# -- scaffold impact --------------------------------------------------------------


@record
class StudentRecord:
    """One student's complete analyzed session, as the impact analysis needs it."""

    student_id: str
    annotated: Sequence[AnnotatedEvent]
    deliveries: Sequence[ScaffoldDelivery]
    affect: Sequence[AffectObservation] = ()
    session_end: float = 0.0


@record
class ImpactCell:
    group: str
    kind: ScaffoldKind
    ordinal: Optional[int]  # None = pooled across ordinals
    phase: Phase
    mean_slope: Optional[float]
    n_intervals: int
    affect_means: dict[Emotion, float]


class _Timeline:
    """One student's map edits and affect observations, each sorted by time
    once, so that an interval is two bisections rather than a scan of the
    whole log.  `edit_scores` and `affect_means` give what a scan of the
    unsorted logs and affect_aggregate give."""

    def __init__(self, annotated: Sequence[AnnotatedEvent], affect: Sequence[AffectObservation]):
        # (time, log position, score): equal times keep their log order
        edits = sorted(
            (e.timestamp, position, e.map_score_after)
            for position, e in enumerate(annotated)
            if e.kind is ActionKind.MAP_EDIT
        )
        self._edit_times = [t for t, _, _ in edits]
        self._edits = [(position, score) for _, position, score in edits]
        self._affect = sorted(affect, key=lambda o: o.timestamp)
        self._affect_times = [o.timestamp for o in self._affect]

    def edit_scores(self, span: tuple[float, float]) -> list[int]:
        """The scores of the edits in [start, end), in log order."""
        times = self._edit_times
        hits = self._edits[bisect_left(times, span[0]) : bisect_left(times, span[1])]
        hits.sort()
        return [score for _, score in hits]

    def affect_means(self, span: tuple[float, float]) -> Optional[dict[Emotion, float]]:
        """The mean likelihoods over [start, end], or None with no
        observation there."""
        start, end = span
        times = self._affect_times
        hits = self._affect[bisect_left(times, start) : bisect_right(times, end)]
        return _mean_likelihoods(hits) if hits else None


MAX_ORDINAL = 3  # ordinals past this one count only in the pooled cells


def scaffold_impact(
    records: Sequence[StudentRecord], grouping: Mapping[str, str]
) -> list[ImpactCell]:
    """Average map-score slope and affect in before/after intervals, per
    scaffold kind, per group, per ordinal (1..MAX_ORDINAL) and pooled.

    Slopes average over the intervals with at least two edits, one slope
    each; a cell with no such interval reports mean_slope None.
    """
    # (group, kind, ordinal-or-None, phase) -> accumulators
    slopes: dict[tuple, list[float]] = {}
    affects: dict[tuple, list[dict[Emotion, float]]] = {}
    for record in records:
        group = grouping.get(record.student_id)
        if group is None:
            continue
        timeline = _Timeline(record.annotated, record.affect)
        for iv in segment_intervals(record.deliveries, record.session_end):
            keys = [(group, iv.kind, None, iv.phase)]
            if iv.ordinal <= MAX_ORDINAL:
                keys.append((group, iv.kind, iv.ordinal, iv.phase))
            scores = timeline.edit_scores(iv.span)
            if len(scores) >= 2:
                slope = map_score_slope(scores)
                for key in keys:
                    slopes.setdefault(key, []).append(slope)
            means = timeline.affect_means(iv.span)
            if means is not None:
                for key in keys:
                    affects.setdefault(key, []).append(means)
    cells = []
    for key in sorted(set(slopes) | set(affects), key=_impact_key):
        group, kind, ordinal, phase = key
        slope_values = slopes.get(key, [])
        affect_values = affects.get(key, [])
        affect_means = {}
        if affect_values:
            affect_means = {
                e: math.fsum([m[e] for m in affect_values]) / len(affect_values)
                for e in Emotion
            }
        cells.append(
            ImpactCell(
                group=group,
                kind=kind,
                ordinal=ordinal,
                phase=phase,
                mean_slope=statistics.fmean(slope_values) if slope_values else None,
                n_intervals=len(slope_values),
                affect_means=affect_means,
            )
        )
    return cells


def _impact_key(key: tuple) -> tuple:
    group, kind, ordinal, phase = key
    return (group, kind.value, ordinal if ordinal is not None else 0, phase.value)
