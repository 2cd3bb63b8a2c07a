"""Tab-separated report tables for the analysis pipeline.

Every numeric cell is printed at fixed precision (4 decimals for ratios and
statistics, 2 for percentages) so reports diff cleanly between runs.
"""

from __future__ import annotations

import statistics
from typing import Mapping, Optional, Sequence

from .analytics import Emotion, ImpactCell, OutcomeRecord, Phase
from .annotate import ActionKind, AnnotatedEvent, time_distribution
from .engine import HISTOGRAM_BUCKETS, DeliveryStats, ScaffoldKind
from .mining import DsmPattern
from .stats import one_way_ancova, one_way_anova

# what the tests in `stats` raise when the data cannot support them
_STATS_ERRORS = (ValueError, ArithmeticError)

ACTIVITY_COLUMNS = [
    (ActionKind.READ, "Read"),
    (ActionKind.MAKE_NOTES, "MakeNotes"),
    (ActionKind.MAP_EDIT, "MapEdits"),
    (ActionKind.TAKE_QUIZ, "TakeQuiz"),
    (ActionKind.QUIZ_EXPL, "QuizExpl"),
]


def _fmt(value: Optional[float], precision: int = 4) -> str:
    if value is None:
        return "-"
    return f"{value:.{precision}f}"


def _table(header: Sequence[str], rows: Sequence[Sequence[str]], footer: str = "") -> str:
    lines = ["\t".join(header)]
    lines.extend("\t".join(row) for row in rows)
    if footer:
        lines.append("# " + footer)
    return "\n".join(lines) + "\n"


def time_distribution_table(
    annotated_by_student: Mapping[str, Sequence[AnnotatedEvent]],
    grouping: Mapping[str, str],
) -> str:
    """Per-group mean percentage of time in each of the five activities."""
    per_group: dict[str, list[dict]] = {}
    for student, events in annotated_by_student.items():
        group = grouping.get(student)
        if group is None:
            continue
        per_group.setdefault(group, []).append(time_distribution(events))
    rows = []
    for group in sorted(per_group):
        shares = per_group[group]
        row = [group, str(len(shares))]
        for kind, _ in ACTIVITY_COLUMNS:
            row.append(_fmt(100.0 * statistics.fmean(s[kind] for s in shares), 2))
        rows.append(row)
    header = ["group", "n"] + [name for _, name in ACTIVITY_COLUMNS]
    return _table(header, rows)


def delivery_table(
    stats: Mapping[tuple[str, ScaffoldKind], DeliveryStats],
) -> str:
    """Per-scaffold receipt counts in the shape range / mean (sd) / histogram."""
    rows = []
    for kind in ScaffoldKind:
        for group in sorted({g for g, _ in stats}):
            s = stats.get((group, kind))
            if s is None:
                continue
            total = sum(s.histogram.values())
            cells = [kind.label, group, f"{s.count_range[0]}-{s.count_range[1]}",
                     f"{_fmt(s.mean, 1)} ({_fmt(s.sd, 1)})"]
            for bucket in HISTOGRAM_BUCKETS:
                n = s.histogram[bucket]
                pct = 100.0 * n / total if total else 0.0
                cells.append(f"{n} ({_fmt(pct, 1)}%)")
            rows.append(cells)
    header = ["scaffold", "group", "range", "mean (sd)"] + list(HISTOGRAM_BUCKETS)
    return _table(header, rows)


def dsm_table(patterns: Sequence[DsmPattern], label_a: str = "High", label_b: str = "Low") -> str:
    rows = []
    for p in patterns:
        frequent = {"a": label_a, "b": label_b, "both": "Both"}[p.frequent_in]
        rows.append(
            [
                " -> ".join(p.pattern),
                _fmt(p.i_support_a),
                _fmt(p.i_support_b),
                _fmt(p.t_statistic),
                _fmt(p.p_value),
                _fmt(p.effect_size),
                _fmt(p.s_support_a),
                _fmt(p.s_support_b),
                frequent,
            ]
        )
    header = [
        "pattern",
        f"i-support {label_a}",
        f"i-support {label_b}",
        "t",
        "p-value",
        "effect size (d)",
        f"s-support {label_a}",
        f"s-support {label_b}",
        "s-frequent group",
    ]
    footer = (
        "effect size is the pooled-SD standardized mean difference d; "
        "for two groups Cohen's f = d / 2"
    )
    return _table(header, rows, footer)


def outcomes_table(
    outcomes: Sequence[OutcomeRecord],
    grouping: Optional[Mapping[str, str]] = None,
) -> str:
    """Cohort and per-group learning outcomes with the group comparisons."""
    rows = []

    def summary_row(label: str, records: Sequence[OutcomeRecord]) -> list[str]:
        pres = [r.pre for r in records]
        posts = [r.post for r in records]
        gains = [r.nlg for r in records]
        cells = [
            label,
            str(len(records)),
            f"{_fmt(statistics.fmean(pres), 2)} ({_fmt(statistics.stdev(pres), 2) if len(pres) > 1 else '-'})",
            f"{_fmt(statistics.fmean(posts), 2)} ({_fmt(statistics.stdev(posts), 2) if len(posts) > 1 else '-'})",
            f"{_fmt(statistics.fmean(gains), 2)} ({_fmt(statistics.stdev(gains), 2) if len(gains) > 1 else '-'})",
        ]
        try:
            test = one_way_anova(posts, pres)
            cells.append(f"{_fmt(test.statistic, 2)} ({_fmt(test.p_value, 4)})")
            cells.append(_fmt(test.effect_size, 2))
        except _STATS_ERRORS:
            cells.extend(["-", "-"])
        return cells

    rows.append(summary_row("Overall", list(outcomes)))
    by_group: dict[str, list[OutcomeRecord]] = {}
    if grouping:
        for r in outcomes:
            g = grouping.get(r.student_id)
            if g is not None:
                by_group.setdefault(g, []).append(r)
        for g in sorted(by_group):
            rows.append(summary_row(g, by_group[g]))
    header = ["category", "n", "pre mean (sd)", "post mean (sd)", "nlg mean (sd)",
              "pre-post F (p)", "pre-post d"]
    text = _table(header, rows)
    if len(by_group) == 2:
        (ga, recs_a), (gb, recs_b) = sorted(by_group.items())
        comparison_rows = []

        def comparison(label, fn):
            try:
                test = fn()
                comparison_rows.append(
                    [label, _fmt(test.statistic, 2), _fmt(test.p_value, 4),
                     _fmt(test.effect_size, 2)]
                )
            except _STATS_ERRORS as exc:
                comparison_rows.append([label, "-", "-", f"({exc})"])

        comparison(
            f"nlg {ga} vs {gb} (ANOVA)",
            lambda: one_way_anova([r.nlg for r in recs_a], [r.nlg for r in recs_b]),
        )
        comparison(
            f"pretest {ga} vs {gb} (ANOVA)",
            lambda: one_way_anova([r.pre for r in recs_a], [r.pre for r in recs_b]),
        )
        comparison(
            f"nlg {ga} vs {gb}, pretest covariate (adjusted ANOVA)",
            lambda: one_way_ancova(
                [(r.pre, r.nlg) for r in recs_a], [(r.pre, r.nlg) for r in recs_b]
            ),
        )
        text += "\n" + _table(["comparison", "F", "p-value", "effect size (d)"], comparison_rows)
    return text


def impact_table(cells: Sequence[ImpactCell]) -> str:
    """Mean map-score slope and confusion likelihood before/after each
    scaffold, per ordinal and pooled."""
    by_key: dict[tuple, dict[Phase, ImpactCell]] = {}
    for cell in cells:
        by_key.setdefault((cell.group, cell.kind, cell.ordinal), {})[cell.phase] = cell
    rows = []
    for (group, kind, ordinal), phases in sorted(
        by_key.items(), key=lambda kv: (kv[0][0], kv[0][1].value, kv[0][2] or 0)
    ):
        before = phases.get(Phase.BEFORE)
        after = phases.get(Phase.AFTER)
        rows.append(
            [
                kind.label,
                group,
                "pooled" if ordinal is None else str(ordinal),
                _fmt(before.mean_slope if before else None),
                str(before.n_intervals if before else 0),
                _fmt(after.mean_slope if after else None),
                str(after.n_intervals if after else 0),
                _fmt(
                    100.0 * before.affect_means[Emotion.CONFUSION]
                    if before and before.affect_means
                    else None,
                    2,
                ),
                _fmt(
                    100.0 * after.affect_means[Emotion.CONFUSION]
                    if after and after.affect_means
                    else None,
                    2,
                ),
            ]
        )
    header = [
        "scaffold",
        "group",
        "ordinal",
        "slope before",
        "intervals before",
        "slope after",
        "intervals after",
        "confusion% before",
        "confusion% after",
    ]
    return _table(header, rows)
