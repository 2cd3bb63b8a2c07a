"""Two-group statistics computed from first principles: pooled t test,
one-way ANOVA, covariate-adjusted ANOVA, and tail probabilities via a
continued-fraction regularized incomplete beta (|error| < 1e-8)."""

from __future__ import annotations

import math
from statistics import fmean
from typing import Sequence

from ._record import record


class DegenerateVariance(ValueError):
    pass


class DegenerateCovariate(ValueError):
    pass


@record
class TestResult:
    statistic: float
    p_value: float
    effect_size: float
    df: tuple[int, ...]


# -- incomplete beta ----------------------------------------------------------


def _betacf(a: float, b: float, x: float, max_iter: int = 500, eps: float = 1e-15) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x} outside [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_two_sided_p(t: float, df: float) -> float:
    """Two-sided tail probability of Student's t."""
    if df <= 0:
        raise ValueError("df must be positive")
    if math.isinf(t):
        return 0.0
    return reg_inc_beta(df / 2.0, 0.5, df / (df + t * t))


def f_sf(f: float, df1: float, df2: float) -> float:
    """Upper tail probability of the F distribution."""
    if f < 0:
        raise ValueError("F statistic must be non-negative")
    if math.isinf(f):
        return 0.0
    return reg_inc_beta(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * f))


# -- two-group tests --------------------------------------------------------------


def _check_groups(a: Sequence[float], b: Sequence[float], minimum: int):
    """Each group needs `minimum` values, and the pooled variance at least
    one degree of freedom."""
    if len(a) < minimum or len(b) < minimum or len(a) + len(b) < 3:
        raise ValueError(f"need {minimum}+ values per group and 3+ in all")


def _within_ss(values: Sequence[float]) -> float:
    m = fmean(values)
    return sum((v - m) ** 2 for v in values)


def _pooled(a: Sequence[float], b: Sequence[float]) -> tuple[float, float, int]:
    """Difference of means, within-group sum of squares, and its df."""
    _check_groups(a, b, 1)
    df = len(a) + len(b) - 2
    ssw = _within_ss(a) + _within_ss(b)
    return fmean(a) - fmean(b), ssw, df


def pooled_t(a: Sequence[float], b: Sequence[float]) -> tuple[float, int]:
    """Pooled two-sample t statistic and its degrees of freedom."""
    diff, ssw, df = _pooled(a, b)
    if ssw == 0.0:
        t = 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
        return t, df
    sp = math.sqrt(ssw / df)
    t = diff / (sp * math.sqrt(1.0 / len(a) + 1.0 / len(b)))
    return t, df


def cohens_d(a: Sequence[float], b: Sequence[float]) -> float:
    """Pooled-SD standardized mean difference, reported as a magnitude."""
    diff, ssw, df = _pooled(a, b)
    if ssw == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return abs(diff) / math.sqrt(ssw / df)


def one_way_anova(a: Sequence[float], b: Sequence[float]) -> TestResult:
    """Two-group one-way ANOVA; for two groups F equals the pooled t squared."""
    _check_groups(a, b, 2)
    n_a, n_b = len(a), len(b)
    df_within = n_a + n_b - 2
    grand = fmean(list(a) + list(b))
    ssw = _within_ss(a) + _within_ss(b)
    if ssw == 0.0:
        raise DegenerateVariance("zero within-group variance")
    ssb = n_a * (fmean(a) - grand) ** 2 + n_b * (fmean(b) - grand) ** 2
    f = (ssb / 1.0) / (ssw / df_within)
    return TestResult(
        statistic=f,
        p_value=f_sf(f, 1, df_within),
        effect_size=cohens_d(a, b),
        df=(1, df_within),
    )


def one_way_ancova(
    a_pairs: Sequence[tuple[float, float]],
    b_pairs: Sequence[tuple[float, float]],
) -> TestResult:
    """Covariate-adjusted two-group comparison.

    Fits the common within-group slope of outcome on covariate, removes the
    covariate's contribution from every outcome, and runs the two-group F
    test on the adjusted scores.  A covariate with zero pooled within-group
    covariance leaves the outcomes untouched, so the result then coincides
    exactly with the plain ANOVA.
    """
    if len(a_pairs) < 3 or len(b_pairs) < 3:
        raise ValueError("each group needs at least 3 (covariate, outcome) pairs")
    exx = exy = 0.0
    for pairs in (a_pairs, b_pairs):
        mx = fmean([x for x, _ in pairs])
        my = fmean([y for _, y in pairs])
        exx += sum((x - mx) ** 2 for x, _ in pairs)
        exy += sum((x - mx) * (y - my) for x, y in pairs)
    if exx == 0.0:
        raise DegenerateCovariate("covariate constant within both groups")
    slope = exy / exx
    all_x = [x for x, _ in a_pairs] + [x for x, _ in b_pairs]
    grand_x = fmean(all_x)
    adj_a = [y - slope * (x - grand_x) for x, y in a_pairs]
    adj_b = [y - slope * (x - grand_x) for x, y in b_pairs]
    return one_way_anova(adj_a, adj_b)
