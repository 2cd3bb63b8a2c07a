import math
import random
from fractions import Fraction

import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from mapcoach.stats import (
    DegenerateCovariate,
    DegenerateVariance,
    cohens_d,
    f_sf,
    one_way_ancova,
    one_way_anova,
    pooled_t,
    reg_inc_beta,
    t_two_sided_p,
)


class TestIncompleteBeta:
    def test_matches_scipy_on_grid(self):
        rng = random.Random(1)
        for _ in range(400):
            a = rng.uniform(0.5, 60.0)
            b = rng.uniform(0.5, 60.0)
            x = rng.random()
            assert abs(reg_inc_beta(a, b, x) - scipy.special.betainc(a, b, x)) < 1e-8

    def test_edges(self):
        assert reg_inc_beta(2.0, 3.0, 0.0) == 0.0
        assert reg_inc_beta(2.0, 3.0, 1.0) == 1.0

    def test_t_tail_matches_scipy(self):
        rng = random.Random(2)
        for _ in range(300):
            t = rng.uniform(-8.0, 8.0)
            df = rng.randint(1, 200)
            expected = 2.0 * scipy.stats.t.sf(abs(t), df)
            assert abs(t_two_sided_p(t, df) - expected) < 1e-8

    def test_f_tail_matches_scipy(self):
        rng = random.Random(3)
        for _ in range(300):
            f = rng.uniform(0.0, 40.0)
            d1 = rng.randint(1, 10)
            d2 = rng.randint(2, 200)
            assert abs(f_sf(f, d1, d2) - scipy.stats.f.sf(f, d1, d2)) < 1e-8

    def test_degenerate_statistics(self):
        assert t_two_sided_p(0.0, 10) == pytest.approx(1.0)
        assert t_two_sided_p(math.inf, 10) == 0.0
        assert f_sf(0.0, 1, 10) == pytest.approx(1.0)


class TestAnova:
    def test_identical_groups_give_zero_f_and_d(self):
        result = one_way_anova([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.statistic == pytest.approx(0.0)
        assert result.effect_size == pytest.approx(0.0)
        assert result.df == (1, 4)

    def test_textbook_cohens_d(self):
        assert cohens_d([1.0, 2.0, 3.0], [3.0, 4.0, 5.0]) == pytest.approx(2.0, abs=1e-12)

    def test_effect_size_is_magnitude(self):
        assert cohens_d([3.0, 4.0, 5.0], [1.0, 2.0, 3.0]) == pytest.approx(2.0, abs=1e-12)

    def test_one_value_group_in_t_and_d(self):
        # df = 1; the pooled variance comes from the two-value group alone
        t, df = pooled_t([1.0], [2.0, 4.0])
        assert df == 1
        assert t == pytest.approx(-2.0 / math.sqrt(3.0), rel=1e-12)
        assert cohens_d([1.0], [2.0, 4.0]) == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert pooled_t([3.0, 3.0], [5.0]) == (-math.inf, 1)
        for one_vs_one in (pooled_t, cohens_d):
            with pytest.raises(ValueError):
                one_vs_one([1.0], [2.0])

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateVariance):
            one_way_anova([2.0, 2.0], [2.0, 2.0])

    def test_small_groups_rejected(self):
        with pytest.raises(ValueError):
            one_way_anova([1.0], [2.0, 3.0])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 100_000))
    def test_f_equals_t_squared(self, seed):
        rng = random.Random(seed)
        a = [rng.gauss(0, 1) for _ in range(rng.randint(2, 12))]
        b = [rng.gauss(0.5, 1.5) for _ in range(rng.randint(2, 12))]
        t, df = pooled_t(a, b)
        result = one_way_anova(a, b)
        assert abs(result.statistic - t * t) < 1e-9
        assert result.df == (1, df)

    def test_matches_scipy_f_oneway(self):
        rng = random.Random(11)
        for _ in range(50):
            a = [rng.gauss(0, 1) for _ in range(rng.randint(3, 10))]
            b = [rng.gauss(0.3, 1) for _ in range(rng.randint(3, 10))]
            mine = one_way_anova(a, b)
            ref = scipy.stats.f_oneway(a, b)
            assert mine.statistic == pytest.approx(ref.statistic, rel=1e-9)
            assert mine.p_value == pytest.approx(ref.pvalue, abs=1e-9)


class TestAncova:
    def test_orthogonal_covariate_reduces_to_anova(self):
        # a palindromic covariate against a linear outcome has zero
        # within-group covariance, so the adjustment is a no-op
        a = [(1.0, 1.0), (2.0, 2.0), (2.0, 3.0), (1.0, 4.0)]
        b = [(3.0, 2.0), (4.0, 3.0), (4.0, 4.0), (3.0, 5.0)]
        ancova = one_way_ancova(a, b)
        anova = one_way_anova([y for _, y in a], [y for _, y in b])
        assert abs(ancova.statistic - anova.statistic) < 1e-12
        assert abs(ancova.p_value - anova.p_value) < 1e-12

    def test_identical_groups_give_zero_f(self):
        pairs = [(1.0, 2.0), (2.0, 4.0), (3.0, 5.0)]
        result = one_way_ancova(pairs, pairs)
        assert result.statistic == pytest.approx(0.0)

    def test_constant_covariate_rejected(self):
        with pytest.raises(DegenerateCovariate):
            one_way_ancova([(1.0, 2.0)] * 3, [(1.0, 5.0), (1.0, 6.0), (1.0, 7.0)])

    def test_small_groups_rejected(self):
        with pytest.raises(ValueError):
            one_way_ancova([(1.0, 2.0), (2.0, 3.0)], [(1.0, 2.0)] * 3)

    def test_two_by_five_worked_example_exact(self):
        """Frozen 2x5 example verified against exact rational arithmetic of
        the same definition (common within-group slope, adjusted scores)."""
        a = [(3, 8), (5, 11), (7, 14), (9, 16), (11, 20)]
        b = [(2, 4), (4, 5), (6, 8), (8, 10), (10, 11)]

        def frac_stats():
            ax = [Fraction(x) for x, _ in a]
            ay = [Fraction(y) for _, y in a]
            bx = [Fraction(x) for x, _ in b]
            by = [Fraction(y) for _, y in b]
            def centered(v):
                m = sum(v) / len(v)
                return [x - m for x in v]
            exx = sum(x * x for x in centered(ax)) + sum(x * x for x in centered(bx))
            exy = sum(x * y for x, y in zip(centered(ax), centered(ay))) + sum(
                x * y for x, y in zip(centered(bx), centered(by))
            )
            slope = exy / exx
            grand_x = sum(ax + bx) / Fraction(10)
            adj_a = [y - slope * (x - grand_x) for x, y in zip(ax, ay)]
            adj_b = [y - slope * (x - grand_x) for x, y in zip(bx, by)]
            grand = sum(adj_a + adj_b) / Fraction(10)
            ma, mb = sum(adj_a) / 5, sum(adj_b) / 5
            ssb = 5 * (ma - grand) ** 2 + 5 * (mb - grand) ** 2
            ssw = sum((v - ma) ** 2 for v in adj_a) + sum((v - mb) ** 2 for v in adj_b)
            f = ssb / (ssw / Fraction(8))
            d = abs(ma - mb) / (ssw / Fraction(8)) ** Fraction(1, 2)
            return float(slope), float(f), float(ma - mb)

        slope, f_exact, adj_diff = frac_stats()
        result = one_way_ancova([(float(x), float(y)) for x, y in a],
                                [(float(x), float(y)) for x, y in b])
        assert result.statistic == pytest.approx(f_exact, abs=1e-3)
        # hand-computed pooled within-group slope: (58 + 38) / (40 + 40)
        assert slope == pytest.approx(1.2, abs=1e-12)
        assert result.effect_size == pytest.approx(
            abs(adj_diff) / math.sqrt(_ssw_adjusted(a, b, slope) / 8), abs=1e-3
        )

    def test_correlated_covariate_sharpens_the_test(self):
        rng = random.Random(4)
        a, b = [], []
        for i in range(12):
            x = rng.uniform(0, 10)
            a.append((x, 2.0 * x + rng.gauss(0, 0.5) + 1.0))
            x = rng.uniform(0, 10)
            b.append((x, 2.0 * x + rng.gauss(0, 0.5)))
        ancova = one_way_ancova(a, b)
        anova = one_way_anova([y for _, y in a], [y for _, y in b])
        assert ancova.statistic > anova.statistic


def _ssw_adjusted(a, b, slope):
    xs = [x for x, _ in a] + [x for x, _ in b]
    grand_x = sum(xs) / len(xs)
    adj_a = [y - slope * (x - grand_x) for x, y in a]
    adj_b = [y - slope * (x - grand_x) for x, y in b]
    ma = sum(adj_a) / len(adj_a)
    mb = sum(adj_b) / len(adj_b)
    return sum((v - ma) ** 2 for v in adj_a) + sum((v - mb) ** 2 for v in adj_b)


class TestResultRanges:
    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_p_values_stay_in_unit_interval(self, seed):
        rng = random.Random(seed)
        a = [rng.gauss(0, 1) for _ in range(rng.randint(2, 10))]
        b = [rng.gauss(1, 2) for _ in range(rng.randint(2, 10))]
        try:
            result = one_way_anova(a, b)
        except DegenerateVariance:
            return
        assert 0.0 <= result.p_value <= 1.0
