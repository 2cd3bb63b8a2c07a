import itertools
import math
import random
import statistics

import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mapcoach import mining
from mapcoach.mining import (
    EmptyPattern,
    TokenSequence,
    contains_pattern,
    count_occurrences,
    mine,
)

labels = st.sampled_from(["a", "b", "c", "d"])
INF = math.inf


def seqs(group, items):
    return [TokenSequence(student_id=f"{group}{i}", tokens=tuple(t)) for i, t in enumerate(items)]


class TestCountOccurrences:
    def test_exact_adjacent_match(self):
        assert count_occurrences(["a", "b"], ["a", "b"], 1) == 1

    def test_gap_constraint(self):
        assert count_occurrences(["a", "x", "b"], ["a", "b"], 0) == 0
        assert count_occurrences(["a", "x", "b"], ["a", "b"], 1) == 1

    def test_non_overlapping_greedy(self):
        assert count_occurrences(["a", "b", "a", "b"], ["a", "b"], 1) == 2

    def test_consumed_tokens_not_reused(self):
        assert count_occurrences(["a", "b", "b"], ["a", "b"], 0) == 1

    def test_empty_pattern_rejected(self):
        with pytest.raises(EmptyPattern):
            count_occurrences(["a"], [], 1)

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            count_occurrences(["a"], ["a"], -1)
        with pytest.raises(ValueError):
            contains_pattern(["a"], ["a"], -1)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(labels, max_size=14),
        st.lists(labels, min_size=1, max_size=3),
        st.integers(0, 2),
    )
    def test_matches_brute_force_greedy_count(self, tokens, pattern, max_gap):
        expected = oracles.brute_greedy_count(tokens, pattern, max_gap)
        assert count_occurrences(tokens, pattern, max_gap) == expected

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(labels, max_size=14),
        st.lists(labels, min_size=1, max_size=3),
        st.integers(0, 2),
    )
    def test_contains_matches_brute_force(self, tokens, pattern, max_gap):
        assert contains_pattern(tokens, pattern, max_gap) == oracles.brute_contains(
            tokens, pattern, max_gap
        )


    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda k: st.tuples(
                st.lists(st.sampled_from("abc"[:k]), max_size=14),
                st.lists(st.sampled_from("abc"[:k]), min_size=1, max_size=5),
            )
        ),
        st.integers(0, 3),
    )
    def test_repetitive_tokens_match_brute_force(self, tokens_and_pattern, max_gap):
        # few labels make many overlapping matches share their first and last
        # positions, which is where span lists drop repeats
        tokens, pattern = tokens_and_pattern
        assert count_occurrences(tokens, pattern, max_gap) == oracles.brute_greedy_count(
            tokens, pattern, max_gap
        )
        assert contains_pattern(tokens, pattern, max_gap) == oracles.brute_contains(
            tokens, pattern, max_gap
        )


class TestMine:
    def test_worked_example_supports(self):
        group_a = seqs("a", [["a", "b", "c"], ["a", "b", "d"]])
        group_b = seqs("b", [["c", "d"], ["d", "c"]])
        result = mine(group_a, group_b, max_gap=1, s_threshold=0.5, max_len=2)
        ab = next(p for p in result if p.pattern == ("a", "b"))
        assert ab.s_support_a == 1.0 and ab.s_support_b == 0.0
        assert ab.i_support_a == 1.0 and ab.i_support_b == 0.0
        assert ab.frequent_in == "a"

    def test_identical_groups_have_zero_t(self):
        group = [["a", "b", "c"], ["b", "a", "c"], ["c", "a", "b"]]
        result = mine(seqs("a", group), seqs("b", group), max_gap=1, s_threshold=0.5)
        assert result
        assert all(p.t_statistic == 0.0 for p in result)
        assert all(p.effect_size == 0.0 for p in result)

    def test_planted_pattern_surfaces(self):
        rng = random.Random(0)
        filler = ["x", "y", "z"]
        def noise(n):
            return [rng.choice(filler) for _ in range(n)]
        group_a = seqs(
            "a",
            [noise(3) + ["p", "q"] + noise(3) if i < 8 else noise(8) for i in range(10)],
        )
        group_b = seqs(
            "b",
            [noise(3) + ["p", "q"] + noise(3) if i < 2 else noise(8) for i in range(10)],
        )
        result = mine(group_a, group_b, max_gap=1, s_threshold=0.5, max_len=2)
        pq = next(p for p in result if p.pattern == ("p", "q"))
        assert pq.s_support_a >= 0.8
        assert pq.s_support_b <= 0.2

    @pytest.mark.filterwarnings("ignore:Precision loss:RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.lists(labels, min_size=1, max_size=10), min_size=2, max_size=5),
        st.lists(st.lists(labels, min_size=1, max_size=10), min_size=2, max_size=5),
        st.integers(0, 3),
        st.sampled_from([0.2, 0.5, 0.8, 1.0]),
        st.integers(2, 3),
    )
    def test_matches_exhaustive_enumeration(self, items_a, items_b, max_gap, threshold, max_len):
        group_a, group_b = seqs("a", items_a), seqs("b", items_b)
        result = {p.pattern: p for p in mine(group_a, group_b, max_gap, threshold, max_len)}
        expected = {}
        for length in range(2, max_len + 1):
            for pattern in itertools.product("abcd", repeat=length):
                counts_a = [oracles.brute_greedy_count(s.tokens, pattern, max_gap) for s in group_a]
                counts_b = [oracles.brute_greedy_count(s.tokens, pattern, max_gap) for s in group_b]
                s_a = sum(1 for c in counts_a if c) / len(counts_a)
                s_b = sum(1 for c in counts_b if c) / len(counts_b)
                if max(s_a, s_b) >= threshold:
                    expected[pattern] = (s_a, s_b, counts_a, counts_b)
        assert set(result) == set(expected)
        for pattern, (s_a, s_b, counts_a, counts_b) in expected.items():
            got = result[pattern]
            assert got.s_support_a == s_a and got.s_support_b == s_b
            assert got.i_support_a == pytest.approx(statistics.fmean(counts_a))
            assert got.i_support_b == pytest.approx(statistics.fmean(counts_b))
            df = len(counts_a) + len(counts_b) - 2
            pooled_var = (
                (len(counts_a) - 1) * statistics.variance(counts_a)
                + (len(counts_b) - 1) * statistics.variance(counts_b)
            ) / df
            diff = statistics.fmean(counts_a) - statistics.fmean(counts_b)
            if pooled_var == 0:
                t = 0.0 if diff == 0 else math.copysign(math.inf, diff)
                assert (got.t_statistic, got.p_value) == (t, 0.0 if diff else 1.0)
                assert got.effect_size == abs(t)
                continue
            ref = scipy.stats.ttest_ind(counts_a, counts_b)
            assert got.t_statistic == pytest.approx(ref.statistic, rel=1e-9)
            assert got.p_value == pytest.approx(ref.pvalue, abs=1e-8)
            assert got.effect_size == pytest.approx(abs(diff) / math.sqrt(pooled_var), rel=1e-9)

    # pattern, s-support a/b, i-support a/b, t, p, d, frequent_in
    ONE_VS_ONE = [
        ("aa", 1.0, 0.0, 1.0, 0.0, INF, 0.0, INF, "a"),
        ("aab", 1.0, 0.0, 1.0, 0.0, INF, 0.0, INF, "a"),
        ("aac", 1.0, 0.0, 1.0, 0.0, INF, 0.0, INF, "a"),
        ("ab", 1.0, 1.0, 2.0, 1.0, INF, 0.0, INF, "both"),
        ("aba", 1.0, 0.0, 1.0, 0.0, INF, 0.0, INF, "a"),
        ("acb", 0.0, 1.0, 0.0, 1.0, -INF, 0.0, INF, "b"),
        ("acc", 0.0, 1.0, 0.0, 1.0, -INF, 0.0, INF, "b"),
        ("ba", 1.0, 0.0, 1.0, 0.0, INF, 0.0, INF, "a"),
        ("bab", 1.0, 0.0, 1.0, 0.0, INF, 0.0, INF, "a"),
        ("bac", 1.0, 0.0, 1.0, 0.0, INF, 0.0, INF, "a"),
        ("bc", 1.0, 1.0, 1.0, 2.0, -INF, 0.0, INF, "both"),
        ("bcb", 0.0, 1.0, 0.0, 1.0, -INF, 0.0, INF, "b"),
        ("bcc", 0.0, 1.0, 0.0, 1.0, -INF, 0.0, INF, "b"),
        ("cb", 0.0, 1.0, 0.0, 1.0, -INF, 0.0, INF, "b"),
        ("cbc", 0.0, 1.0, 0.0, 1.0, -INF, 0.0, INF, "b"),
        ("cc", 0.0, 1.0, 0.0, 1.0, -INF, 0.0, INF, "b"),
        ("abb", 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.0, "both"),
        ("abc", 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.0, "both"),
        ("ac", 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.0, "both"),
        ("bb", 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.0, "both"),
        ("bbc", 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.0, "both"),
    ]
    ONE_VS_THREE = [
        ("abc", 1.0, 0.0, 1.0, 0.0, INF, 0.0, INF, "a"),
        ("bcb", 1.0, 0.0, 1.0, 0.0, INF, 0.0, INF, "a"),
        ("aca", 1.0, 1 / 3, 1.0, 1 / 3, 1.0, 0.4226497308103746, 1.1547005383792515, "a"),
        ("acb", 1.0, 1 / 3, 1.0, 1 / 3, 1.0, 0.4226497308103746, 1.1547005383792515, "a"),
        ("bc", 1.0, 1 / 3, 1.0, 1 / 3, 1.0, 0.4226497308103746, 1.1547005383792515, "a"),
        ("bca", 1.0, 1 / 3, 1.0, 1 / 3, 1.0, 0.4226497308103746, 1.1547005383792515, "a"),
        ("cab", 1.0, 1 / 3, 1.0, 1 / 3, 1.0, 0.4226497308103746, 1.1547005383792515, "a"),
        ("cb", 1.0, 1 / 3, 1.0, 1 / 3, 1.0, 0.4226497308103746, 1.1547005383792515, "a"),
        ("abb", 0.0, 2 / 3, 0.0, 2 / 3, -0.9999999999999999, 0.4226497308103746,
         1.1547005383792512, "b"),
        ("bb", 0.0, 2 / 3, 0.0, 2 / 3, -0.9999999999999999, 0.4226497308103746,
         1.1547005383792512, "b"),
        ("ab", 1.0, 2 / 3, 2.0, 4 / 3, 0.5, 0.6666666666666667, 0.5773502691896257, "both"),
        ("aba", 1.0, 2 / 3, 1.0, 2 / 3, 0.5, 0.6666666666666667, 0.5773502691896257, "both"),
        ("ac", 1.0, 2 / 3, 1.0, 2 / 3, 0.5, 0.6666666666666667, 0.5773502691896257, "both"),
        ("bab", 1.0, 2 / 3, 1.0, 2 / 3, 0.5, 0.6666666666666667, 0.5773502691896257, "both"),
        ("ca", 1.0, 2 / 3, 1.0, 2 / 3, 0.5, 0.6666666666666667, 0.5773502691896257, "both"),
        ("ba", 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.0, "both"),
    ]

    @pytest.mark.parametrize(
        "items_a, items_b, expected",
        [
            (["ababc"], ["abcbc"], ONE_VS_ONE),
            (["abcab"], ["abab", "bcac", "acbab"], ONE_VS_THREE),
        ],
        ids=["1v1", "1v3"],
    )
    def test_single_student_groups_keep_their_results(self, items_a, items_b, expected):
        result = mine(seqs("a", items_a), seqs("b", items_b), 1, 0.5, 3)
        got = [
            ("".join(p.pattern), p.s_support_a, p.s_support_b, p.i_support_a, p.i_support_b,
             p.t_statistic, p.p_value, p.effect_size, p.frequent_in)
            for p in result
        ]
        assert got == [row[:6] + (pytest.approx(row[6], rel=1e-12),) + row[7:] for row in expected]

    def test_calls_neither_public_counter(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("mine must count from its own span lists")

        monkeypatch.setattr(mining, "count_occurrences", forbidden)
        monkeypatch.setattr(mining, "contains_pattern", forbidden)
        rng = random.Random(4)
        group_a = seqs("a", [[rng.choice("abc") for _ in range(10)] for _ in range(4)])
        group_b = seqs("b", [[rng.choice("abc") for _ in range(10)] for _ in range(4)])
        assert mine(group_a, group_b, 1, 0.5, 4)

    def test_swapping_groups_negates_t_and_swaps_fields(self):
        rng = random.Random(3)
        alphabet = ["a", "b", "c"]
        group_a = seqs("a", [[rng.choice(alphabet) for _ in range(8)] for _ in range(5)])
        group_b = seqs("b", [[rng.choice(alphabet) for _ in range(8)] for _ in range(5)])
        fwd = {p.pattern: p for p in mine(group_a, group_b, 1, 0.4, 2)}
        rev = {p.pattern: p for p in mine(group_b, group_a, 1, 0.4, 2)}
        assert set(fwd) == set(rev)
        for pattern, p in fwd.items():
            q = rev[pattern]
            assert q.t_statistic == pytest.approx(-p.t_statistic, abs=1e-12)
            assert q.s_support_a == p.s_support_b and q.s_support_b == p.s_support_a
            assert q.i_support_a == p.i_support_b and q.i_support_b == p.i_support_a
            assert q.effect_size == pytest.approx(p.effect_size, abs=1e-12)

    def test_bijective_relabeling_preserves_statistics(self):
        rng = random.Random(5)
        alphabet = ["a", "b", "c"]
        relabel = {"a": "Read", "b": "QuizTaken", "c": "LinkEdit-Eff"}
        group_a = [[rng.choice(alphabet) for _ in range(8)] for _ in range(5)]
        group_b = [[rng.choice(alphabet) for _ in range(8)] for _ in range(5)]
        fwd = mine(seqs("a", group_a), seqs("b", group_b), 1, 0.4, 2)
        mapped = mine(
            seqs("a", [[relabel[t] for t in s] for s in group_a]),
            seqs("b", [[relabel[t] for t in s] for s in group_b]),
            1, 0.4, 2,
        )
        fwd_stats = {
            tuple(relabel[t] for t in p.pattern): (
                p.s_support_a, p.s_support_b, p.i_support_a, p.i_support_b, p.t_statistic)
            for p in fwd
        }
        mapped_stats = {
            p.pattern: (p.s_support_a, p.s_support_b, p.i_support_a, p.i_support_b, p.t_statistic)
            for p in mapped
        }
        assert fwd_stats == mapped_stats

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 5_000))
    def test_support_monotone_under_extension(self, seed):
        rng = random.Random(seed)
        alphabet = ["a", "b", "c"]
        sequences = seqs("a", [[rng.choice(alphabet) for _ in range(10)] for _ in range(6)])
        stem = tuple(rng.choice(alphabet) for _ in range(2))
        extended = stem + (rng.choice(alphabet),)
        def support(pattern):
            return sum(1 for s in sequences if contains_pattern(s.tokens, pattern, 1)) / len(sequences)
        assert support(extended) <= support(stem)

    def test_output_is_sorted_by_abs_t_then_pattern(self):
        rng = random.Random(9)
        alphabet = ["a", "b", "c"]
        group_a = seqs("a", [[rng.choice(alphabet) for _ in range(10)] for _ in range(6)])
        group_b = seqs("b", [[rng.choice(alphabet) for _ in range(10)] for _ in range(6)])
        result = mine(group_a, group_b, 1, 0.3, 3)
        keys = [(-abs(p.t_statistic), p.pattern) for p in result]
        assert keys == sorted(keys)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            mine([], seqs("b", [["a"]]), 1, 0.5, 2)

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            mine(seqs("a", [["a", "b"]]), seqs("b", [["a", "b"]]), 1, 0.0, 2)

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            mine(seqs("a", [["a", "b"]]), seqs("b", [["a", "b"]]), -1, 0.5, 2)
