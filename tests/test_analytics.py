import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mapcoach.analytics import (
    AffectObservation,
    DegenerateDenominator,
    Emotion,
    InsufficientEdits,
    NoObservationsInSpan,
    Phase,
    StudentRecord,
    affect_aggregate,
    map_score_slope,
    median_split,
    nlg,
    scaffold_impact,
    segment_intervals,
)
from mapcoach import analytics
from mapcoach.annotate import ActionEvent, ActionKind, AnnotatedEvent, Effectiveness, Process
from mapcoach.causal import Sign
from mapcoach.engine import (
    ScaffoldDelivery,
    ScaffoldKind,
    TriggerContext,
)


def delivery(t, kind=ScaffoldKind.HINT2, student="s"):
    return ScaffoldDelivery(
        student_id=student,
        kind=kind,
        agent=kind.agent,
        timestamp=t,
        trigger=TriggerContext("x", None, None, None, None),
        transcript=(),
    )


class TestNlg:
    def test_reference_values(self):
        assert nlg(3.59, 7.52, 23) == pytest.approx(0.2025, abs=1e-4)

    def test_no_gain_is_zero(self):
        assert nlg(5.0, 5.0, 23.0) == 0.0

    def test_full_gain_is_one(self):
        assert nlg(5.0, 23.0, 23.0) == 1.0

    def test_degenerate_denominator(self):
        with pytest.raises(DegenerateDenominator):
            nlg(23.0, 25.0, 23.0)

    @settings(max_examples=60)
    @given(
        st.floats(0.0, 20.0),
        st.floats(0.1, 5.0),
        st.floats(0.1, 5.0),
    )
    def test_increasing_in_post_decreasing_in_pre(self, pre, post_bump, pre_bump):
        max_score = 30.0
        post = pre + post_bump  # stays below max, where strictness holds
        assert nlg(pre, post + 0.5, max_score) > nlg(pre, post, max_score)
        if pre + pre_bump < max_score:
            assert nlg(pre + pre_bump, post, max_score) < nlg(pre, post, max_score)


class TestMedianSplit:
    def test_two_student_split(self):
        split = median_split({"a": 0, "b": 10}, band=1)
        assert split.median == 5
        assert split.high == {"b"} and split.low == {"a"}
        assert not split.excluded

    def test_all_equal_scores_all_excluded(self):
        split = median_split({"a": 4, "b": 4, "c": 4})
        assert split.excluded == {"a", "b", "c"}
        assert not split.high and not split.low

    def test_band_excludes_near_median(self):
        scores = {"a": 1, "b": 5, "c": 6, "d": 7, "e": 12}
        split = median_split(scores, band=1)
        assert split.median == 6
        assert split.excluded == {"b", "c", "d"}
        assert split.high == {"e"} and split.low == {"a"}

    def test_even_cohort_median_is_midpoint(self):
        split = median_split({"a": 1, "b": 2, "c": 3, "d": 4}, band=0.4)
        assert split.median == 2.5

    def test_requires_two_students(self):
        with pytest.raises(ValueError):
            median_split({"a": 1})

    @settings(max_examples=80)
    @given(
        st.dictionaries(st.text(min_size=1, max_size=3), st.integers(-6, 15), min_size=2),
        st.floats(0.0, 3.0),
        st.floats(0.0, 3.0),
    )
    def test_partition_and_band_shrink_properties(self, scores, band, shrink):
        split = median_split(scores, band=band)
        assert split.high | split.low | split.excluded == set(scores)
        assert not (split.high & split.low)
        assert not (split.high & split.excluded)
        assert not (split.low & split.excluded)
        narrower = median_split(scores, band=max(0.0, band - shrink))
        # shrinking the band only moves students out of the excluded set
        assert split.high <= narrower.high
        assert split.low <= narrower.low


class TestSegmentIntervals:
    def test_single_delivery(self):
        intervals = segment_intervals([delivery(100.0)], session_end=600.0)
        spans = {(iv.phase, iv.span) for iv in intervals}
        assert spans == {(Phase.BEFORE, (0.0, 100.0)), (Phase.AFTER, (100.0, 600.0))}

    def test_no_deliveries(self):
        assert segment_intervals([], 600.0) == []

    def test_two_delivery_worked_example(self):
        hint2 = delivery(100.0, ScaffoldKind.HINT2)
        hint5 = delivery(250.0, ScaffoldKind.HINT5)
        intervals = segment_intervals([hint2, hint5], session_end=600.0)
        by = {(iv.kind, iv.phase): iv for iv in intervals}
        assert by[(ScaffoldKind.HINT2, Phase.BEFORE)].span == (0.0, 100.0)
        assert by[(ScaffoldKind.HINT2, Phase.AFTER)].span == (100.0, 250.0)
        assert by[(ScaffoldKind.HINT5, Phase.BEFORE)].span == (100.0, 250.0)
        assert by[(ScaffoldKind.HINT5, Phase.AFTER)].span == (250.0, 600.0)

    def test_ordinals_count_per_kind(self):
        ds = [delivery(10.0), delivery(80.0, ScaffoldKind.HINT5), delivery(150.0)]
        intervals = segment_intervals(ds, 300.0)
        hint2s = [iv for iv in intervals if iv.kind is ScaffoldKind.HINT2 and iv.phase is Phase.AFTER]
        assert [iv.ordinal for iv in hint2s] == [1, 2]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(1.0, 999.0), min_size=1, max_size=12, unique=True))
    def test_tiling_property(self, times):
        session_end = 1000.0
        ds = [delivery(t) for t in sorted(times)]
        intervals = segment_intervals(ds, session_end)
        befores = sorted(
            (iv.span for iv in intervals if iv.phase is Phase.BEFORE)
        )
        tiles = befores + [max(iv.span for iv in intervals if iv.phase is Phase.AFTER)]
        assert tiles[0][0] == 0.0
        assert tiles[-1][1] == session_end
        for (a0, a1), (b0, b1) in zip(tiles, tiles[1:]):
            assert a1 == b0
        boundaries = {t for span in tiles for t in span}
        assert boundaries == {0.0, session_end} | set(times)


class TestMapScoreSlope:
    def test_exact_linear(self):
        assert map_score_slope([2, 3, 4, 5]) == pytest.approx(1.0)

    def test_constant(self):
        assert map_score_slope([7, 7, 7]) == 0.0

    def test_hand_computed(self):
        assert map_score_slope([0, 1, 1, 2]) == pytest.approx(0.6)

    def test_insufficient_edits(self):
        with pytest.raises(InsufficientEdits):
            map_score_slope([3])

    @settings(max_examples=100)
    @given(
        st.lists(st.floats(-20, 20), min_size=2, max_size=30),
        st.floats(-50, 50),
        st.floats(-4, 4),
    )
    def test_translation_invariance_and_scale_equivariance(self, ys, shift, scale):
        base = map_score_slope(ys)
        assert map_score_slope([y + shift for y in ys]) == pytest.approx(base, abs=1e-9)
        assert map_score_slope([y * scale for y in ys]) == pytest.approx(
            base * scale, abs=max(1e-9, abs(base * scale) * 1e-9)
        )

    @settings(max_examples=100)
    @given(st.lists(st.floats(-20, 20), min_size=2, max_size=30))
    def test_matches_closed_form_oracle(self, ys):
        assert map_score_slope(ys) == pytest.approx(oracles.brute_ols_slope(ys), abs=1e-9)


def obs(t, confusion=0.08):
    values = {e: 0.1 for e in Emotion}
    values[Emotion.CONFUSION] = confusion
    return AffectObservation(student_id="s", timestamp=t, likelihoods=values)


class TestAffectAggregate:
    def test_single_observation(self):
        out = affect_aggregate([obs(10.0, 0.3)], (0.0, 20.0))
        assert out[Emotion.CONFUSION] == pytest.approx(0.3)

    def test_mean_of_two(self):
        out = affect_aggregate([obs(0.0, 0.08), obs(20.0, 0.18)], (0.0, 20.0))
        assert out[Emotion.CONFUSION] == pytest.approx(0.13)

    def test_span_bounds_are_inclusive(self):
        out = affect_aggregate([obs(0.0, 0.5), obs(20.0, 0.1)], (20.0, 40.0))
        assert out[Emotion.CONFUSION] == pytest.approx(0.1)

    def test_no_observations_in_span(self):
        with pytest.raises(NoObservationsInSpan):
            affect_aggregate([obs(100.0)], (0.0, 50.0))


class TestScaffoldImpact:
    def test_slopes_and_affect_per_phase(self, tiny_expert):
        from mapcoach.annotate import annotate_session
        from test_annotate import add_link, setup_events

        events, t0 = setup_events(tiny_expert)
        # two edits before the scaffold, two after, score path 1,2 then 1,0
        events += [
            add_link(t0, "a", "b", Sign.INCREASE),
            add_link(t0 + 10, "b", "c", Sign.INCREASE),
            add_link(t0 + 40, "a", "c", Sign.DECREASE),
            add_link(t0 + 50, "b", "d", Sign.DECREASE),
        ]
        annotated = annotate_session(events, tiny_expert)
        anchor = delivery(t0 + 30, ScaffoldKind.HINT5)
        record = StudentRecord(
            student_id="s",
            annotated=annotated,
            deliveries=[anchor],
            affect=[obs(0.0, 0.08), obs(t0 + 35, 0.18)],
            session_end=t0 + 60,
        )
        cells = scaffold_impact([record], {"s": "High"})
        before = next(c for c in cells if c.phase is Phase.BEFORE and c.ordinal == 1)
        after = next(c for c in cells if c.phase is Phase.AFTER and c.ordinal == 1)
        # before: concept edits score 0, then 1, 2
        assert before.mean_slope is not None and before.mean_slope > 0
        assert after.mean_slope == pytest.approx(-1.0)
        assert after.affect_means[Emotion.CONFUSION] == pytest.approx(0.18)

    def test_students_with_too_few_edits_are_excluded(self):
        record = StudentRecord(
            student_id="s", annotated=[], deliveries=[delivery(50.0)], affect=[], session_end=100.0
        )
        cells = scaffold_impact([record], {"s": "Low"})
        assert all(c.mean_slope is None for c in cells)
        assert all(c.n_intervals == 0 for c in cells)


def _event(t, kind, score):
    base = ActionEvent(student_id="s", timestamp=t, kind=kind, duration=1.0)
    return AnnotatedEvent(base, Process.SC, Effectiveness.NEUTRAL, False, score)


class _Scans:
    """The per-interval scans that scaffold_impact's timeline replaces."""

    def __init__(self, annotated, affect):
        self.annotated, self.affect = annotated, affect

    def edit_scores(self, span):
        return oracles.interval_edit_scores(self.annotated, span)

    def affect_means(self, span):
        try:
            return affect_aggregate(self.affect, span)
        except NoObservationsInSpan:
            return None


class TestIndexedTimeline:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000))
    def test_cells_equal_the_per_interval_scans(self, seed):
        """Logs out of time order, with edits, reads and observations on a
        coarse grid of times, so many fall exactly on an interval bound."""
        rng = random.Random(seed)
        grid = [5.0 * i for i in range(21)]
        records = []
        for student in ("s1", "s2", "s3"):
            annotated = [
                _event(rng.choice(grid), rng.choice((ActionKind.MAP_EDIT, ActionKind.READ)),
                       rng.randint(-5, 5))
                for _ in range(rng.randint(0, 30))
            ]
            affect = [obs(rng.choice(grid), rng.random()) for _ in range(rng.randint(0, 12))]
            deliveries = [
                delivery(rng.choice(grid), rng.choice(list(ScaffoldKind)), student)
                for _ in range(rng.randint(0, 6))
            ]
            records.append(StudentRecord(student, annotated, deliveries, affect, session_end=100.0))
        grouping = {"s1": "High", "s2": "Low", "s3": "High"}
        indexed = scaffold_impact(records, grouping)
        for record in records:
            timeline = analytics._Timeline(record.annotated, record.affect)
            scans = _Scans(record.annotated, record.affect)
            for iv in segment_intervals(record.deliveries, record.session_end):
                assert timeline.edit_scores(iv.span) == scans.edit_scores(iv.span)
                assert timeline.affect_means(iv.span) == scans.affect_means(iv.span)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analytics, "_Timeline", _Scans)
            scanned = scaffold_impact(records, grouping)
        assert indexed == scanned

    def test_edits_on_a_bound_belong_to_the_interval_that_starts_there(self):
        annotated = [
            _event(20.0, ActionKind.MAP_EDIT, 3),
            _event(10.0, ActionKind.MAP_EDIT, 1),
            _event(20.0, ActionKind.MAP_EDIT, 4),
            _event(10.0, ActionKind.MAP_EDIT, 2),
        ]
        timeline = analytics._Timeline(annotated, [obs(20.0, 0.5), obs(10.0, 0.25)])
        assert timeline.edit_scores((0.0, 20.0)) == [1, 2]
        assert timeline.edit_scores((20.0, 30.0)) == [3, 4]
        assert timeline.edit_scores((10.0, 30.0)) == [3, 1, 4, 2]
        assert timeline.edit_scores((30.0, 10.0)) == []
        assert timeline.affect_means((10.0, 20.0))[Emotion.CONFUSION] == 0.375
        assert timeline.affect_means((20.0, 10.0)) is None
