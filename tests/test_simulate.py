import hashlib
import json
import math
import random
from dataclasses import replace

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from mapcoach import logio, simulate
from mapcoach.analytics import Emotion
from mapcoach.annotate import ActionKind, annotate_session
from mapcoach.causal import map_score
from mapcoach.engine import EngineConfig, ScaffoldEngine, ScaffoldKind
from mapcoach.simulate import (
    DurationModel,
    StudentProfile,
    bundled_profiles,
    derive_seed,
    simulate_cohort,
    simulate_session,
)


def records(events):
    return [logio.event_to_record(e) for e in events]


def cohort_digest(cohort):
    """SHA-256 over every session's event, affect and delivery records."""
    digest = hashlib.sha256()
    for session in cohort.sessions:
        lines = [
            *(logio.event_to_record(e) for e in session.events),
            *(logio.affect_to_record(session.student_id, o) for o in session.affect),
            *(logio.delivery_to_record(d) for d in session.deliveries),
        ]
        for record in lines:
            digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


def clamp_profiles():
    """High and low profiles whose affect baselines sit at 0.0 and 1.0, so
    the jitter and the confusion bump reach both clamps, and whose flawed
    links are all shortcuts (high) or all wrong signs (low)."""
    base = bundled_profiles()
    common = dict(
        activity_mix={ActionKind.READ: 0.5, ActionKind.MAKE_NOTES: 0.0, ActionKind.MAP_EDIT: 0.3,
                      ActionKind.TAKE_QUIZ: 0.2, ActionKind.QUIZ_EXPL: 0.0},
        read_duration=DurationModel(90.0, 20.0),
        read_effectiveness=0.3,
        scaffold_compliance={ScaffoldKind.HINT3: 1.0},
    )
    high_ones = {Emotion.CONFUSION, Emotion.DELIGHT}
    low_ones = {Emotion.ENGAGED_CONCENTRATION, Emotion.BOREDOM}
    return {
        "high": replace(base["high"], affect_baseline={e: float(e in high_ones) for e in Emotion},
                        shortcut_share=1.0, wrong_sign_share=0.0, **common),
        "low": replace(base["low"], affect_baseline={e: float(e in low_ones) for e in Emotion},
                       shortcut_share=0.0, wrong_sign_share=1.0, **common),
    }


class TestDeterminism:
    def test_same_profile_and_seed_reproduce_bit_for_bit(self, pack):
        profile = replace(bundled_profiles()["high"], student_id="s", seed=123)
        a = simulate_session(profile, pack, 900.0)
        b = simulate_session(profile, pack, 900.0)
        assert records(a.events) == records(b.events)
        assert a.affect == b.affect
        assert a.final_map == b.final_map

    def test_cohort_reproducible(self, pack):
        a = simulate_cohort(1, 1, seed=5, expert=pack, duration_budget=600.0)
        b = simulate_cohort(1, 1, seed=5, expert=pack, duration_budget=600.0)
        for s1, s2 in zip(a.sessions, b.sessions):
            assert records(s1.events) == records(s2.events)
        assert a.grouping == b.grouping

    def test_different_seeds_differ(self, pack):
        a = simulate_cohort(1, 1, seed=5, expert=pack, duration_budget=600.0)
        b = simulate_cohort(1, 1, seed=6, expert=pack, duration_budget=600.0)
        assert records(a.sessions[0].events) != records(b.sessions[0].events)

    def test_seed_derivation_is_stable(self):
        assert derive_seed(7, "hi-000") == derive_seed(7, "hi-000")
        assert derive_seed(7, "hi-000") != derive_seed(7, "hi-001")
        assert derive_seed(7, "hi-000") != derive_seed(8, "hi-000")

    def test_cohort_output_is_pinned(self, pack):
        """The draws of a small engine-in-the-loop cohort, pinned: a change
        to the simulator that moves one RNG draw changes this digest."""
        cohort = simulate_cohort(
            3, 3, seed=7, expert=pack, duration_budget=1500,
            engine_config=EngineConfig(min_inter_scaffold_seconds=15),
        )
        assert cohort_digest(cohort) == (
            "8298e5a8dba54d720da735a9feddb54c58b8fb292d05d8ee890018d7e62d7a49"
        )

    @pytest.mark.parametrize(
        "n, seed, budget, config, profiles, expected",
        [
            (3, 7, 1500, None, None, "6241bf85bc7836fdf8420d34f5d36808c257f5a1133c864c29b5e90f31c7581e"),
            (2, 19, 2400, EngineConfig(), clamp_profiles(), "14ff43a269f7dda7990bc68f88300c1c7300873943c181fdbd402e9bc65bed1d"),
            (3, 7, 1500,
             EngineConfig(min_inter_scaffold_seconds=5,
                          disabled_kinds=frozenset({ScaffoldKind.HINT2, ScaffoldKind.ENC1})),
             None, "afa0deca78b95cb3c1f7456c49c96a371f32c24df108caa5107063de82a21f53"),
            (2, 1, 3600, EngineConfig(min_inter_scaffold_seconds=15), None,
             "bd08bd41a9fd1e2a129ceeb686eeb2173bd7e1ff997e3fcb0c1c862cae53f382"),
        ],
        ids=["no-engine", "clamps-and-flawed-shares", "hint2-enc1-disabled-5s",
             "every-forced-action"],
    )
    def test_more_cohort_outputs_are_pinned(self, pack, n, seed, budget, config, profiles,
                                             expected):
        """More of the simulator's draws pinned: without the engine, on
        affect baselines at the clamps with one-sided flawed-link shares,
        with two scaffold kinds disabled under a short window, and on a
        cohort whose compliance forces quizzes, both markings, reads and
        deletes."""
        cohort = simulate_cohort(n, n, seed=seed, expert=pack, duration_budget=budget,
                                 engine_config=config, profiles=profiles)
        assert cohort_digest(cohort) == expected

    def test_engine_in_loop_is_deterministic(self, pack):
        config = EngineConfig()
        profile = replace(bundled_profiles()["low"], student_id="s", seed=31)
        a = simulate_session(profile, pack, 900.0, ScaffoldEngine("s", pack, config))
        b = simulate_session(profile, pack, 900.0, ScaffoldEngine("s", pack, config))
        assert [logio.delivery_to_record(d) for d in a.deliveries] == [
            logio.delivery_to_record(d) for d in b.deliveries
        ]


class TestSessionShape:
    def test_read_only_profile_emits_only_reads(self, pack):
        profile = StudentProfile(
            student_id="reader",
            activity_mix={
                ActionKind.READ: 1.0,
                ActionKind.MAKE_NOTES: 0.0,
                ActionKind.MAP_EDIT: 0.0,
                ActionKind.TAKE_QUIZ: 0.0,
                ActionKind.QUIZ_EXPL: 0.0,
            },
            read_effectiveness=0.6,
            quiz_propensity=0.1,
            scaffold_compliance={},
            read_duration=DurationModel(30.0, 10.0),
            edit_duration=DurationModel(10.0, 2.0),
            quiz_duration=DurationModel(30.0, 5.0),
            note_duration=DurationModel(10.0, 2.0),
            expl_duration=DurationModel(10.0, 2.0),
            affect_baseline={e: 0.1 for e in Emotion},
            seed=1,
        )
        log = simulate_session(profile, pack, 400.0)
        assert {e.kind for e in log.events} == {ActionKind.READ}

    def test_perfect_reader_reaches_full_map_score(self, pack):
        profile = replace(
            bundled_profiles()["high"], student_id="ace", seed=2, read_effectiveness=1.0
        )
        log = simulate_session(profile, pack, 3000.0)
        assert map_score(log.final_map, pack) == 15

    def test_replay_closure_no_replay_errors(self, pack):
        for name in ("high", "low"):
            profile = replace(bundled_profiles()[name], student_id=name, seed=8)
            log = simulate_session(profile, pack, 900.0)
            annotated = annotate_session(log.events, pack)
            assert len(annotated) == len(log.events)

    def test_events_are_time_ordered(self, pack):
        profile = replace(bundled_profiles()["low"], student_id="s", seed=12)
        log = simulate_session(profile, pack, 900.0)
        times = [e.timestamp for e in log.events]
        assert times == sorted(times)

    def test_affect_grid_count_and_spacing(self, pack):
        profile = replace(bundled_profiles()["high"], student_id="s", seed=21)
        log = simulate_session(profile, pack, 900.0)
        assert len(log.affect) == math.ceil(log.session_end / 20.0)
        assert [o.timestamp for o in log.affect] == [20.0 * i for i in range(len(log.affect))]

    def test_affect_likelihoods_in_unit_interval(self, pack):
        profile = replace(bundled_profiles()["low"], student_id="s", seed=22)
        log = simulate_session(profile, pack, 900.0)
        for o in log.affect:
            for value in o.likelihoods.values():
                assert 0.0 <= value <= 1.0

    def test_session_end_is_last_event_end(self, pack):
        profile = replace(bundled_profiles()["high"], student_id="s", seed=23)
        log = simulate_session(profile, pack, 900.0)
        assert log.session_end == log.events[-1].end

    def test_budget_must_be_positive(self, pack):
        profile = replace(bundled_profiles()["high"], student_id="s", seed=1)
        with pytest.raises(ValueError):
            simulate_session(profile, pack, 0.0)


class TestBundledProfiles:
    def test_mixes_sum_to_one(self):
        for profile in bundled_profiles().values():
            assert sum(profile.activity_mix.values()) == pytest.approx(1.0, abs=1e-9)

    def test_low_effectiveness_matches_reference(self):
        assert bundled_profiles()["low"].read_effectiveness == 0.454

    def test_high_assessment_share(self):
        mix = bundled_profiles()["high"].activity_mix
        sa = mix[ActionKind.TAKE_QUIZ] + mix[ActionKind.QUIZ_EXPL]
        assert sa == pytest.approx(0.263, abs=0.003)

    def test_profile_validation_rejects_bad_mix(self):
        base = bundled_profiles()["high"]
        with pytest.raises(ValueError):
            replace(base, activity_mix={k: v * 2 for k, v in base.activity_mix.items()})

    def test_profile_validation_rejects_bad_probability(self):
        base = bundled_profiles()["high"]
        with pytest.raises(ValueError):
            replace(base, read_effectiveness=1.5)


class TestCohort:
    def test_sizes_and_labels(self, pack):
        cohort = simulate_cohort(3, 2, seed=4, expert=pack, duration_budget=400.0)
        assert len(cohort.sessions) == 5
        assert sorted(cohort.grouping.values()) == ["High", "High", "High", "Low", "Low"]

    def test_requires_a_student_per_group(self, pack):
        with pytest.raises(ValueError):
            simulate_cohort(0, 1, seed=4, expert=pack)

    def test_engine_in_loop_produces_deliveries(self, pack):
        cohort = simulate_cohort(
            2, 2, seed=10, expert=pack, duration_budget=1200.0, engine_config=EngineConfig()
        )
        assert any(s.deliveries for s in cohort.sessions)


class TestReplayConsistency:
    def test_annotated_scores_telescope_to_final_map(self, pack):
        from mapcoach.causal import map_score

        for name, seed in (("high", 41), ("low", 42)):
            profile = replace(bundled_profiles()[name], student_id=name, seed=seed)
            log = simulate_session(profile, pack, 900.0)
            annotated = annotate_session(log.events, pack)
            assert annotated[-1].map_score_after == map_score(log.final_map, pack)


class TestAffectStream:
    def test_confusion_bump_covers_the_windows_inside_any_bump_span(self):
        """Deliveries closer than the minimum gap bump confusion in every
        20 s window inside [delivery, delivery + 120 s]; the jitter draws
        are the same with and without the bump."""
        from types import SimpleNamespace

        profile = bundled_profiles()["high"]
        config = EngineConfig()
        times = [30.0, 40.0, 100.0, 400.0, 410.0, 415.0, 900.0]
        deliveries = [SimpleNamespace(timestamp=t) for t in reversed(times)]
        spans = [(cur, cur + simulate.CONFUSION_BUMP_WINDOW)
                 for prev, cur in zip(times, times[1:])
                 if cur - prev < config.min_inter_scaffold_seconds]
        bumped = simulate._affect_stream(random.Random(5), profile, 1200.0, deliveries, config)
        plain = simulate._affect_stream(random.Random(5), profile, 1200.0, [], config)
        assert len(bumped) == len(plain) == 60
        for a, b in zip(bumped, plain):
            inside = any(start <= a.timestamp <= end for start, end in spans)
            assert (a.likelihoods[Emotion.CONFUSION] != b.likelihoods[Emotion.CONFUSION]) is inside
            assert all(a.likelihoods[e] == b.likelihoods[e]
                       for e in Emotion if e is not Emotion.CONFUSION)
        assert sum(any(s <= a.timestamp <= e for s, e in spans) for a in bumped) == 13


class TestInlinedDraws:
    """The simulator spells out two stdlib draws for speed; these hold them
    to the stdlib, so a Python whose random module changes either fails
    here instead of quietly changing simulated output."""

    @given(
        seed=st.integers(min_value=0, max_value=2**64),
        weights=st.lists(
            st.one_of(st.sampled_from([0.0, 1e-6]),
                      st.floats(min_value=0.0, max_value=1e12)),
            min_size=4, max_size=4,
        ),
    )
    def test_activity_draw_is_random_choices(self, seed, weights):
        assume(sum(weights) > 0)
        kinds = simulate._Session.CHOICE_KINDS
        rng, twin = random.Random(seed), random.Random(seed)
        assert simulate._weighted_choice(rng, kinds, weights) == twin.choices(
            kinds, weights=weights)[0]
        assert rng.getstate() == twin.getstate()

    @given(seed=st.integers(min_value=0, max_value=2**64))
    def test_affect_jitter_is_random_uniform(self, seed):
        rng, twin = random.Random(seed), random.Random(seed)
        for _ in range(5):
            assert -0.02 + 0.04 * rng.random() == twin.uniform(-0.02, 0.02)
