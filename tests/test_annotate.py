import math
import random
from dataclasses import replace
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mapcoach import annotate as annotate_module
from mapcoach.annotate import (
    ActionEvent,
    ActionKind,
    Effectiveness,
    EmptySession,
    MapEdit,
    MapEditAction,
    PROCESS_FOR_KIND,
    Process,
    ReplayError,
    SessionAnnotator,
    annotate_session,
    apply_edit,
    collapse,
    event_label,
    tag_coherence,
    time_distribution,
)
from mapcoach.causal import CausalLink, CausalMap, Concept, Marking, QuizScope, Sign, map_score
from mapcoach.pipeline import replay_events
from mapcoach.simulate import bundled_profiles, simulate_session

INC, DEC = Sign.INCREASE, Sign.DECREASE


def ev(t, kind, duration=5.0, **payload):
    return ActionEvent(student_id="s", timestamp=t, kind=kind, duration=duration, **payload)


def add_concept(t, cid):
    return ev(t, ActionKind.MAP_EDIT, edit=MapEdit(
        MapEditAction.ADD_CONCEPT, concept=Concept(id=cid, name=cid.upper(), section="s1")))


def add_link(t, s, tgt, sign):
    return ev(t, ActionKind.MAP_EDIT, edit=MapEdit(
        MapEditAction.ADD_LINK, link=CausalLink(source=s, target=tgt, sign=sign)))


def delete_link(t, s, tgt):
    return ev(t, ActionKind.MAP_EDIT, edit=MapEdit(MapEditAction.DELETE_LINK, source=s, target=tgt))


def delete_concept(t, cid):
    return ev(t, ActionKind.MAP_EDIT, edit=MapEdit(MapEditAction.DELETE_CONCEPT, concept_id=cid))


def read(t, page="pa", duration=30.0):
    return ev(t, ActionKind.READ, duration=duration, page=page)


def setup_events(expert):
    events = []
    t = 0.0
    for concept in expert.map.sorted_concepts():
        events.append(add_concept(t, concept.id))
        t += 2.0
    return events, t


class TestPlacedLink:
    def test_adds_and_modifies_place_a_link_and_nothing_else_does(self):
        link, new = CausalLink("a", "b", INC), CausalLink("b", "c", DEC)
        edits = [
            MapEdit(MapEditAction.ADD_CONCEPT, concept=Concept("a", "A", "s1")),
            MapEdit(MapEditAction.DELETE_CONCEPT, concept_id="a"),
            MapEdit(MapEditAction.ADD_LINK, link=link),
            MapEdit(MapEditAction.DELETE_LINK, source="a", target="b"),
            MapEdit(MapEditAction.MODIFY_LINK, old=link, new=new),
            MapEdit(MapEditAction.MARK_LINK, source="a", target="b",
                    marking=Marking.MARKED_CORRECT),
        ]
        assert {e.action: e.placed_link() for e in edits} == {
            MapEditAction.ADD_CONCEPT: None,
            MapEditAction.DELETE_CONCEPT: None,
            MapEditAction.ADD_LINK: link,
            MapEditAction.DELETE_LINK: None,
            MapEditAction.MODIFY_LINK: new,
            MapEditAction.MARK_LINK: None,
        }
        assert {e.action for e in edits} == set(MapEditAction)


class TestAnnotateSession:
    def test_correct_add_is_effective(self, tiny_expert):
        events, t = setup_events(tiny_expert)
        events.append(add_link(t, "a", "b", INC))
        annotated = annotate_session(events, tiny_expert)
        assert annotated[-1].effectiveness is Effectiveness.EFF
        assert annotated[-1].map_score_after == 1

    def test_wrong_sign_add_is_ineffective(self, tiny_expert):
        events, t = setup_events(tiny_expert)
        events.append(add_link(t, "a", "b", DEC))
        annotated = annotate_session(events, tiny_expert)
        assert annotated[-1].effectiveness is Effectiveness.INEFF
        assert annotated[-1].map_score_after == -1

    def test_delete_bare_concept_is_neutral(self, tiny_expert):
        events, t = setup_events(tiny_expert)
        events.append(delete_concept(t, "d"))
        annotated = annotate_session(events, tiny_expert)
        assert annotated[-1].effectiveness is Effectiveness.NEUTRAL

    def test_delete_concept_with_incident_links_changes_score(self, tiny_expert):
        events, t = setup_events(tiny_expert)
        events.append(add_link(t, "a", "b", INC))
        events.append(delete_concept(t + 5, "b"))
        annotated = annotate_session(events, tiny_expert)
        assert annotated[-1].effectiveness is Effectiveness.INEFF
        assert annotated[-1].map_score_after == 0

    def test_score_carried_on_non_edit_events(self, tiny_expert):
        events, t = setup_events(tiny_expert)
        events.append(add_link(t, "a", "b", INC))
        events.append(read(t + 5))
        events.append(ev(t + 40, ActionKind.TAKE_QUIZ, quiz_scope=QuizScope.everything()))
        annotated = annotate_session(events, tiny_expert)
        assert [e.map_score_after for e in annotated[-3:]] == [1, 1, 1]

    def test_marking_is_neutral(self, tiny_expert):
        events, t = setup_events(tiny_expert)
        events.append(add_link(t, "a", "b", INC))
        events.append(ev(t + 5, ActionKind.MAP_EDIT, edit=MapEdit(
            MapEditAction.MARK_LINK, source="a", target="b", marking=Marking.MARKED_CORRECT)))
        annotated = annotate_session(events, tiny_expert)
        assert annotated[-1].effectiveness is Effectiveness.NEUTRAL

    def test_long_flag_only_for_reads(self, tiny_expert):
        events = [read(0.0, duration=61.0), read(70.0, duration=59.9),
                  ev(140.0, ActionKind.TAKE_QUIZ, duration=400.0, quiz_scope=QuizScope.everything())]
        annotated = annotate_session(events, tiny_expert)
        assert [e.long for e in annotated] == [True, False, False]

    def test_process_mapping_is_exhaustive(self, tiny_expert):
        events, t = setup_events(tiny_expert)
        events += [
            read(t),
            ev(t + 40, ActionKind.MAKE_NOTES, note_id="n1"),
            ev(t + 50, ActionKind.TAKE_QUIZ, quiz_scope=QuizScope.everything()),
            ev(t + 60, ActionKind.QUIZ_EXPL, question_ref=0),
        ]
        annotated = annotate_session(events, tiny_expert)
        expected = {
            ActionKind.READ: Process.IA,
            ActionKind.MAKE_NOTES: Process.IA,
            ActionKind.MAP_EDIT: Process.SC,
            ActionKind.TAKE_QUIZ: Process.SA,
            ActionKind.QUIZ_EXPL: Process.SA,
        }
        assert PROCESS_FOR_KIND == expected
        for e in annotated:
            assert e.process is expected[e.kind]

    def test_non_edits_keep_neutral_effectiveness(self, tiny_expert):
        annotated = annotate_session([read(0.0)], tiny_expert)
        assert annotated[0].effectiveness is Effectiveness.NEUTRAL

    def test_replay_error_on_deleting_absent_link(self, tiny_expert):
        events, t = setup_events(tiny_expert)
        events.append(delete_link(t, "a", "b"))
        with pytest.raises(ReplayError) as err:
            annotate_session(events, tiny_expert)
        assert err.value.index == len(events) - 1

    def test_replay_error_on_duplicate_add(self, tiny_expert):
        events, t = setup_events(tiny_expert)
        events.append(add_link(t, "a", "b", INC))
        events.append(add_link(t + 5, "a", "b", DEC))
        with pytest.raises(ReplayError):
            annotate_session(events, tiny_expert)

    def test_replay_error_on_out_of_order_timestamps(self, tiny_expert):
        events = [read(10.0), read(5.0)]
        with pytest.raises(ReplayError):
            annotate_session(events, tiny_expert)

    def test_effectiveness_deltas_telescope_to_final_score(self, tiny_expert):
        events, t = setup_events(tiny_expert)
        events += [
            add_link(t, "a", "b", INC),
            add_link(t + 5, "b", "c", DEC),
            delete_link(t + 10, "b", "c"),
            add_link(t + 15, "a", "c", INC),
        ]
        annotated = annotate_session(events, tiny_expert)
        deltas = []
        prev = 0
        for e in annotated:
            deltas.append(e.map_score_after - prev)
            prev = e.map_score_after
        final = reduce(
            apply_edit, [e.edit for e in events if e.kind is ActionKind.MAP_EDIT], CausalMap()
        )
        assert sum(deltas) == annotated[-1].map_score_after == map_score(final, tiny_expert)


def link_edit(t, action, **fields):
    return ev(t, ActionKind.MAP_EDIT, edit=MapEdit(action, **fields))


_CONCEPT_IDS = "abcde"  # e is on no expert link
_OPS = ("add_concept", "delete_concept", "add_link", "delete_link", "modify_same",
        "modify_other", "mark")
_STEPS = st.lists(
    st.tuples(st.sampled_from(_OPS), st.integers(0, 19), st.booleans(), st.sampled_from(Marking)),
    max_size=40,
)


def _edit_for(cmap, op, i, flip, marking, concept_ids=_CONCEPT_IDS):
    """A valid edit of kind `op` on `cmap`, picked by `i`, or None when the
    map has nothing to apply it to.  Concept deletes pick a concept with an
    incident link."""
    sign = DEC if flip else INC
    links = cmap.sorted_links()
    free = [(s, t) for s in sorted(cmap.concepts) for t in sorted(cmap.concepts)
            if s != t and (s, t) not in cmap.links]
    if op == "add_concept":
        absent = [c for c in concept_ids if c not in cmap.concepts]
        if absent:
            c = absent[i % len(absent)]
            return MapEdit(MapEditAction.ADD_CONCEPT, concept=Concept(c, c.upper(), "s1"))
        return None
    if op == "delete_concept":
        linked = sorted({c for link in links for c in link.key})
        if linked:
            return MapEdit(MapEditAction.DELETE_CONCEPT, concept_id=linked[i % len(linked)])
        return None
    if op == "add_link":
        if free:
            s, t = free[i % len(free)]
            return MapEdit(MapEditAction.ADD_LINK, link=CausalLink(s, t, sign))
        return None
    if not links:
        return None
    link = links[i % len(links)]
    if op == "delete_link":
        return MapEdit(MapEditAction.DELETE_LINK, source=link.source, target=link.target)
    if op == "mark":
        return MapEdit(MapEditAction.MARK_LINK, source=link.source, target=link.target,
                       marking=marking)
    if op == "modify_same":
        new = CausalLink(link.source, link.target, link.sign.flipped() if flip else link.sign)
        return MapEdit(MapEditAction.MODIFY_LINK, old=link, new=new)
    if free:
        s, t = free[(i * 7) % len(free)]
        return MapEdit(MapEditAction.MODIFY_LINK, old=link, new=CausalLink(s, t, sign))
    return None


class TestIncrementalScore:
    @settings(max_examples=120, deadline=None)
    @given(_STEPS)
    def test_score_after_every_edit_is_the_brute_force_score(self, tiny_expert, steps):
        annotator = SessionAnnotator(tiny_expert)
        expert_triples = oracles.triples(tiny_expert.map)
        for c in "abcd":
            annotator.feed(add_concept(0.0, c))
        for op, i, flip, marking in steps:
            edit = _edit_for(annotator.current_map, op, i, flip, marking)
            if edit is None:
                continue
            before = annotator.score
            annotated = annotator.feed(ev(0.0, ActionKind.MAP_EDIT, edit=edit))
            after = annotated.map_score_after
            assert after == oracles.brute_map_score(
                oracles.triples(annotator.current_map), expert_triples
            )
            assert annotated.effectiveness is (
                Effectiveness.EFF if after > before
                else Effectiveness.INEFF if after < before
                else Effectiveness.NEUTRAL
            )

    def test_link_edits_never_rescore_the_map(self, tiny_expert, monkeypatch):
        calls = []

        def counted(student, expert):
            calls.append(student)
            return map_score(student, expert)

        monkeypatch.setattr(annotate_module, "map_score", counted)
        events, t = setup_events(tiny_expert)
        events += [
            add_link(t, "a", "b", INC),
            add_link(t + 1, "b", "c", DEC),
            link_edit(t + 2, MapEditAction.MODIFY_LINK,
                      old=CausalLink("b", "c", DEC), new=CausalLink("b", "c", INC)),
            link_edit(t + 3, MapEditAction.MODIFY_LINK,
                      old=CausalLink("a", "b", INC), new=CausalLink("c", "d", INC)),
            link_edit(t + 4, MapEditAction.MARK_LINK, source="b", target="c",
                      marking=Marking.MARKED_CORRECT),
            delete_link(t + 5, "c", "d"),
            read(t + 6),
        ]
        annotator = SessionAnnotator(tiny_expert)
        scores = [annotator.feed(e).map_score_after for e in events]
        assert calls == []
        assert scores[-7:] == [1, 0, 2, 0, 0, 1, 1]
        annotator.feed(delete_concept(t + 40, "b"))
        assert len(calls) == 1 and annotator.score == 0


def _fed(events, expert, lookback=None):
    annotator = SessionAnnotator(expert, coherence_lookback=lookback)
    return [annotator.feed(e) for e in events]


@st.composite
def _coherence_streams(draw):
    """A random expert and a valid stream on it: its concepts and one more
    added at time 0, then reads (of cited pages and of one no link cites),
    notes and map edits, some at equal times."""
    expert = oracles.random_expert(random.Random(draw(st.integers(0, 10**6))), 6, 10)
    ids = sorted(expert.concepts) + ["x"]  # x is on no expert link
    pages = expert.page_ids() + ["uncited"]
    steps = draw(st.lists(st.tuples(
        st.sampled_from(("read", "add_expert_pair") * 3 + ("note",) + _OPS),
        st.integers(0, 19),
        st.booleans(),
        st.one_of(st.sampled_from([0.0, 30.0, 60.0]), st.floats(0.0, 300.0)),
    ), min_size=1, max_size=60))
    events = [ev(0.0, ActionKind.MAP_EDIT, edit=MapEdit(
        MapEditAction.ADD_CONCEPT, concept=Concept(c, c.upper(), "s1"))) for c in ids]
    annotator = SessionAnnotator(expert)
    for event in events:
        annotator.feed(event)
    t = 0.0
    for op, i, flip, dt in steps:
        t += dt
        if op == "read":
            event = read(t, page=pages[i % len(pages)])
        elif op == "note":
            event = ev(t, ActionKind.MAKE_NOTES, note_id=f"n{i}")
        elif op == "add_expert_pair":
            cmap = annotator.current_map
            free = [(a, b) for a, b in sorted(expert.links)
                    if (a, b) not in cmap.links and a in cmap.concepts and b in cmap.concepts]
            if not free:
                continue
            a, b = free[i % len(free)]
            event = add_link(t, a, b, DEC if flip else INC)
        else:
            edit = _edit_for(annotator.current_map, op, i, flip, Marking.MARKED_CORRECT, ids)
            if edit is None:
                continue
            event = ev(t, ActionKind.MAP_EDIT, edit=edit)
        annotator.feed(event)
        events.append(event)
    return expert, events


class TestCoherence:
    def test_read_then_matching_add_is_coherent(self, tiny_expert):
        events, t = setup_events(tiny_expert)
        events += [read(t, page="pa"), add_link(t + 40, "a", "b", INC)]
        assert annotate_session(events, tiny_expert)[-1].coherent is True

    def test_wrong_sign_from_read_page_still_coherent(self, tiny_expert):
        events, t = setup_events(tiny_expert)
        events += [read(t, page="pa"), add_link(t + 40, "a", "b", DEC)]
        assert annotate_session(events, tiny_expert)[-1].coherent is True

    def test_add_without_any_read_is_incoherent(self, tiny_expert):
        events, t = setup_events(tiny_expert)
        events.append(add_link(t, "a", "b", INC))
        assert annotate_session(events, tiny_expert)[-1].coherent is False

    def test_add_unsupported_by_read_pages_is_incoherent(self, tiny_expert):
        events, t = setup_events(tiny_expert)
        events += [read(t, page="pa"), add_link(t + 40, "b", "c", INC)]
        assert annotate_session(events, tiny_expert)[-1].coherent is False

    def test_non_link_events_stay_untagged(self, tiny_expert):
        events, t = setup_events(tiny_expert)
        events += [read(t, page="pa"), add_link(t + 1, "a", "b", INC),
                   link_edit(t + 2, MapEditAction.MARK_LINK, source="a", target="b",
                             marking=Marking.MARKED_CORRECT),
                   delete_link(t + 3, "a", "b")]
        tagged = annotate_session(events, tiny_expert)
        assert [e.coherent for e in tagged] == [None] * (len(tagged) - 3) + [True, None, None]

    def test_lookback_bounds_the_window(self, tiny_expert):
        events, t = setup_events(tiny_expert)
        events += [read(t, page="pa"), add_link(t + 500.0, "a", "b", INC)]
        assert _fed(events, tiny_expert, lookback=100.0)[-1].coherent is False
        assert _fed(events, tiny_expert, lookback=1000.0)[-1].coherent is True
        assert _fed(events, tiny_expert, lookback=500.0)[-1].coherent is True

    @settings(max_examples=40, deadline=None)
    @given(st.floats(1.0, 400.0), st.floats(0.0, 400.0))
    def test_lookback_monotonicity(self, tiny_expert, small, extra):
        events, t = setup_events(tiny_expert)
        events += [read(t, page="pa"), add_link(t + 120.0, "a", "b", INC)]
        tight = _fed(events, tiny_expert, lookback=small)[-1].coherent
        loose = _fed(events, tiny_expert, lookback=small + extra)[-1].coherent
        if tight:
            assert loose

    def test_modify_uses_new_endpoints(self, tiny_expert):
        events, t = setup_events(tiny_expert)
        events += [
            read(t, page="pb"),  # supports b->c
            add_link(t + 40, "a", "b", INC),
            ev(t + 50, ActionKind.MAP_EDIT, edit=MapEdit(
                MapEditAction.MODIFY_LINK,
                old=CausalLink(source="a", target="b", sign=INC),
                new=CausalLink(source="b", target="c", sign=INC))),
        ]
        tagged = annotate_session(events, tiny_expert)
        assert tagged[-2].coherent is False  # a->b not on page pb
        assert tagged[-1].coherent is True   # modified into the b->c the page supports

    @pytest.mark.parametrize("lookback", [math.nan, -5.0, -math.inf])
    def test_bad_lookback_is_rejected(self, tiny_expert, lookback):
        with pytest.raises(ValueError, match="coherence lookback"):
            SessionAnnotator(tiny_expert, coherence_lookback=lookback)

    @settings(max_examples=150, deadline=None)
    @given(_coherence_streams(),
           st.one_of(st.none(), st.sampled_from([0.0, 60.0, 90.0]), st.floats(0.0, 600.0),
                     st.just(math.inf)))
    def test_in_stream_tags_equal_the_brute_force_scan(self, stream, lookback):
        expert, events = stream
        expected = oracles.brute_coherence(events, expert, lookback)
        assert [e.coherent for e in _fed(events, expert, lookback)] == expected
        retagged = tag_coherence(annotate_session(events, expert), expert, lookback=lookback)
        assert [e.coherent for e in retagged] == expected

    def test_replay_annotates_a_simulated_session_as_annotate_session_does(self, pack):
        profile = replace(bundled_profiles()["high"], student_id="s-coh", seed=3)
        session = simulate_session(profile, pack, 900.0)
        replayed = replay_events(session.student_id, session.events, pack).annotated
        assert replayed == tuple(annotate_session(session.events, pack))
        assert any(e.coherent for e in replayed) and any(e.coherent is False for e in replayed)


class TestCollapse:
    def test_merges_adjacent_reads(self, tiny_expert):
        pre, t0 = setup_events(tiny_expert)
        shifted = [read(t0), read(t0 + 40), read(t0 + 80), add_link(t0 + 120, "a", "b", INC)]
        tokens = collapse(annotate_session(pre + shifted, tiny_expert))
        assert [t.label for t in tokens][-2:] == ["Read-Mult", "LinkEdit-Eff"]
        assert tokens[-2].count == 3 and tokens[-1].count == 1

    def test_two_ineffective_edits_collapse_with_mult(self, tiny_expert):
        pre, t0 = setup_events(tiny_expert)
        events = pre + [add_link(t0, "a", "b", DEC), add_link(t0 + 5, "b", "c", DEC)]
        tokens = collapse(annotate_session(events, tiny_expert))
        assert tokens[-1].label == "LinkEdit-Ineff-Mult"
        assert tokens[-1].count == 2

    def test_empty_stream(self):
        assert collapse([]) == []

    def test_span_covers_first_start_to_last_end(self, tiny_expert):
        pre, t0 = setup_events(tiny_expert)
        events = pre + [read(t0, duration=30.0), read(t0 + 30, duration=20.0)]
        tokens = collapse(annotate_session(events, tiny_expert))
        assert tokens[-1].span == (t0, t0 + 50.0)

    @settings(max_examples=80, deadline=None)
    @given(_coherence_streams())
    def test_tokens_are_the_maximal_runs_of_event_labels(self, stream):
        """Each token is one maximal run of equal event labels: -Mult iff
        the run has two or more events, spanning its first start to its
        last end."""
        expert, events = stream
        annotated = annotate_session(events, expert)
        tokens = collapse(annotated)
        labels = [event_label(e) for e in annotated]
        start = 0
        for token in tokens:
            end = start + token.count
            label = labels[start]
            assert labels[start:end] == [label] * token.count
            assert start == 0 or labels[start - 1] != label
            assert token.label == (label + "-Mult" if token.count >= 2 else label)
            assert token.span == (annotated[start].timestamp, annotated[end - 1].base.end)
            start = end
        assert start == len(annotated)


class TestTimeDistribution:
    def test_single_read_takes_everything(self, tiny_expert):
        dist = time_distribution(annotate_session([read(0.0, duration=10.0)], tiny_expert))
        assert dist[ActionKind.READ] == 1.0
        assert all(v == 0.0 for k, v in dist.items() if k is not ActionKind.READ)

    def test_reference_durations_reproduce_their_shares(self, tiny_expert):
        durations = {
            ActionKind.READ: 26.2,
            ActionKind.MAKE_NOTES: 0.5,
            ActionKind.MAP_EDIT: 47.0,
            ActionKind.TAKE_QUIZ: 23.13,
            ActionKind.QUIZ_EXPL: 3.2,
        }
        pre, t0 = setup_events(tiny_expert)
        events = list(pre)
        t = t0
        events.append(read(t, duration=26.2)); t += 26.2
        events.append(ev(t, ActionKind.MAKE_NOTES, duration=0.5, note_id="n")); t += 0.5
        events.append(add_link(t, "a", "b", INC)); t += 5.0
        events.append(ev(t, ActionKind.TAKE_QUIZ, duration=23.13, quiz_scope=QuizScope.everything())); t += 23.13
        events.append(ev(t, ActionKind.QUIZ_EXPL, duration=3.2, question_ref=0))
        # replace the edit duration and strip the concept-layout time by
        # computing expectations over the full stream instead
        annotated = annotate_session(events, tiny_expert)
        total = sum(e.duration for e in annotated)
        dist = time_distribution(annotated)
        for kind in ActionKind:
            expected = sum(e.duration for e in annotated if e.kind is kind) / total
            assert dist[kind] == pytest.approx(expected, abs=1e-12)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)

    def test_two_equal_activities_split_evenly(self, tiny_expert):
        events = [read(0.0, duration=30.0),
                  ev(30.0, ActionKind.MAKE_NOTES, duration=30.0, note_id="n")]
        dist = time_distribution(annotate_session(events, tiny_expert))
        assert dist[ActionKind.READ] == pytest.approx(0.5)
        assert dist[ActionKind.MAKE_NOTES] == pytest.approx(0.5)

    def test_empty_session_rejected(self, tiny_expert):
        with pytest.raises(EmptySession):
            time_distribution([])

    def test_exact_table_shape_fractions(self, tiny_expert):
        events = [
            read(0.0, duration=26.2),
            ev(26.2, ActionKind.MAKE_NOTES, duration=0.5, note_id="n"),
            ev(26.7, ActionKind.TAKE_QUIZ, duration=23.13, quiz_scope=QuizScope.everything()),
            ev(49.83, ActionKind.QUIZ_EXPL, duration=3.2, question_ref=0),
        ]
        dist = time_distribution(annotate_session(events, tiny_expert))
        total = 26.2 + 0.5 + 23.13 + 3.2
        assert dist[ActionKind.READ] == pytest.approx(26.2 / total)
        assert dist[ActionKind.TAKE_QUIZ] == pytest.approx(23.13 / total)
