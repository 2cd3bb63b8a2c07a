import pytest

from mapcoach.annotate import ActionKind, annotate_session
from mapcoach.causal import QuizScope
from mapcoach.mining import TokenSequence, mine
from mapcoach.reports import dsm_table, outcomes_table, time_distribution_table
from test_annotate import add_concept, ev, read

# cells hand-verified: i-supports are per-student mean greedy counts, the
# inf rows come from zero within-group variance with unequal means, and
# p of 0.4226 is the two-sided tail of t=1 at 2 degrees of freedom
DSM_GOLDEN = """\
pattern\ti-support High\ti-support Low\tt\tp-value\teffect size (d)\ts-support High\ts-support Low\ts-frequent group
Note -> Read\t0.0000\t1.0000\t-inf\t0.0000\tinf\t0.0000\t1.0000\tLow
Read -> LinkEdit-Eff\t1.0000\t0.0000\tinf\t0.0000\tinf\t1.0000\t0.0000\tHigh
Read -> Note\t0.0000\t1.0000\t-inf\t0.0000\tinf\t0.0000\t1.0000\tLow
LinkEdit-Eff -> QuizTaken\t0.5000\t0.0000\t1.0000\t0.4226\t1.0000\t0.5000\t0.0000\tHigh
LinkEdit-Eff -> Read\t0.5000\t0.0000\t1.0000\t0.4226\t1.0000\t0.5000\t0.0000\tHigh
Note -> Note\t0.0000\t0.5000\t-1.0000\t0.4226\t1.0000\t0.0000\t0.5000\tLow
Read -> QuizTaken\t0.5000\t0.0000\t1.0000\t0.4226\t1.0000\t0.5000\t0.0000\tHigh
Read -> Read\t0.5000\t0.5000\t0.0000\t1.0000\t0.0000\t0.5000\t0.5000\tBoth
# effect size is the pooled-SD standardized mean difference d; for two groups Cohen's f = d / 2
"""


class TestDsmTable:
    def test_frozen_golden_corpus(self):
        group_a = [
            TokenSequence("s1", ("Read", "LinkEdit-Eff", "QuizTaken")),
            TokenSequence("s2", ("Read", "LinkEdit-Eff", "Read")),
        ]
        group_b = [
            TokenSequence("s3", ("Read", "Note", "Read")),
            TokenSequence("s4", ("Note", "Read", "Note")),
        ]
        table = dsm_table(mine(group_a, group_b, max_gap=1, s_threshold=0.5, max_len=2))
        assert table == DSM_GOLDEN


class TestTimeDistributionTable:
    def test_two_student_cohort_hand_computed(self, tiny_expert):
        # s1: read 30 s, concept edit 50 s, quiz 20 s -> 30% / 50% / 20%
        s1 = [
            read(0.0, duration=30.0),
            ev(30.0, ActionKind.MAP_EDIT, duration=50.0,
               edit=add_concept(0.0, "a").edit),
            ev(80.0, ActionKind.TAKE_QUIZ, duration=20.0, quiz_scope=QuizScope.everything()),
        ]
        # s2: read 60 s, notes 20 s, concept edit 20 s -> 60% / 20% / 20%
        s2 = [
            read(0.0, duration=60.0),
            ev(60.0, ActionKind.MAKE_NOTES, duration=20.0, note_id="n"),
            ev(80.0, ActionKind.MAP_EDIT, duration=20.0,
               edit=add_concept(0.0, "a").edit),
        ]
        table = time_distribution_table(
            {
                "s1": annotate_session(s1, tiny_expert),
                "s2": annotate_session(s2, tiny_expert),
            },
            {"s1": "High", "s2": "Low"},
        )
        lines = table.splitlines()
        assert lines[0] == "group\tn\tRead\tMakeNotes\tMapEdits\tTakeQuiz\tQuizExpl"
        assert lines[1] == "High\t1\t30.00\t0.00\t50.00\t20.00\t0.00"
        assert lines[2] == "Low\t1\t60.00\t20.00\t20.00\t0.00\t0.00"


class TestOutcomesTable:
    def test_overall_row_hand_computed(self):
        from mapcoach.analytics import OutcomeRecord

        outcomes = [
            OutcomeRecord("s1", pre=2.0, post=12.0, max_score=22.0),  # nlg 0.5
            OutcomeRecord("s2", pre=4.0, post=13.0, max_score=22.0),  # nlg 0.5
            OutcomeRecord("s3", pre=6.0, post=14.0, max_score=22.0),  # nlg 0.5
        ]
        table = outcomes_table(outcomes)
        lines = table.splitlines()
        # pre mean 4.00 (sd 2.00), post mean 13.00 (sd 1.00), nlg 0.50 (0.00)
        assert lines[1].startswith("Overall\t3\t4.00 (2.00)\t13.00 (1.00)\t0.50 (0.00)")

    def test_only_statistical_failures_become_dashes(self, monkeypatch):
        from mapcoach import reports
        from mapcoach.analytics import OutcomeRecord

        outcomes = [OutcomeRecord(f"s{i}", pre=2.0 * i, post=12.0 + i, max_score=22.0)
                    for i in (1, 2, 3)]
        # one student: the pre/post ANOVA has too few values and prints dashes
        assert outcomes_table(outcomes[:1]).splitlines()[1].endswith("\t-\t-")

        def broken(*args):
            raise TypeError("not a statistical failure")

        monkeypatch.setattr(reports, "one_way_anova", broken)
        with pytest.raises(TypeError):
            outcomes_table(outcomes)
