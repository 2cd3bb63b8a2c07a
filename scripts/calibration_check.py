#!/usr/bin/env python3
"""Compare simulated cohort behavior against the bundled profiles' targets:
IA/SC/SA time shares, edit effectiveness, and read->edit coherence."""

import argparse
import statistics
import sys

from mapcoach.annotate import (
    ActionKind,
    Effectiveness,
    annotate_session,
    time_distribution,
)
from mapcoach.pack import default_expert_map
from mapcoach.simulate import simulate_cohort

TARGETS = {
    "High": {"IA": 26.7, "SC": 47.0, "SA": 26.3, "eff": 0.637, "coherence": 0.88},
    "Low": {"IA": 38.0, "SC": 46.1, "SA": 15.9, "eff": 0.454, "coherence": 0.748},
}


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--students", type=int, default=40, help="per group")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--budget", type=float, default=1500.0)
    args = parser.parse_args(argv)

    expert = default_expert_map()
    cohort = simulate_cohort(
        args.students, args.students, seed=args.seed, expert=expert,
        duration_budget=args.budget, engine_config=None,
    )
    shares = {"High": [], "Low": []}
    eff = {"High": [0, 0], "Low": [0, 0]}
    coherent = {"High": [0, 0], "Low": [0, 0]}
    for session in cohort.sessions:
        group = cohort.grouping[session.student_id]
        annotated = annotate_session(session.events, expert)
        dist = time_distribution(annotated)
        shares[group].append((
            dist[ActionKind.READ] + dist[ActionKind.MAKE_NOTES],
            dist[ActionKind.MAP_EDIT],
            dist[ActionKind.TAKE_QUIZ] + dist[ActionKind.QUIZ_EXPL],
        ))
        for e in annotated:
            if e.kind is ActionKind.MAP_EDIT:
                if e.effectiveness is Effectiveness.EFF:
                    eff[group][0] += 1
                elif e.effectiveness is Effectiveness.INEFF:
                    eff[group][1] += 1
            if e.coherent is not None:
                coherent[group][0] += int(e.coherent)
                coherent[group][1] += 1

    for group in ("High", "Low"):
        target = TARGETS[group]
        means = [100.0 * statistics.fmean(s[i] for s in shares[group]) for i in range(3)]
        ratio = eff[group][0] / max(1, eff[group][0] + eff[group][1])
        coh = coherent[group][0] / max(1, coherent[group][1])
        print(f"{group} (n={args.students})")
        for label, got in zip(("IA", "SC", "SA"), means):
            print(f"  {label:3} time share {got:5.1f}%   target {target[label]:5.1f}%")
        print(f"  edit effectiveness {ratio:.3f}   target {target['eff']:.3f}")
        print(f"  read->edit coherence {coh:.3f}   target {target['coherence']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
