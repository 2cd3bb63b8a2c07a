"""mapcoach: an environment-agnostic toolkit for adaptive scaffolding around
causal-map learning activity.

The pieces: causal-map scoring/queries/quizzes (`causal`), action-log
annotation (`annotate`), the inflection-point scaffold engine (`engine`),
differential sequence mining (`mining`), outcome and impact analytics
(`analytics`), a seeded synthetic-student simulator (`simulate`), and a CLI
(`cli`) that wires them into a pipeline.
"""

__version__ = "0.1.0"

from .causal import (
    CausalLink,
    CausalMap,
    Concept,
    ExpertMap,
    Marking,
    QuizScope,
    Sign,
    answer_query,
    classify_link,
    generate_quiz,
    grade_quiz,
    map_score,
)
from .annotate import (
    ActionEvent,
    ActionKind,
    AnnotatedEvent,
    MapEdit,
    MapEditAction,
    annotate_session,
    collapse,
    tag_coherence,
    time_distribution,
)
from .engine import (
    EngineConfig,
    ScaffoldDelivery,
    ScaffoldEngine,
    ScaffoldKind,
    delivery_counts,
    run_conversation,
)
from .mining import TokenSequence, count_occurrences, mine
from .analytics import (
    affect_aggregate,
    map_score_slope,
    median_split,
    nlg,
    segment_intervals,
)
from .stats import one_way_ancova, one_way_anova
from .pack import default_expert_map
from .simulate import StudentProfile, bundled_profiles, simulate_cohort, simulate_session
