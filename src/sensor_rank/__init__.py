"""Classify short social-media posts and rank candidate social sensors.

The pipeline: normalize post text into n-gram count rows, train a three-class
relevance model, aggregate per-user activity statistics, and rank candidate
users on a follower graph by an adapted topic-specific PageRank plus two
focus percentages.
"""

from .classify import (
    EvalReport,
    LabeledDataset,
    MnnbModel,
    TrainingConfig,
    cross_validate,
    dataset_from_corpus,
    evaluate,
    load_model,
    predict_many,
    save_model,
    smote,
    subsample_spread,
    train_mnnb,
    train_model,
)
from .corpus import (
    LABEL_ORDER,
    Corpus,
    FollowerGraph,
    Label,
    load_corpus,
    load_exclusions,
    load_follower_graph,
    write_corpus,
    write_follower_graph,
)
from .forest import RfModel, train_rf
from .keywords import (
    DEFAULT_KEYWORDS,
    EXPANSION_KEYWORDS,
    SEED_KEYWORDS,
    expansion_candidates,
)
from .rank import (
    RankConfig,
    RankingReport,
    RankVector,
    TransitionMatrix,
    UserStats,
    build_transition,
    candidate_filter,
    compute_user_stats,
    connected_components,
    overall_focus,
    ranking_report,
    topic_focus,
    twitterrank,
)
from .synth import SynthConfig, generate
from .text import (
    DROP,
    CountMatrix,
    ReplacementTable,
    Vocabulary,
    count_ngrams,
    load_stopwords,
    tfidf_rank,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_KEYWORDS",
    "DROP",
    "EXPANSION_KEYWORDS",
    "EvalReport",
    "Corpus",
    "CountMatrix",
    "FollowerGraph",
    "LABEL_ORDER",
    "Label",
    "LabeledDataset",
    "MnnbModel",
    "RankConfig",
    "RankVector",
    "RankingReport",
    "ReplacementTable",
    "RfModel",
    "SEED_KEYWORDS",
    "SynthConfig",
    "TrainingConfig",
    "TransitionMatrix",
    "UserStats",
    "Vocabulary",
    "build_transition",
    "candidate_filter",
    "compute_user_stats",
    "connected_components",
    "count_ngrams",
    "cross_validate",
    "dataset_from_corpus",
    "evaluate",
    "expansion_candidates",
    "generate",
    "load_corpus",
    "load_exclusions",
    "load_follower_graph",
    "load_model",
    "load_stopwords",
    "overall_focus",
    "predict_many",
    "ranking_report",
    "save_model",
    "smote",
    "subsample_spread",
    "tfidf_rank",
    "topic_focus",
    "train_mnnb",
    "train_model",
    "train_rf",
    "twitterrank",
    "write_corpus",
    "write_follower_graph",
    "__version__",
]
