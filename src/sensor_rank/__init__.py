"""Classify short social-media posts and rank candidate social sensors.

The pipeline: normalize post text into n-gram count rows, train a three-class
relevance model, aggregate per-user activity statistics, and rank candidate
users on a follower graph by an adapted topic-specific PageRank plus two
focus percentages.

Each public name below is imported from its module on first access (PEP 562),
so `import sensor_rank` loads none of the library and a command line run loads
only the modules its command executes.
"""

import importlib

__version__ = "0.1.0"

# each public name -> the module that defines it
_HOME = {
    "DEFAULT_KEYWORDS": "keywords",
    "DROP": "text",
    "EXPANSION_KEYWORDS": "keywords",
    "EvalReport": "classify",
    "Corpus": "corpus",
    "CountMatrix": "text",
    "FollowerGraph": "corpus",
    "LABEL_ORDER": "corpus",
    "Label": "corpus",
    "LabeledDataset": "classify",
    "MnnbModel": "classify",
    "RankConfig": "rank",
    "RankVector": "rank",
    "RankingReport": "rank",
    "ReplacementTable": "text",
    "RfModel": "forest",
    "SEED_KEYWORDS": "keywords",
    "SynthConfig": "synth",
    "TrainingConfig": "classify",
    "TransitionMatrix": "rank",
    "UserStats": "rank",
    "Vocabulary": "text",
    "build_transition": "rank",
    "candidate_filter": "rank",
    "compute_user_stats": "rank",
    "connected_components": "rank",
    "count_ngrams": "text",
    "cross_validate": "classify",
    "dataset_from_corpus": "classify",
    "evaluate": "classify",
    "expansion_candidates": "keywords",
    "generate": "synth",
    "load_corpus": "corpus",
    "load_exclusions": "corpus",
    "load_follower_graph": "corpus",
    "load_model": "classify",
    "load_stopwords": "text",
    "overall_focus": "rank",
    "predict_many": "classify",
    "ranking_report": "rank",
    "save_model": "classify",
    "smote": "classify",
    "subsample_spread": "classify",
    "tfidf_rank": "text",
    "topic_focus": "rank",
    "train_mnnb": "classify",
    "train_model": "classify",
    "train_rf": "forest",
    "twitterrank": "rank",
    "write_corpus": "corpus",
    "write_follower_graph": "corpus",
}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    """The public name's object, read from its home module at each access, so
    a patched module attribute is what the package hands out."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
