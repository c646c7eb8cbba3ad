import importlib

import pytest

import sensor_rank

# The package's public names, in order; each is resolved from its module on first access.
PUBLIC = [
    "DEFAULT_KEYWORDS", "DROP", "EXPANSION_KEYWORDS", "EvalReport", "Corpus", "CountMatrix",
    "FollowerGraph", "LABEL_ORDER", "Label", "LabeledDataset", "MnnbModel", "RankConfig",
    "RankVector", "RankingReport", "ReplacementTable", "RfModel", "SEED_KEYWORDS",
    "SynthConfig", "TrainingConfig", "TransitionMatrix", "UserStats", "Vocabulary",
    "build_transition", "candidate_filter", "compute_user_stats", "connected_components",
    "count_ngrams", "cross_validate", "dataset_from_corpus", "evaluate",
    "expansion_candidates", "generate", "load_corpus", "load_exclusions",
    "load_follower_graph", "load_model", "load_stopwords", "overall_focus", "predict_many",
    "ranking_report", "save_model", "smote", "subsample_spread", "tfidf_rank", "topic_focus",
    "train_mnnb", "train_model", "train_rf", "twitterrank", "write_corpus",
    "write_follower_graph", "__version__",
]
MODULES = ("classify", "corpus", "forest", "keywords", "rank", "synth", "text")


def home_objects() -> dict:
    """Each name a library module exports in its own __all__, as that module holds it."""
    objects = {}
    for name in MODULES:
        module = importlib.import_module(f"sensor_rank.{name}")
        objects.update((attr, getattr(module, attr)) for attr in module.__all__)
    return objects


def test_public_names_are_unchanged():
    assert sensor_rank.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(sensor_rank))


def test_each_public_name_is_its_home_module_object():
    homes = home_objects()
    for name in PUBLIC[:-1]:
        assert getattr(sensor_rank, name) is homes[name], name
    assert sensor_rank.__version__ == "0.1.0"


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from sensor_rank import *", namespace)
    del namespace["__builtins__"]
    homes = home_objects()
    assert sorted(namespace) == sorted(PUBLIC)
    assert all(namespace[name] is homes[name] for name in PUBLIC[:-1])


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        sensor_rank.no_such_name
    with pytest.raises(ImportError):
        exec("from sensor_rank import no_such_name", {})
