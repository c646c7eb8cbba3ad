import argparse
import dataclasses
import importlib
import re
from pathlib import Path

import pytest

import sensor_rank
from sensor_rank import cli
from sensor_rank.classify import TrainingConfig
from sensor_rank.rank import RankConfig

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


README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def readme_after(heading: str) -> str:
    """The README's text after a heading."""
    return README.split(f"\n{heading}\n", 1)[1]


def test_readme_library_example_runs_as_written():
    block = re.search(r"```python\n(.*?)```", readme_after("## Library"), re.S).group(1)
    namespace: dict = {}
    exec(block, namespace)
    assert namespace["top"].rows[0].user_id == "sentinela001"


def flag_table() -> dict[str, str]:
    """The README's flag table: each flag and its default column."""
    table = readme_after("### Flags").split("\n#", 1)[0]
    rows = re.findall(r"^\| `(--[a-z-]+)` \| ([^|]+) \|", table, re.M)
    return {flag: default.strip() for flag, default in rows}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_readme_flag_table_lists_the_parsers_flags(command):
    parser = cli._build_parser(command)
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = [flag for action in sub.choices[command]._actions for flag in action.option_strings
             if flag.startswith("--") and flag != "--help"]
    assert flags == list(flag_table())


def test_readme_flag_defaults_match_the_keys_and_configs():
    fields = {field.name: field.default
              for cls in (RankConfig, TrainingConfig) for field in dataclasses.fields(cls)}
    for flag, default in flag_table().items():
        key = cli._KEYS.get(flag[2:].replace("-", "_"))
        if key is None:  # --config
            assert default == "(none)"
            continue
        stated = re.search(r"\(default:? ([^)]+)\)", key.help)
        assert default == (stated.group(1) if stated else "(none)"), flag
        name = "n_trees" if key.name == "trees" else key.name
        if default == "(none)":
            assert name not in fields, flag
        elif fields[name] is None:
            assert default == "off", flag
        else:
            assert key.type(default) == fields[name], flag
