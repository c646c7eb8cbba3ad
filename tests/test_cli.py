import contextlib
import copy
import dataclasses
import io
import json
import logging
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sensor_rank
from sensor_rank import classify, cli, corpus as corpus_module
from sensor_rank import forest as forest_module
from sensor_rank.classify import TrainingConfig, load_model
from sensor_rank.cli import main
from sensor_rank.corpus import FollowerGraph, load_corpus
from sensor_rank.text import ReplacementTable, count_ngrams
from sensor_rank.keywords import SEED_KEYWORDS, KeywordsConfig
from sensor_rank.rank import RankConfig
from sensor_rank.synth import BUCKET_ORDER

from oracles import chain_forest, oracle_load_corpus, oracle_parser, records_of
from test_corpus import corpus_text, graph_text, stripped_line_pairs

SYNTH = {
    "seed": 11,
    "n_users": 150,
    "tail_histogram": {"1": 40, "2": 12, "3": 10, "4": 6, "5-9": 6, "10-19": 2, "20+": 1},
    "planted_influencers": [["sentinela001", 40, 20]],
}

TRAIN_FLAGS = ["--classifier", "mnnb", "--ngrams", "1", "--smote-percent", "0", "--seed", "3"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One synth -> train -> classify -> rank chain shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    synth_cfg = root / "synth.json"
    synth_cfg.write_text(json.dumps(SYNTH), encoding="utf-8")
    data = root / "data"
    assert main(["synth", "--config", str(synth_cfg), "--out", str(data)]) == 0

    model = root / "model.json"
    assert main(["train", "--corpus", str(data / "corpus.jsonl"),
                 "--model", str(model), *TRAIN_FLAGS]) == 0

    cls = root / "cls"
    assert main(["classify", "--corpus", str(data / "corpus.jsonl"),
                 "--model", str(model), "--out", str(cls)]) == 0

    rank = root / "rank"
    assert main(["rank", "--corpus", str(cls / "classified.jsonl"),
                 "--graph", str(data / "graph.csv"), "--out", str(rank)]) == 0
    return {
        "root": root,
        "synth_cfg": synth_cfg,
        "corpus": data / "corpus.jsonl",
        "graph": data / "graph.csv",
        "model": model,
        "classified": cls / "classified.jsonl",
        "rank": rank,
    }


def test_synth_outputs(pipeline, capsys):
    assert pipeline["corpus"].exists()
    assert pipeline["graph"].exists()
    corpus = load_corpus(pipeline["corpus"])
    assert len(corpus) > 500
    assert all(r.label is not None for r in records_of(corpus))


def _columns(corpus):
    """A loaded corpus in the form oracle_load_corpus gives; its int columns are int64."""
    assert corpus.y.dtype == corpus.user_total_tweets.dtype == "int64"
    return {"ids": list(corpus.ids), "users": list(corpus.users), "texts": list(corpus.texts),
            "created_at": list(corpus.created_at), "y": corpus.y.tolist(),
            "user_total_tweets": corpus.user_total_tweets.tolist()}


def test_written_files_are_read_in_bulk(pipeline, monkeypatch):
    """The files synth and classify write load without walking their lines, in
    blocks of any size, into what oracle_load_corpus and the hand-read graph give."""
    corpora = [pipeline["corpus"], pipeline["classified"]]
    want = [oracle_load_corpus(path) for path in corpora]
    pairs, bad_line = stripped_line_pairs(pipeline["graph"].read_text(encoding="utf-8"))
    assert bad_line is None
    want_graph = FollowerGraph.from_pairs(pairs)

    def unread(*args):
        raise AssertionError("a written file was read line by line")

    monkeypatch.setattr(corpus_module, "_read_lines", unread)
    monkeypatch.setattr(corpus_module, "stripped_lines", unread)
    for block in (corpus_module._BLOCK, 100):
        monkeypatch.setattr(corpus_module, "_BLOCK", block)
        assert [_columns(load_corpus(path)) for path in corpora] == want
    assert corpus_module.load_follower_graph(pipeline["graph"]) == want_graph


def test_synth_seed_flag_overrides_config(pipeline, tmp_path, capsys):
    out = tmp_path / "alt"
    assert main(["synth", "--config", str(pipeline["synth_cfg"]),
                 "--seed", "12", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("wrote ")
    assert out.joinpath("corpus.jsonl").read_bytes() != pipeline["corpus"].read_bytes()


def test_synth_requires_seed(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "x")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("n_users", "x"), ("n_users", 10.0), ("n_users", True),
    ("seed", "a"),
    ("tail_histogram", [1]), ("tail_histogram", {"1": 2.5}),
    ("edge_density", "x"), ("edge_density", float("nan")),
    ("class_mix", [0.5, "0.3", 0.2]),
    ("class_vocabularies", [["a"], ["b"], [3]]),
    ("planted_influencers", [["sentinela001", 40]]),
    ("planted_influencers", [["sentinela001", 40, "20"]]),
    ("class_mix", [10**400, 0.5, 0.5]), ("n_users", None),
])
def test_synth_config_values_are_type_checked(tmp_path, capsys, key, value):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({**SYNTH, key: value}), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: config key {key!r} must be ")
    assert not out.exists()


def test_synth_rejects_a_tweet_budget_beyond_the_bound(tmp_path, capsys):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"planted_influencers": [["sentinela001", 2**62, 20]],
                               "tail_histogram": {"1": 10, "3": 30, "20+": 1},
                               "n_users": 100, "seed": 1}), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: tweet budget too large: ")
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert not out.exists()


def test_synth_rejects_a_negative_class_share(tmp_path, capsys):
    # the shares sum to 1; before the check, synth wrote News and Relevant only
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({**SYNTH, "class_mix": [0.5, 0.6, -0.1], "n_users": 400,
                               "edge_density": 0}), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: class_mix shares must be finite and >= 0, got (0.5, 0.6, -0.1)\n")
    assert not out.exists()


def test_synth_rejects_a_user_count_beyond_the_bound(tmp_path, capsys):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({**SYNTH, "n_users": 2**62}), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: n_users must be at most 10000000, got {2**62}\n"
    assert not out.exists()


def test_synth_config_accepts_ints_for_reals(tmp_path, capsys):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({**SYNTH, "n_users": 60, "edge_density": 1, "noise_rate": 0,
                               "tail_histogram": {"1": 20}, "planted_influencers": []}),
                   encoding="utf-8")
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


def test_train_writes_loadable_model(pipeline):
    model, vocab, table_hash = load_model(pipeline["model"])
    assert model.alpha == 1.0
    assert vocab.n_max == 1
    assert len(table_hash) == 64


def test_classify_labels_everything(pipeline, capsys):
    classified = load_corpus(pipeline["classified"])
    original = load_corpus(pipeline["corpus"])
    assert len(classified) == len(original)
    assert all(r.label is not None for r in records_of(classified))
    assert [r.id for r in records_of(classified)] == [r.id for r in records_of(original)]


def test_classify_stdout_tally(pipeline, tmp_path, capsys):
    out = tmp_path / "again"
    assert main(["classify", "--corpus", str(pipeline["corpus"]),
                 "--model", str(pipeline["model"]), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out.strip()
    corpus = load_corpus(out / "classified.jsonl")
    tally = {"relevant": 0, "news": 0, "noise": 0}
    for record in records_of(corpus):
        tally[record.label.value.lower()] += 1
    want = (
        f"classified {len(corpus)} records: "
        f"relevant={tally['relevant']} news={tally['news']} noise={tally['noise']}"
    )
    assert stdout == want


def test_classify_is_byte_deterministic(pipeline, tmp_path, capsys):
    out = tmp_path / "rerun"
    main(["classify", "--corpus", str(pipeline["corpus"]),
          "--model", str(pipeline["model"]), "--out", str(out)])
    capsys.readouterr()
    assert (out / "classified.jsonl").read_bytes() == pipeline["classified"].read_bytes()


def test_classify_rejects_table_mismatch(pipeline, tmp_path, capsys):
    table = tmp_path / "table.csv"
    table.write_text("zika,zikavirus\n", encoding="utf-8")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"table": str(table)}), encoding="utf-8")
    code = main(["classify", "--config", str(cfg),
                 "--corpus", str(pipeline["corpus"]),
                 "--model", str(pipeline["model"]), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "hash mismatch" in capsys.readouterr().err


def test_rank_outputs(pipeline, capsys):
    rank = pipeline["rank"]
    for name in ("report_tr.tsv", "report_tr.json", "report_tf.tsv",
                 "report_tf.json", "report_of.tsv", "report_of.json",
                 "components.json"):
        assert (rank / name).exists(), name
    top = (rank / "report_tr.tsv").read_text(encoding="utf-8").splitlines()[1]
    assert top.split("\t")[0] == "sentinela001"
    comp = json.loads((rank / "components.json").read_text(encoding="utf-8"))
    assert set(comp) == {"components", "friend_pairs"}
    members = {uid for c in comp["components"] for uid in c}
    assert "sentinela001" in members


def test_rank_is_byte_deterministic(pipeline, tmp_path, capsys):
    out = tmp_path / "rank2"
    main(["rank", "--corpus", str(pipeline["classified"]),
          "--graph", str(pipeline["graph"]), "--out", str(out)])
    capsys.readouterr()
    for name in ("report_tr.tsv", "report_tf.tsv", "report_of.tsv", "components.json"):
        assert (out / name).read_bytes() == (pipeline["rank"] / name).read_bytes()


def test_rank_stdout_summary(pipeline, tmp_path, capsys):
    main(["rank", "--corpus", str(pipeline["classified"]),
          "--graph", str(pipeline["graph"]), "--out", str(tmp_path / "r")])
    stdout = capsys.readouterr().out.strip()
    assert stdout.startswith("candidates=25 iterations=")
    assert "converged=true" in stdout
    assert "residual=" in stdout


def test_rank_requires_labels(pipeline, tmp_path, capsys):
    # strip one label and expect a refusal
    rows = [json.loads(line) for line in
            pipeline["classified"].read_text(encoding="utf-8").splitlines()]
    del rows[0]["label"]
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    code = main(["rank", "--corpus", str(bad), "--graph", str(pipeline["graph"]),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "classify the corpus first" in capsys.readouterr().err


def test_report_prints_tsv(pipeline, capsys):
    assert main(["report", "--corpus", str(pipeline["classified"]),
                 "--graph", str(pipeline["graph"]), "--k", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("user_id\trelevant_count")
    assert len(lines) == 4


def test_report_metric_config_key(pipeline, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "metric": "tf",
        "corpus": str(pipeline["classified"]),
        "graph": str(pipeline["graph"]),
        "k": 5,
    }), encoding="utf-8")
    assert main(["report", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert lines[1].split("\t")[0] == "sentinela001"  # unique 100% topic focus


def test_flags_override_config(pipeline, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "corpus": str(pipeline["classified"]),
        "graph": str(pipeline["graph"]),
        "k": 5,
    }), encoding="utf-8")
    assert main(["report", "--config", str(cfg), "--k", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_unknown_config_key_rejected(pipeline, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"corups": "typo.jsonl"}', encoding="utf-8")
    assert main(["report", "--config", str(cfg)]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_missing_required_flag(capsys):
    assert main(["train", "--model", "m.json", "--seed", "1"]) == 2
    assert "--corpus is required" in capsys.readouterr().err


def test_missing_file_is_reported(tmp_path, capsys):
    assert main(["train", "--corpus", str(tmp_path / "nope.jsonl"),
                 "--model", "m.json", "--seed", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_help_text_defaults_match_the_config_defaults():
    """Each key backed by a TrainingConfig, RankConfig or KeywordsConfig field (`trees`
    sets n_trees) states the field's default in its help, as "(default X)" or, for None,
    "(default: off)", and each default a help text states is backed by a field."""
    stated = {}
    for key in cli._KEYS.values():
        text = re.search(r"\(default:? ([^)]+)\)", key.help)
        if text:
            name = "n_trees" if key.name == "trees" else key.name
            stated[name] = None if text[1] == "off" else key.type(text[1])
    fields = [field for cls in (TrainingConfig, RankConfig, KeywordsConfig)
              for field in dataclasses.fields(cls)]
    assert [(field.name, stated.get(field.name)) for field in fields] == [
        (field.name, field.default) for field in fields]
    assert set(stated) == {field.name for field in fields}


@pytest.mark.parametrize("argv", [
    ["--help"], *([name, "--help"] for name in cli._COMMANDS), ["rank", "-h"],
    ["train", "--ngrams", "5"], ["train", "--bogus", "1"], [], ["train", "--corpus"],
    ["--bogus", "train", "--seed", "1"], ["bogus", "train"], ["--", "train", "--seed", "x"],
], ids=lambda argv: " ".join(argv) or "no command")
def test_help_and_argparse_errors_match_the_whole_parser(capsys, monkeypatch, argv):
    """--help of the top level and of each command, and argparse's error text, byte
    for byte as a parser that adds every flag to every command prints them."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as want:
        oracle_parser().parse_args(argv)
    expected = capsys.readouterr()
    assert expected.out or expected.err
    with pytest.raises(SystemExit) as got:
        main(argv)
    assert got.value.code == want.value.code
    assert capsys.readouterr() == expected
    if argv[1:] == ["--help"]:
        assert "--trees TREES" in expected.out


def test_argparse_rejects_bad_values(capsys):
    with pytest.raises(SystemExit):
        main(["train", "--ngrams", "5"])
    with pytest.raises(SystemExit):
        main([])


def test_eval_command(pipeline, tmp_path, capsys):
    out = tmp_path / "eval"
    code = main(["eval", "--corpus", str(pipeline["corpus"]), "--out", str(out),
                 "--folds", "2", *TRAIN_FLAGS])
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("accuracy=")
    doc = json.loads((out / "eval.json").read_text(encoding="utf-8"))
    assert set(doc) == {"accuracy", "weighted_f", "rmse", "per_class", "confusion"}
    assert 0.0 <= doc["accuracy"] <= 1.0
    tsv = (out / "eval.tsv").read_text(encoding="utf-8").splitlines()
    assert tsv[0].startswith("accuracy\t")
    assert len([line for line in tsv if line.startswith("confusion_")]) == 3


# eval's outputs on the pipeline corpus and on one synthesized with noise_rate 0.3
_PINNED_EVAL = {
    0.0: (
        "accuracy=1.0000 weighted_f=1.0000 rmse=0.0000\n",
        (
            '{"accuracy":1.0000,"weighted_f":1.0000,"rmse":0.0000,'
            '"per_class":{"Relevant":{"precision":1.0000,"recall":1.0000,"f1":1.0000},'
            '"News":{"precision":1.0000,"recall":1.0000,"f1":1.0000},'
            '"Noise":{"precision":1.0000,"recall":1.0000,"f1":1.0000}},'
            '"confusion":[[225,0,0],[0,953,0],[0,0,682]]}\n'
        ),
        (
            "accuracy\t1.0000\n"
            "weighted_f\t1.0000\n"
            "rmse\t0.0000\n"
            "precision_Relevant\t1.0000\n"
            "recall_Relevant\t1.0000\n"
            "f1_Relevant\t1.0000\n"
            "precision_News\t1.0000\n"
            "recall_News\t1.0000\n"
            "f1_News\t1.0000\n"
            "precision_Noise\t1.0000\n"
            "recall_Noise\t1.0000\n"
            "f1_Noise\t1.0000\n"
            "confusion_Relevant\t225\t0\t0\n"
            "confusion_News\t0\t953\t0\n"
            "confusion_Noise\t0\t0\t682\n"
        ),
    ),
    0.3: (
        "accuracy=0.9156 weighted_f=0.9151 rmse=0.2072\n",
        (
            '{"accuracy":0.9156,"weighted_f":0.9151,"rmse":0.2072,'
            '"per_class":{"Relevant":{"precision":0.9015,"recall":0.8133,"f1":0.8551},'
            '"News":{"precision":0.9220,"recall":0.9423,"f1":0.9320},'
            '"Noise":{"precision":0.9107,"recall":0.9120,"f1":0.9114}},'
            '"confusion":[[183,22,20],[14,898,41],[6,54,622]]}\n'
        ),
        (
            "accuracy\t0.9156\n"
            "weighted_f\t0.9151\n"
            "rmse\t0.2072\n"
            "precision_Relevant\t0.9015\n"
            "recall_Relevant\t0.8133\n"
            "f1_Relevant\t0.8551\n"
            "precision_News\t0.9220\n"
            "recall_News\t0.9423\n"
            "f1_News\t0.9320\n"
            "precision_Noise\t0.9107\n"
            "recall_Noise\t0.9120\n"
            "f1_Noise\t0.9114\n"
            "confusion_Relevant\t183\t22\t20\n"
            "confusion_News\t14\t898\t41\n"
            "confusion_Noise\t6\t54\t622\n"
        ),
    ),
}


@pytest.mark.parametrize("noise_rate", sorted(_PINNED_EVAL))
def test_eval_outputs_are_pinned(pipeline, tmp_path, capsys, noise_rate):
    """The stdout line, eval.json and eval.tsv, byte for byte."""
    corpus = pipeline["corpus"]
    if noise_rate:
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps({**SYNTH, "noise_rate": noise_rate}), encoding="utf-8")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
        corpus = tmp_path / "data" / "corpus.jsonl"
    capsys.readouterr()
    out = tmp_path / "eval"
    assert main(["eval", "--corpus", str(corpus), "--out", str(out),
                 "--folds", "2", *TRAIN_FLAGS]) == 0
    stdout, eval_json, eval_tsv = _PINNED_EVAL[noise_rate]
    assert capsys.readouterr().out == stdout
    assert (out / "eval.json").read_bytes() == eval_json.encode()
    assert (out / "eval.tsv").read_bytes() == eval_tsv.encode()


def test_keywords_command(tmp_path, capsys):
    corpus = tmp_path / "kw.jsonl"
    rows = [
        {"id": "t1", "user": "a", "text": "zika zika surto surto surto",
         "created_at": "2016-09-01T00:00:00Z"},
        {"id": "t2", "user": "b", "text": "zika surto surto hospital",
         "created_at": "2016-09-01T00:00:00Z"},
        {"id": "t3", "user": "c", "text": "dengue comum comum",
         "created_at": "2016-09-01T00:00:00Z"},
    ]
    corpus.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["keywords", "--corpus", str(corpus), "--k", "2",
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    lines = stdout.splitlines()
    merged_at = lines.index(f"merged keywords ({len(SEED_KEYWORDS) + 2}):")
    merged = [line.strip() for line in lines[merged_at + 1:]]
    assert merged[: len(SEED_KEYWORDS)] == list(SEED_KEYWORDS)
    assert set(merged[len(SEED_KEYWORDS):]) == {"comum", "surto"}
    saved = (out / "keywords.txt").read_text(encoding="utf-8").split()
    assert saved == merged


def test_keywords_respects_stopwords(tmp_path, capsys):
    corpus = tmp_path / "kw.jsonl"
    rows = [
        {"id": "t1", "user": "a", "text": "zika surto surto",
         "created_at": "2016-09-01T00:00:00Z"},
        {"id": "t2", "user": "b", "text": "dengue comum comum",
         "created_at": "2016-09-01T00:00:00Z"},
    ]
    corpus.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    stop = tmp_path / "stop.txt"
    stop.write_text("surto\n", encoding="utf-8")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"stopwords": str(stop)}), encoding="utf-8")
    assert main(["keywords", "--config", str(cfg), "--corpus", str(corpus),
                 "--k", "1"]) == 0
    stdout = capsys.readouterr().out
    assert "surto" not in stdout
    assert "comum" in stdout


@pytest.mark.parametrize("key", ["seeds", "stopwords"])
def test_keywords_blocks_seeds_and_stopwords_as_tokens(tmp_path, capsys, key):
    corpus = tmp_path / "kw.jsonl"
    rows = [
        {"id": "t1", "user": "a", "text": "zika surto surto",
         "created_at": "2016-09-01T00:00:00Z"},
        {"id": "t2", "user": "b", "text": "dengue comum",
         "created_at": "2016-09-01T00:00:00Z"},
    ]
    corpus.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    stop = tmp_path / "stop.txt"
    stop.write_text("Súrto\n", encoding="utf-8")
    # the same spelling either way, canonicalized to the token "surto"
    config = {"seeds": ["zika", " Súrto"]} if key == "seeds" else {"stopwords": str(stop)}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "kw"
    assert main(["keywords", "--config", str(cfg), "--corpus", str(corpus), "--k", "1",
                 "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("expansion candidates (top 1):")
    assert lines[at + 1].split("\t")[0] == "  comum"
    # seeds are printed and written as the tokens they block
    seeds = ["zika", "surto"] if key == "seeds" else list(SEED_KEYWORDS)
    assert lines[1:at] == [f"  {s}" for s in seeds]
    assert (out / "keywords.txt").read_text(encoding="utf-8").split("\n") == [*seeds, "comum", ""]


def test_keywords_refuses_a_negative_k_before_any_input_is_read(pipeline, capsys, monkeypatch):
    def unread(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(cli, "load_corpus", unread)
    assert main(["keywords", "--corpus", str(pipeline["corpus"]), "--k", "-1"]) == 2
    assert capsys.readouterr().err == "error: k must be >= 0, got -1\n"


def test_keywords_zero_expansion_keeps_only_seeds(tmp_path, capsys):
    corpus = tmp_path / "kw.jsonl"
    corpus.write_text(json.dumps({"id": "t1", "user": "a", "text": "zika surto",
                                  "created_at": "2016-09-01T00:00:00Z"}) + "\n", encoding="utf-8")
    assert main(["keywords", "--corpus", str(corpus), "--k", "0"]) == 0
    merged = f"merged keywords ({len(SEED_KEYWORDS)}):\n" + "".join(f"  {s}\n" for s in SEED_KEYWORDS)
    assert capsys.readouterr().out.endswith(merged)


@pytest.mark.parametrize("rows, fault", [
    ("zika,zikavirus\na\x00b,x\n", "replacement key is not a valid token: 'a\\x00b'"),
    ("vc,q\nq,vc\n", "replacement cycle involving 'vc'"),
])
def test_keywords_names_the_table_whose_rows_break_a_rule(tmp_path, capsys, rows, fault):
    corpus = tmp_path / "kw.jsonl"
    corpus.write_text(json.dumps({"id": "t1", "user": "a", "text": "zika surto",
                                  "created_at": "2016-09-01T00:00:00Z"}) + "\n", encoding="utf-8")
    table, cfg = tmp_path / "table.csv", tmp_path / "cfg.json"
    table.write_text(rows, encoding="utf-8")
    cfg.write_text(json.dumps({"table": str(table)}), encoding="utf-8")
    out = tmp_path / "kw"
    assert main(["keywords", "--config", str(cfg), "--corpus", str(corpus),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {table}: {fault}\n"
    assert not out.exists()


def child_env(**overrides):
    """Environment for a `python -m sensor_rank.cli` child that imports the package tested here."""
    path = [str(Path(sensor_rank.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), **overrides)


def test_console_module_smoke(tmp_path):
    env = child_env(SENSOR_RANK_LOG="info")
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(json.dumps({
        "id": "t1", "user": "a", "text": "zika",
        "created_at": "2016-09-01T00:00:00Z", "label": "Relevant",
    }) + "\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "sensor_rank.cli", "keywords",
         "--corpus", str(corpus), "--k", "1", "--out", str(tmp_path / "kw")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("seed keywords (8):")
    assert "INFO" in proc.stderr  # info level unlocked by SENSOR_RANK_LOG


# Run in a fresh interpreter: cli.main(argv) with arguments, a bare `import sensor_rank`
# without; prints the exit code and the package's loaded submodules as JSON.
_LOADED_MODULES = """
import json, sys
if sys.argv[1:]:
    from sensor_rank.cli import main
    code = main(sys.argv[1:])
else:
    import sensor_rank
    code = 0
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("sensor_rank."))]))
"""


@pytest.mark.parametrize("command, loaded", [
    (None, []),
    ("synth", ["cli", "corpus", "synth"]),
    ("train", ["classify", "cli", "corpus", "forest", "text"]),
    ("eval", ["classify", "cli", "corpus", "forest", "text"]),
    ("classify", ["classify", "cli", "corpus", "forest", "text"]),
    ("rank", ["cli", "corpus", "rank"]),
    ("report", ["cli", "corpus", "rank"]),
    ("keywords", ["cli", "corpus", "keywords", "text"]),
])
def test_each_command_loads_only_the_modules_it_runs(pipeline, tmp_path, command, loaded):
    corpus = ["--corpus", str(pipeline["corpus"])]
    rank = ["--corpus", str(pipeline["classified"]), "--graph", str(pipeline["graph"])]
    argv = {
        None: [],
        "synth": ["--config", str(pipeline["synth_cfg"]), "--out", str(tmp_path)],
        "train": [*corpus, "--model", str(tmp_path / "m.json"), *TRAIN_FLAGS],
        "eval": [*corpus, "--out", str(tmp_path), "--folds", "2", *TRAIN_FLAGS],
        "classify": [*corpus, "--model", str(pipeline["model"]), "--out", str(tmp_path)],
        "rank": [*rank, "--out", str(tmp_path)],
        "report": rank,
        "keywords": corpus,
    }[command]
    proc = subprocess.run([sys.executable, "-c", _LOADED_MODULES, *([command] if command else []),
                           *argv], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert modules == [f"sensor_rank.{name}" for name in loaded]


def test_info_logs_leave_stdout_and_files_unchanged(pipeline, tmp_path, capsys, caplog):
    corpus = str(pipeline["corpus"])
    runs = []
    for level in (logging.WARNING, logging.INFO):
        caplog.clear()
        caplog.set_level(level, logger="sensor_rank")
        out = tmp_path / logging.getLevelName(level)
        out.mkdir()
        model = str(out / "model.json")
        stdout = []
        for argv in (
            ["train", "--corpus", corpus, "--model", model, *TRAIN_FLAGS],
            ["classify", "--corpus", corpus, "--model", model, "--out", str(out / "cls")],
            ["keywords", "--corpus", corpus, "--out", str(out / "kw")],
        ):
            assert main(argv) == 0
            stdout.append(capsys.readouterr().out)
        files = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        runs.append((stdout, files, caplog.text))
    (warn_out, warn_files, warn_log), (info_out, info_files, info_log) = runs
    assert info_out == warn_out
    assert len(warn_files) == 3 and info_files == warn_files
    assert warn_log == ""
    for expected in ("texts,", "chunks,", "distinct", "terms; classes relevant=",
                     "after", "hold no in-vocabulary term"):
        assert expected in info_log


def test_log_env_values(tmp_path):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(json.dumps({
        "id": "t1", "user": "a", "text": "zika",
        "created_at": "2016-09-01T00:00:00Z", "label": "Relevant",
    }) + "\n", encoding="utf-8")
    model = tmp_path / "m.json"
    argv = ["-m", "sensor_rank.cli", "train", "--corpus", str(corpus),
            "--model", str(model), "--classifier", "mnnb", "--ngrams", "1",
            "--smote-percent", "0", "--seed", "1"]

    env = child_env(SENSOR_RANK_LOG="info")
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 2  # single-class corpus cannot train
    assert "error:" in proc.stderr

    env = child_env(SENSOR_RANK_LOG="banana")
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)
    assert "unknown SENSOR_RANK_LOG" in proc.stderr


@pytest.mark.parametrize("raw", [
    '{"k": [1]}', '{"k": true}', '{"k": "5"}', '{"k": 2.0}', '{"gamma": "0.5"}',
    '{"corpus": 3}', '{"seeds": "dengue"}', '{"seeds": [1]}', '{"ngrams": 4}',
    pytest.param('{"gamma": 1' + "0" * 400 + "}", id="gamma-of-401-digits"), '{"alpha": NaN}',
])
def test_config_values_are_type_checked(pipeline, tmp_path, capsys, raw):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(raw, encoding="utf-8")
    code = main(["report", "--config", str(cfg), "--corpus", str(pipeline["classified"]),
                 "--graph", str(pipeline["graph"])])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}: config key ")


def test_config_accepts_ints_for_floats_and_null(pipeline, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"gamma": 0, "k": null}', encoding="utf-8")
    args = ["report", "--config", str(cfg), "--corpus", str(pipeline["classified"]),
            "--graph", str(pipeline["graph"])]
    assert main(args) == 2  # gamma 0 is read as 0.0 and fails the range check
    assert "gamma must be in (0,1), got 0.0" in capsys.readouterr().err
    cfg.write_text('{"gamma": 0.85, "k": null}', encoding="utf-8")
    assert main(args) == 0
    assert len(capsys.readouterr().out.splitlines()) == 11  # null k leaves the default 10


def json_values(*ints):
    """Decoded JSON of every type: null, bools, ints (from ints), reals with NaN and
    the infinities among them, short strings, lists and objects."""
    scalars = st.sampled_from([None, True, False, *ints, 0.5, 0.85, 1.5, -0.25,
                               math.nan, math.inf, -math.inf, "", "x", "tr", "rf"])
    return scalars | st.recursive(scalars, lambda children: st.lists(children, max_size=3)
                                  | st.dictionaries(st.sampled_from(["1", "x"]), children,
                                                    max_size=2), max_leaves=6)


# keys that size nothing may take integers beyond the float range
any_json = json_values(-(10**400), -1, 0, 1, 2, 3, 10, 10**400)


def run_config(argv, config: dict) -> None:
    """main(argv + --config + --out) in a fresh working directory: it returns 0, or 2
    with an `error:` line on stderr and no output directory."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        Path("cfg.json").write_text(json.dumps(config), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, "--config", "cfg.json", "--out", "o"])
        assert (code, err.getvalue().startswith("error: "), Path("o").exists()) in (
            (0, False, True), (2, True, False)), err.getvalue()


@settings(max_examples=100, deadline=None)
@example(config={"gamma": 10**400})
@given(st.dictionaries(st.sampled_from([*sorted(cli._KEYS), "bogus"]), any_json, max_size=4))
def test_rank_config_fuzz_exits_cleanly(pipeline, config):
    run_config(["rank", "--corpus", str(pipeline["classified"]),
                "--graph", str(pipeline["graph"])], config)


# sizes stay small, so no example asks for a large corpus
small_json = json_values(-1, 0, 1, 3, 10, 40, 60)


@settings(max_examples=100, deadline=None)
@example(config={"class_mix": [10**400, 0.5, 0.5]})
@example(config={"class_mix": [0.5, 0.6, -0.1], "n_users": 400, "edge_density": 0})
@example(config={"planted_influencers": [["sentinela001", 10**20, 20]]})
@example(config={"planted_influencers": [["sentinela001", 2**62, 20]],
                 "tail_histogram": {"1": 10, "3": 30, "20+": 1}, "n_users": 100, "seed": 1})
@example(config={"n_users": 2**62, "tail_histogram": {"1": 1}, "planted_influencers": []})
@given(st.fixed_dictionaries({}, optional={
    "seed": st.sampled_from([1, 11]) | any_json, "class_vocabularies": any_json,
    "class_mix": any_json, "edge_density": any_json, "noise_rate": any_json,
    "n_users": st.sampled_from([60, 150]) | small_json,
    "tail_histogram": st.dictionaries(st.sampled_from([*BUCKET_ORDER, "x"]), small_json,
                                      max_size=3) | small_json,
    "planted_influencers": small_json,
}))
def test_synth_config_fuzz_exits_cleanly(config):
    run_config(["synth"], {**SYNTH, **config})


@pytest.mark.parametrize("total", ['"5"', "true", "2.5", "-1"])
def test_corpus_rejects_non_integer_tweet_totals(pipeline, tmp_path, capsys, total):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        '{"id": "t1", "user": "a", "text": "zika", "created_at": "2016-09-01T00:00:00Z", '
        f'"label": "Relevant", "user_total_tweets": {total}}}\n',
        encoding="utf-8",
    )
    code = main(["rank", "--corpus", str(bad), "--graph", str(pipeline["graph"]),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: line 1: ")
    assert "user_total_tweets" in err


@pytest.mark.parametrize("flags", [
    ["--tol", "nan"], ["--tol", "inf"], ["--gamma", "nan"], ["--gamma", "inf"],
])
def test_rank_rejects_non_finite_settings(pipeline, tmp_path, capsys, flags):
    code = main(["rank", "--corpus", str(pipeline["classified"]),
                 "--graph", str(pipeline["graph"]), "--out", str(tmp_path / "o"), *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flags[0][2:]} must be ")


@pytest.mark.parametrize("value", ["0", "-1"])
def test_rank_rejects_min_relevant_below_one(pipeline, tmp_path, capsys, value):
    code = main(["rank", "--corpus", str(pipeline["classified"]), "--graph", str(pipeline["graph"]),
                 "--out", str(tmp_path / "o"), "--min-relevant", value])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: min_relevant must be >= 1")
    assert not (tmp_path / "o" / "report_tr.tsv").exists()


@pytest.mark.parametrize("flags", [
    ["--min-relevant", "0"], ["--gamma", "nan"], ["--graph", "missing.csv"], ["--k", "0"],
])
def test_rejected_rank_leaves_no_out_dir(pipeline, tmp_path, capsys, flags):
    out = tmp_path / "o"
    code = main(["rank", "--corpus", str(pipeline["classified"]), "--graph", str(pipeline["graph"]),
                 "--out", str(out), *flags])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("case", ["table", "model", "missing"])
def test_rejected_classify_leaves_no_out_dir(pipeline, tmp_path, capsys, case):
    out = tmp_path / "o"
    model = pipeline["model"]
    extra = []
    if case == "table":
        table = tmp_path / "table.csv"
        table.write_text("zika,zikavirus\n", encoding="utf-8")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"table": str(table)}), encoding="utf-8")
        extra = ["--config", str(cfg)]
    elif case == "model":
        doc = json.loads(model.read_text(encoding="utf-8"))
        doc.pop("vocabulary")
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc), encoding="utf-8")
    else:
        model = tmp_path / "absent.json"
    code = main(["classify", "--corpus", str(pipeline["corpus"]), "--model", str(model),
                 "--out", str(out), *extra])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("field", ["id", "user", "text"])
def test_classify_rejects_lone_surrogate_before_out_dir(pipeline, tmp_path, capsys, field):
    lines = pipeline["corpus"].read_text(encoding="utf-8").splitlines(keepends=True)
    row = json.loads(lines[1])
    row[field] = f"{row[field]}\ud800"  # json.dumps writes the escape \ud800
    bad = tmp_path / "bad.jsonl"
    bad.write_text(lines[0] + json.dumps(row) + "\n" + "".join(lines[2:]), encoding="utf-8")
    out = tmp_path / "o"
    code = main(["classify", "--corpus", str(bad), "--model", str(pipeline["model"]),
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: line 2: field '{field}' holds a lone surrogate ")
    assert not out.exists()


def test_rejected_eval_leaves_no_out_dir(pipeline, tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["eval", "--corpus", str(pipeline["corpus"]), "--out", str(out),
                 *TRAIN_FLAGS, "--folds", "100000"])
    assert code == 2
    assert "fewer than folds=100000" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["train", "eval", "synth", "config", "synth config"])
def test_negative_seed_is_refused_before_any_input_is_read(
        pipeline, tmp_path, capsys, monkeypatch, case):
    def unread(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(cli, "load_corpus", unread)
    out, model = tmp_path / "o", tmp_path / "m.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SYNTH, "seed": -2} if case == "synth config" else {"seed": -2}),
                   encoding="utf-8")
    corpus = ["--corpus", str(pipeline["corpus"])]
    argv = {
        "train": ["train", *corpus, "--model", str(model), "--classifier", "rf", "--seed", "-1"],
        "eval": ["eval", *corpus, "--out", str(out), "--seed", "-3"],
        "synth": ["synth", "--seed", "-1", "--out", str(out)],
        "config": ["train", *corpus, "--model", str(model), "--config", str(cfg)],
        "synth config": ["synth", "--config", str(cfg), "--out", str(out)],
    }[case]
    assert main(argv) == 2
    seed = {"train": -1, "eval": -3, "synth": -1}.get(case, -2)
    assert capsys.readouterr().err == f"error: seed must be >= 0, got {seed}\n"
    assert not out.exists() and not model.exists()


@pytest.mark.parametrize("flags", [
    ["--alpha", "nan"], ["--alpha", "inf"], ["--alpha", "0"],
    ["--spread-ratio", "nan"], ["--spread-ratio", "inf"], ["--spread-ratio", "0.5"],
])
def test_train_rejects_bad_alpha_and_spread_ratio(pipeline, tmp_path, capsys, flags):
    model = tmp_path / "m.json"
    code = main(["train", "--corpus", str(pipeline["corpus"]), "--model", str(model),
                 *TRAIN_FLAGS, *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flags[0][2:].replace('-', '_')} must be ")
    assert "Traceback" not in err
    assert not model.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("flags, message", [
    (["--smote-percent", "-100"], "smote_percent must be a nonnegative multiple of 100, got -100"),
    (["--smote-percent", "150"], "smote_percent must be a nonnegative multiple of 100, got 150"),
    (["--smote-k", "0"], "smote_k must be >= 1, got 0"),
    (["--trees", "0"], "n_trees must be >= 1, got 0"),
    (["--trees", "-3", "--classifier", "mnnb"], "n_trees must be >= 1, got -3"),
    (["--folds", "1"], "folds must be >= 2, got 1"),
])
def test_bad_smote_and_tree_counts_are_refused_before_any_input_is_read(
        pipeline, tmp_path, capsys, monkeypatch, command, flags, message):
    def unread(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(cli, "load_corpus", unread)
    out, model = tmp_path / "o", tmp_path / "m.json"
    target = ["--model", str(model)] if command == "train" else ["--out", str(out)]
    code = main([command, "--corpus", str(pipeline["corpus"]), *target,
                 *TRAIN_FLAGS, *flags])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists() and not model.exists()


@pytest.mark.parametrize("command", ["rank", "report"])
@pytest.mark.parametrize("flags, config, message", [
    (["--gamma", "2"], {}, "gamma must be in (0,1), got 2.0"),
    (["--min-relevant", "0"], {}, "min_relevant must be >= 1, got 0"),
    (["--k", "0"], {}, "k must be >= 1, got 0"),
    ([], {"metric": "xx"},
     "{cfg}: config key 'metric' must be one of ('tr', 'tf', 'of'), got 'xx'"),
], ids=["gamma", "min_relevant", "k", "metric"])
def test_bad_rank_settings_are_refused_before_any_input_is_read(
        pipeline, tmp_path, capsys, command, flags, config, message):
    out, cfg = tmp_path / "o", tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    code = main([command, "--corpus", str(tmp_path / "missing.jsonl"),
                 "--graph", str(pipeline["graph"]), "--config", str(cfg),
                 *(["--out", str(out)] if command == "rank" else []), *flags])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message.format(cfg=cfg)}\n"
    assert not out.exists()


def test_the_metric_key_offers_the_report_metrics():
    from sensor_rank.rank import REPORT_METRICS

    assert cli._KEYS["metric"].choices == REPORT_METRICS


def forest(*trees):
    """An edit that makes the model a forest of the given trees over its vocabulary."""
    return lambda d: d.update(kind="rf", params={
        "n_trees": len(trees), "feature_subsample": 1, "seed": 0, "trees": list(trees),
    })


def split(**lists):
    """One split on feature 0 at 0.5, a Relevant leaf left and a Noise leaf right, in
    the model file's flat form; lists replaces some of its lists."""
    return {"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0], "right": [2, -1, -1],
            "leaf": [[1, 0, 0], [0.0, 0.0, 1.0]], **lists}


# split 0 at 0.5 | split 0 at 1.5 | its two leaves | the root's right leaf
SPLIT_LEFT = {"feature": [0, 0, -1, -1, -1], "threshold": [0.5, 1.5, 0, 0, 0],
              "leaf": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}


def test_classify_accepts_handwritten_forest(pipeline, tmp_path, capsys):
    # integers are reals in a leaf or a threshold; a tree may be one leaf
    doc = json.loads(pipeline["model"].read_text(encoding="utf-8"))
    last = len(doc["vocabulary"]) - 1
    forest(
        split(feature=[0, -1, last, -1, -1], threshold=[0, 0, 0.5, 0, 0], right=[2, -1, 4, -1, -1],
              leaf=[[1, 0, 0], [1, 0, 0], [0.0, 0.0, 1.0]]),
        split(feature=[-1], threshold=[7], right=[-1], leaf=[[0, 1, 0]]),
        {**SPLIT_LEFT, "right": [4, 3, -1, -1, -1]},
    )(doc)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["classify", "--corpus", str(pipeline["corpus"]), "--model", str(model),
                 "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("edit", [
    lambda d: d.pop("vocabulary"),
    lambda d: d.update(vocabulary="zika"),
    lambda d: d["vocabulary"].append(7),
    lambda d: d["vocabulary"].append("extra"),
    lambda d: d["vocabulary"].append(d["vocabulary"][0]),
    lambda d: d.pop("n_max"),
    lambda d: d.update(n_max="1"),
    lambda d: d.update(n_max=True),
    lambda d: d.update(n_max=4),
    lambda d: d.pop("kind"),
    lambda d: d.update(kind=["mnnb"]),
    lambda d: d.update(kind="rf"),
    lambda d: d.update(params=[1]),
    lambda d: d["params"].pop("alpha"),
    lambda d: d["params"].pop("class_log_prior"),
    lambda d: d["params"]["term_log_prob"].pop(),
    lambda d: d["params"].update(term_log_prob=None),
    lambda d: d.pop("table_hash"),
    # a tree is an object of four lists
    lambda d: forest([[0, -1, -1]])(d),
    lambda d: forest("tree")(d),
    lambda d: forest(None)(d),
    lambda d: forest({k: v for k, v in split().items() if k != "right"})(d),
    lambda d: forest(split(feature="0"))(d),
    lambda d: forest(split(leaf=None))(d),
    # feature, threshold and right hold one entry per node
    lambda d: forest(split(threshold=[0.5, 0.0]))(d),
    lambda d: forest(split(right=[2, -1]))(d),
    lambda d: forest(split(feature=[0, -1]))(d),
    lambda d: forest(split(feature=[], threshold=[], right=[], leaf=[]))(d),
    # a split's right child is where its left child's subtree ends, a leaf's is -1
    lambda d: forest(split(right=[3, -1, -1]))(d),
    lambda d: forest(split(right=[2**64, -1, -1]))(d),
    lambda d: forest(split(right=[0, -1, -1]))(d),
    lambda d: forest(split(right=[1, -1, -1]))(d),
    lambda d: forest(split(right=[-1, -1, -1]))(d),
    lambda d: forest(split(right=[2, -1, 0]))(d),
    lambda d: forest({**SPLIT_LEFT, "right": [4, 4, -1, -1, -1]})(d),
    lambda d: forest({**SPLIT_LEFT, "right": [3, 3, -1, -1, -1]})(d),
    lambda d: forest({**SPLIT_LEFT, "right": [2, 3, -1, -1, -1]})(d),
    lambda d: forest(split(feature=[0, -1, 0], leaf=[[1, 0, 0]]))(d),
    lambda d: forest(split(feature=[-1, -1], threshold=[0, 0], right=[-1, -1]))(d),
    # one leaf row of 3 finite reals per leaf
    lambda d: forest(split(leaf=[[1, 0], [0, 0, 1]]))(d),
    lambda d: forest(split(leaf=[[1, 0, 0, 0], [0, 0, 1]]))(d),
    lambda d: forest(split(leaf=[[1, 0, 0]]))(d),
    lambda d: forest(split(leaf=[[1, 0, 0], [0, 0, 1], [0, 1, 0]]))(d),
    lambda d: forest(split(leaf=[[10**400, 0, 0], [0, 0, 1]]))(d),
    lambda d: forest(split(leaf=[[float("nan"), 0, 0], [0, 0, 1]]))(d),
    lambda d: forest(split(leaf=[[1, 0, 0], [0, 0, float("inf")]]))(d),
    lambda d: forest(split(leaf=[["1", 0, 0], [0, 0, 1]]))(d),
    # thresholds are finite reals, and features lie in [-1, vocabulary size)
    lambda d: forest(split(threshold=[float("nan"), 0, 0]))(d),
    lambda d: forest(split(threshold=[0.5, float("-inf"), 0]))(d),
    lambda d: forest(split(threshold=["0.5", 0, 0]))(d),
    lambda d: forest(split(feature=[len(d["vocabulary"]), -1, -1]))(d),
    lambda d: forest(split(feature=[-2, -1, -1]))(d),
    lambda d: forest(split(feature=[0.0, -1, -1]))(d),
    # no list holds a bool
    lambda d: forest(split(feature=[False, -1, -1]))(d),
    lambda d: forest(split(threshold=[True, 0, 0]))(d),
    lambda d: forest(split(right=[2, -1, True]))(d),
    lambda d: forest(split(leaf=[[True, 0, 0], [0, 0, 1]]))(d),
    lambda d: forest()(d),
    # MNNB parameters are finite JSON reals, and alpha is > 0
    lambda d: d["params"]["class_log_prior"].__setitem__(0, float("nan")),
    lambda d: d["params"]["term_log_prob"][1].__setitem__(0, float("-inf")),
    lambda d: d["params"]["term_log_prob"][2].__setitem__(0, "-1.5"),
    lambda d: d["params"]["class_log_prior"].__setitem__(2, True),
    lambda d: d["params"].update(alpha=-1),
    lambda d: d["params"].update(alpha=0),
    lambda d: d["params"].update(alpha=float("nan")),
    lambda d: d["params"].update(alpha=float("inf")),
    lambda d: d["params"].update(alpha="1"),
    lambda d: d["params"].update(alpha=True),
    # the forest header holds JSON integers, and n_trees counts the trees
    lambda d: (forest(split())(d), d["params"].update(n_trees=1.0)),
    lambda d: (forest(split())(d), d["params"].update(n_trees="1")),
    lambda d: (forest(split())(d), d["params"].update(n_trees=True)),
    lambda d: (forest(split())(d), d["params"].update(n_trees=2)),
    lambda d: (forest(split(), split())(d), d["params"].update(n_trees=1)),
    lambda d: (forest(split())(d), d["params"].update(feature_subsample=1.0)),
    lambda d: (forest(split())(d), d["params"].update(feature_subsample="1")),
    lambda d: (forest(split())(d), d["params"].update(feature_subsample=True)),
    lambda d: (forest(split())(d), d["params"].update(seed=0.5)),
    lambda d: (forest(split())(d), d["params"].update(seed="0")),
    lambda d: (forest(split())(d), d["params"].update(seed=False)),
    lambda d: (forest(split())(d), d["params"].update(trees={"0": split()})),
])
def test_classify_rejects_malformed_model(pipeline, tmp_path, capsys, edit):
    doc = json.loads(pipeline["model"].read_text(encoding="utf-8"))
    edit(doc)
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["classify", "--corpus", str(pipeline["corpus"]), "--model", str(bad),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")


@pytest.fixture(scope="module")
def model_docs(pipeline, tmp_path_factory):
    """The decoded files of the pipeline's MNNB model and of a small forest."""
    rf = tmp_path_factory.mktemp("rf") / "model.json"
    assert main(["train", "--corpus", str(pipeline["corpus"]), "--model", str(rf),
                 "--classifier", "rf", "--trees", "2", "--ngrams", "1",
                 "--smote-percent", "0", "--seed", "3"]) == 0
    return {kind: json.loads(path.read_text(encoding="utf-8"))
            for kind, path in (("mnnb", pipeline["model"]), ("rf", rf))}


def json_paths(obj, path=()):
    """The keys and indices that lead to every value inside a decoded JSON document."""
    items = obj.items() if type(obj) is dict else enumerate(obj) if type(obj) is list else ()
    for key, value in items:
        yield (*path, key)
        yield from json_paths(value, (*path, key))


def mutate_model(data, doc) -> None:
    """Apply one drawn mutation to doc: drop a key or list item, give a value another
    JSON value, or set a forest field, or an entry of one of a tree's lists, to a
    value at the edge of its checks."""
    forest_fields = ["threshold", "feature", "right", "leaf", "n_trees"]
    how = data.draw(st.sampled_from(["drop", "value", *forest_fields]
                                    if doc["kind"] == "rf" else ["drop", "value"]))
    path = data.draw(st.sampled_from([p for p in json_paths(doc)
                                      if how in ("drop", "value", *p[-2:])]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, n_terms = path[-1], len(doc["vocabulary"])
    if how == "drop":
        del parent[key]
        return
    parent[key] = data.draw({
        "value": any_json,
        "threshold": st.sampled_from([math.nan, math.inf, -math.inf, -0.5, 10**400]),
        "feature": st.sampled_from([-2, -1, 0, n_terms - 1, n_terms, 2**64]),
        # at entry key of a list of len(parent) nodes
        "right": st.sampled_from([-1, 0, key, len(parent), 2**64]),
        "leaf": st.lists(st.sampled_from([0, 0.5, 1.0]), max_size=5),
        "n_trees": st.integers(0, 4),
    }[how])


def run_cli(argv_head, argv, files) -> tuple[int, str, bool]:
    """argv with --out o, in a fresh working directory that holds files (name -> text):
    the exit code, stderr and whether --out was made. argv_head runs the command in
    a child process; None runs main in this one."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for name, text in files.items():
            Path(name).write_bytes(text.encode("utf-8", "surrogatepass"))
        argv = [*argv, "--out", "o"]
        if argv_head is None:
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            err = err.getvalue()
        else:
            proc = subprocess.run([*argv_head, *argv], capture_output=True, text=True,
                                  env=child_env())
            code, err = proc.returncode, proc.stderr
        return code, err, Path("o").exists()


def run_classify(argv_head, corpus, doc) -> tuple[int, str, bool]:
    """classify --corpus corpus with doc as its model file; see run_cli."""
    argv = ["classify", "--corpus", str(corpus), "--model", "model.json"]
    return run_cli(argv_head, argv, {"model.json": json.dumps(doc)})


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["mnnb", "rf"]), st.data())
def test_classify_model_fuzz_exits_cleanly(pipeline, model_docs, kind, data):
    doc = copy.deepcopy(model_docs[kind])
    mutate_model(data, doc)
    code, err, made_out = run_classify(None, pipeline["corpus"], doc)
    assert (code, err.startswith("error: model.json: "), made_out) in (
        (0, False, True), (2, True, False)), err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind, edit, code", [
    pytest.param("rf", lambda d: d["params"]["trees"][0]["threshold"].__setitem__(0, math.nan),
                 2, id="nan-threshold"),
    pytest.param("mnnb", lambda d: d["params"]["term_log_prob"][0].pop(), 2, id="short-row"),
    pytest.param("rf", lambda d: None, 0, id="unchanged-forest"),
])
def test_classify_model_exits_agree_in_a_child_process(pipeline, model_docs, kind, edit, code):
    doc = copy.deepcopy(model_docs[kind])
    edit(doc)
    here = run_classify(None, pipeline["corpus"], doc)
    assert here[0] == code
    assert run_classify([sys.executable, "-m", "sensor_rank.cli"], pipeline["corpus"], doc) == here


def run_input(argv_head, pipeline, name, text) -> tuple[int, str, bool]:
    """classify with text as its corpus file, or rank with text as its graph file;
    see run_cli."""
    argv = {
        "corpus.jsonl": ["classify", "--corpus", name, "--model", str(pipeline["model"])],
        "graph.csv": ["rank", "--corpus", str(pipeline["classified"]), "--graph", name],
    }[name]
    return run_cli(argv_head, argv, {name: text})


def assert_clean_exit(code, err, made_out) -> None:
    """A run exits 0 and writes --out, or prints `error: `, exits 2 and writes no --out;
    it never prints a traceback."""
    assert (code, err.startswith("error: "), made_out) in ((0, False, True), (2, True, False)), err
    assert "Traceback" not in err


@settings(max_examples=150, deadline=None)
@given(corpus_text)
def test_classify_corpus_fuzz_exits_cleanly(pipeline, text):
    assert_clean_exit(*run_input(None, pipeline, "corpus.jsonl", text))


@settings(max_examples=150, deadline=None)
@given(graph_text)
def test_rank_graph_fuzz_exits_cleanly(pipeline, text):
    assert_clean_exit(*run_input(None, pipeline, "graph.csv", text))


@pytest.mark.parametrize("name, text, code", [
    pytest.param("corpus.jsonl", '{"id": "t1", "user": "ana", "text": "zika",\n', 2,
                 id="corpus-broken-json"),
    pytest.param("corpus.jsonl", '\n {"id": 1, "user": "ana", "text": "zika", '
                 '"created_at": "2016-09-01"} \n', 0, id="corpus-padded"),
    pytest.param("graph.csv", "\ufeffa,b\nb,b\n", 2, id="graph-self-follow"),
])
def test_input_exits_agree_in_a_child_process(pipeline, name, text, code):
    here = run_input(None, pipeline, name, text)
    assert here[0] == code
    child = run_input([sys.executable, "-m", "sensor_rank.cli"], pipeline, name, text)
    assert child == here


# perfbench's rf_trigram inputs: about 2k tweets for the README-default learner
RF_TRIGRAM = {
    "seed": 4,
    "n_users": 500,
    "noise_rate": 0.2,
    "class_mix": [0.4, 0.35, 0.25],
    "tail_histogram": {"1": 300, "2": 75, "3": 50, "4": 15, "5-9": 10, "10-19": 0, "20+": 1},
    "planted_influencers": [["sentinela001", 50, 30]],
}


def at_most_processes(monkeypatch, jobs):
    monkeypatch.setattr(corpus_module, "_jobs", lambda n: min(jobs, n))


@pytest.mark.parametrize("inputs", ["pipeline", "rf_trigram"])
def test_train_writes_and_predicts_the_same_on_1_and_2_processes(
    pipeline, tmp_path, monkeypatch, inputs
):
    corpus = pipeline["corpus"]
    flags = ["--classifier", "rf", "--trees", "5", "--seed", "3"]
    if inputs == "rf_trigram":
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps(RF_TRIGRAM), encoding="utf-8")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
        corpus = tmp_path / "data" / "corpus.jsonl"
        flags = ["--classifier", "rf", "--ngrams", "3", "--smote-percent", "100",
                 "--trees", "4", "--seed", "4"]
    trained = []
    train_rf = classify.train_rf
    monkeypatch.setattr(classify, "train_rf",
                        lambda *args: trained.append(train_rf(*args)) or trained[-1])
    runs = []
    for jobs in (1, 2):
        at_most_processes(monkeypatch, jobs)
        model = tmp_path / f"model{jobs}.json"
        assert main(["train", "--corpus", str(corpus), "--model", str(model), *flags]) == 0
        _, vocab, _ = load_model(model)
        texts = load_corpus(corpus).texts
        _, counts = count_ngrams(texts, ReplacementTable.default(), vocab=vocab)
        runs.append((model.read_bytes(), forest_module.predict_proba(trained[-1], counts).tobytes()))
    assert runs[0] == runs[1]


def test_eval_writes_the_same_on_1_and_2_processes(pipeline, tmp_path, capsys, monkeypatch):
    runs = []
    for jobs in (1, 2):
        at_most_processes(monkeypatch, jobs)
        out = tmp_path / str(jobs)
        assert main(["eval", "--corpus", str(pipeline["corpus"]), "--out", str(out),
                     "--folds", "3", "--classifier", "rf", "--trees", "4", "--seed", "3"]) == 0
        runs.append((capsys.readouterr().out, (out / "eval.json").read_bytes(),
                     (out / "eval.tsv").read_bytes()))
    assert runs[0] == runs[1]


def test_train_classify_and_eval_build_no_tree_nodes(pipeline, tmp_path, capsys, monkeypatch):
    # a forest is its flat lists from growth to prediction; only RfModel.trees links nodes
    def no_nodes(*args, **kwargs):
        raise AssertionError("a TreeNode was built")

    monkeypatch.setattr(forest_module, "TreeNode", no_nodes)
    corpus, model = str(pipeline["corpus"]), str(tmp_path / "model.json")
    flags = ["--classifier", "rf", "--trees", "4", "--seed", "3"]
    assert main(["train", "--corpus", corpus, "--model", model, *flags]) == 0
    assert main(["classify", "--corpus", corpus, "--model", model,
                 "--out", str(tmp_path / "cls")]) == 0
    assert main(["eval", "--corpus", corpus, "--out", str(tmp_path / "eval"), "--folds", "3",
                 *flags]) == 0


# train with 2 processes, the child's trees grown by a _grow_tree that fails
FAILING_CHILD = """
import os, signal, sys
from sensor_rank import cli, corpus, forest
parent, grow = os.getpid(), forest._grow_tree
def grow_or_fail(*args):
    if os.getpid() != parent:
        {fault}
    return grow(*args)
forest._grow_tree = grow_or_fail
corpus._jobs = lambda n: min(2, n)
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("fault, message", [
    ("raise ValueError('no tree today')", "no tree today"),
    ("os._exit(3)", "a tree-growing process exited with status 3 before sending its trees"),
    ("os.kill(os.getpid(), signal.SIGKILL)",
     "a tree-growing process was killed by SIGKILL before sending its trees"),
], ids=["raises", "exits", "killed"])
def test_train_reports_a_failing_child(pipeline, tmp_path, fault, message):
    model = tmp_path / "model.json"
    proc = subprocess.run(
        [sys.executable, "-c", FAILING_CHILD.format(fault=fault), "train",
         "--corpus", str(pipeline["corpus"]), "--model", str(model), "--classifier", "rf",
         "--ngrams", "1", "--smote-percent", "0", "--trees", "2", "--seed", "1"],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (2, f"error: {message}\n")
    assert not model.exists()


def test_train_and_classify_a_5000_level_chain(pipeline, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(classify, "train_model", lambda *args: chain_forest(5000, 5))
    model = tmp_path / "m.json"
    assert main(["train", "--corpus", str(pipeline["corpus"]), "--model", str(model),
                 *TRAIN_FLAGS]) == 0
    assert main(["classify", "--corpus", str(pipeline["corpus"]), "--model", str(model),
                 "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("reader", ["model", "corpus", "config", "synth config"])
def test_deeply_nested_json_is_an_input_error(pipeline, tmp_path, capsys, reader):
    deep = tmp_path / "deep.json"
    nested = "[" * 100_000 + "]" * 100_000
    if reader == "corpus":
        first = pipeline["classified"].read_text(encoding="utf-8").splitlines()[0]
        deep.write_text(f"{first}\n{nested}\n", encoding="utf-8")
    else:
        deep.write_text(nested, encoding="utf-8")
    out = tmp_path / "o"
    rank = ["rank", "--corpus", str(pipeline["classified"]), "--graph", str(pipeline["graph"])]
    argv = {
        "model": ["classify", "--corpus", str(pipeline["corpus"]), "--model", str(deep)],
        "corpus": ["rank", "--corpus", str(deep), "--graph", str(pipeline["graph"])],
        "config": [*rank, "--config", str(deep)],
        "synth config": ["synth", "--config", str(deep)],
    }[reader]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {deep}: line 2: " if reader == "corpus" else f"error: {deep}: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("kind", [
    "corpus", "graph", "exclusions", "table", "stopwords", "config", "synth config", "model",
])
def test_bytes_that_are_not_utf8_name_file_and_line(pipeline, tmp_path, capsys, kind):
    bad = tmp_path / "bad.txt"
    first = pipeline["classified"].read_bytes().splitlines()[0]
    bad.write_bytes({
        "corpus": first + b'\n{"id": "t\xff"}\n',
        "graph": b"a,b\nc,\xff\n",
        "exclusions": b"a\n\xff\n",
        "table": b"zika,zikavirus\n\xff,x\n",
        "stopwords": b"de\n\xff\n",
        "config": b'{\n"k": "\xff"}\n',
        "synth config": b'{\n"seed": "\xff"}\n',
        "model": b'{\n"format": "\xff"}\n',
    }[kind])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({kind: str(bad)}), encoding="utf-8")
    corpus, model = ["--corpus", str(pipeline["corpus"])], ["--model", str(pipeline["model"])]
    rank = ["rank", "--corpus", str(pipeline["classified"]), "--graph", str(pipeline["graph"])]
    argv = {
        "corpus": ["classify", "--corpus", str(bad), *model],
        "graph": ["rank", "--corpus", str(pipeline["classified"]), "--graph", str(bad)],
        "exclusions": [*rank, "--exclusions", str(bad)],
        "table": ["classify", *corpus, *model, "--config", str(cfg)],
        "stopwords": ["keywords", *corpus, "--config", str(cfg)],
        "config": [*rank, "--config", str(bad)],
        "synth config": ["synth", "--config", str(bad)],
        "model": ["classify", *corpus, "--model", str(bad)],
    }[kind]
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: line 2: not valid UTF-8: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("reader", ["config", "synth config", "model"])
def test_malformed_json_names_the_file(pipeline, tmp_path, capsys, reader):
    bad = tmp_path / "bad.json"
    rank = ["rank", "--corpus", str(pipeline["classified"]), "--graph", str(pipeline["graph"])]
    argv = {
        "config": [*rank, "--config", str(bad)],
        "synth config": ["synth", "--config", str(bad)],
        "model": ["classify", "--corpus", str(pipeline["corpus"]), "--model", str(bad)],
    }[reader]
    out = tmp_path / "o"
    for raw, problem in [
        ('{"k": 3,', "Expecting property name"),
        ('{"k": 1' + "0" * 5000 + "}", "Exceeds the limit"),  # too long to convert
    ]:
        bad.write_text(raw, encoding="utf-8")
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: invalid JSON: {problem}")
        assert "Traceback" not in err
        assert not out.exists()
