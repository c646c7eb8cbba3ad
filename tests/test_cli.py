import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sensor_rank
from sensor_rank.classify import load_model
from sensor_rank.cli import main
from sensor_rank.corpus import load_corpus
from sensor_rank.keywords import SEED_KEYWORDS

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
    assert all(r.label is not None for r in corpus.records)


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
])
def test_synth_config_values_are_type_checked(tmp_path, capsys, key, value):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({**SYNTH, key: value}), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: config key {key!r} must be ")
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
    assert all(r.label is not None for r in classified.records)
    assert [r.id for r in classified.records] == [r.id for r in original.records]


def test_classify_stdout_tally(pipeline, tmp_path, capsys):
    out = tmp_path / "again"
    assert main(["classify", "--corpus", str(pipeline["corpus"]),
                 "--model", str(pipeline["model"]), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out.strip()
    corpus = load_corpus(out / "classified.jsonl")
    tally = {"relevant": 0, "news": 0, "noise": 0}
    for record in corpus.records:
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


def test_keywords_zero_expansion_keeps_only_seeds(tmp_path, capsys):
    corpus = tmp_path / "kw.jsonl"
    corpus.write_text(json.dumps({"id": "t1", "user": "a", "text": "zika surto",
                                  "created_at": "2016-09-01T00:00:00Z"}) + "\n", encoding="utf-8")
    assert main(["keywords", "--corpus", str(corpus), "--k", "0"]) == 0
    merged = f"merged keywords ({len(SEED_KEYWORDS)}):\n" + "".join(f"  {s}\n" for s in SEED_KEYWORDS)
    assert capsys.readouterr().out.endswith(merged)


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


def test_rejected_eval_leaves_no_out_dir(pipeline, tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["eval", "--corpus", str(pipeline["corpus"]), "--out", str(out),
                 *TRAIN_FLAGS, "--folds", "100000"])
    assert code == 2
    assert "fewer than folds=100000" in capsys.readouterr().err
    assert not out.exists()


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


def forest(*trees):
    """An edit that makes the model a forest of the given trees over its vocabulary."""
    return lambda d: d.update(kind="rf", params={
        "n_trees": len(trees), "feature_subsample": 1, "seed": 0, "trees": list(trees),
    })


def split(feature=0, threshold=0.5, left=None, right=None):
    return {"feature": feature, "threshold": threshold,
            "left": left or {"leaf": [1, 0, 0]}, "right": right or {"leaf": [0.0, 0.0, 1.0]}}


def test_classify_accepts_handwritten_forest(pipeline, tmp_path, capsys):
    # integers are reals in a leaf or a threshold
    doc = json.loads(pipeline["model"].read_text(encoding="utf-8"))
    forest(split(threshold=0, right=split(feature=len(doc["vocabulary"]) - 1)))(doc)
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
    # forest nodes: a leaf is 3 finite reals; a split has a feature id in the
    # vocabulary and a finite threshold
    lambda d: forest({"leaf": [1.0]})(d),
    lambda d: forest({"leaf": [1.0, 0.0, 0.0, 0.0]})(d),
    lambda d: forest({"leaf": [float("nan"), 0.0, 0.0]})(d),
    lambda d: forest({"leaf": [float("inf"), 0.0, 0.0]})(d),
    lambda d: forest({"leaf": [True, 0, 0]})(d),
    lambda d: forest({"leaf": ["1", 0, 0]})(d),
    lambda d: forest({"leaf": None})(d),
    lambda d: forest(split(feature=-5))(d),
    lambda d: forest(split(feature=len(d["vocabulary"])))(d),
    lambda d: forest(split(feature=1.0))(d),
    lambda d: forest(split(feature=True))(d),
    lambda d: forest(split(threshold=float("nan")))(d),
    lambda d: forest(split(threshold="0.5"))(d),
    lambda d: forest(split(left={"leaf": [1.0]}))(d),
    lambda d: forest(split(right=[1, 0, 0]))(d),
    lambda d: forest({"feature": 0, "threshold": 0.5, "left": {"leaf": [1, 0, 0]}})(d),
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
