"""Command-line pipeline: keywords, train, eval, classify, rank, report, synth.

Every command is a thin composition of module operations. Given identical
inputs, config, and seed, outputs are byte-identical; all diagnostics go to
stderr (SENSOR_RANK_LOG selects the level), data goes to files or stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .classify import (
    TrainingConfig,
    cross_validate,
    dataset_from_corpus,
    dumps_json,
    load_model,
    predict_many,
    rebalance,
    save_model,
    train_model,
)
from .corpus import (
    LABEL_ORDER,
    Corpus,
    load_corpus,
    load_exclusions,
    load_follower_graph,
    write_corpus,
    write_follower_graph,
)
from .keywords import SEED_KEYWORDS, expansion_candidates
from .rank import (
    RankConfig,
    REPORT_METRICS,
    build_transition,
    candidate_filter,
    compute_user_stats,
    connected_components,
    ranking_report,
    report_to_tsv,
    twitterrank,
    write_report,
)
from .synth import SynthConfig, generate
from .text import ReplacementTable, count_ngrams, load_stopwords

log = logging.getLogger("sensor_rank")


class _Key(NamedTuple):
    """One settings key: its value type, help text, allowed values, and whether
    it is also a command-line flag (else it is read from --config only)."""

    name: str
    type: type  # str, int, float, or list (of strings)
    help: str
    choices: tuple | None = None
    flag: bool = True


_KEYS = {
    key.name: key
    for key in (
        _Key("corpus", str, "tweet corpus (JSONL)"),
        _Key("graph", str, "follower graph (CSV: follower_id,friend_id)"),
        _Key("model", str, "model file path"),
        _Key("out", str, "output directory"),
        _Key("seed", int, "PRNG seed for stochastic steps"),
        _Key("gamma", float, "teleportation damping (default 0.85)"),
        _Key("tol", float, "L1 convergence threshold (default 1e-9)"),
        _Key("max_iter", int, "iteration cap (default 1000)"),
        _Key("min_relevant", int, "relevant-tweet threshold for candidates (default 3)"),
        _Key("k", int, "report size / keyword expansion size (default 10)"),
        _Key("ngrams", int, "n-gram order (default 3)", (1, 2, 3)),
        _Key("classifier", str, "classifier kind (default rf)", ("mnnb", "rf")),
        _Key("trees", int, "forest size (default 100)"),
        _Key("alpha", float, "smoothing constant (default 1.0)"),
        _Key("smote_percent", int, "minority over-sampling percent, multiple of 100 (default 100)"),
        _Key("smote_k", int, "neighbors for SMOTE (default 5)"),
        _Key("spread_ratio", float, "majority sub-sampling ratio cap (default: off)"),
        _Key("folds", int, "cross-validation folds (default 10)"),
        _Key("exclusions", str, "file with one excluded user id per line"),
        _Key("table", str, "replacement table CSV (from,to)", flag=False),
        _Key("stopwords", str, "stopword file, one term per line", flag=False),
        _Key("seeds", list, "seed keywords", flag=False),
        _Key("metric", str, "report metric: tr, tf or of", flag=False),
    )
}


def _config_value(key: _Key, value, path: str):
    """A config-file value checked against its key; floats accept integers."""
    if key.type is float:
        ok = isinstance(value, (int, float))
    elif key.type is list:
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
    else:
        ok = isinstance(value, key.type)
    if not ok or isinstance(value, bool):
        kind = "a list of strings" if key.type is list else f"a {key.type.__name__}"
        raise ValueError(f"{path}: config key {key.name!r} must be {kind}, got {value!r}")
    if key.choices and value not in key.choices:
        raise ValueError(
            f"{path}: config key {key.name!r} must be one of {key.choices}, got {value!r}"
        )
    return float(value) if key.type is float else value


class Settings:
    """Config-file values overlaid with command-line flags; flags win.

    The synth command interprets --config as a SynthConfig file instead, so
    it constructs Settings with use_config_file=False.
    """

    def __init__(self, args: argparse.Namespace, use_config_file: bool = True):
        self.config_path = args.config
        values: dict = {}
        if use_config_file and args.config:
            with open(args.config, encoding="utf-8") as fh:
                try:
                    raw = json.load(fh)
                except RecursionError:
                    raise ValueError(f"{args.config}: JSON nested too deeply") from None
            if not isinstance(raw, dict):
                raise ValueError(f"{args.config}: config must be a JSON object")
            unknown = set(raw) - set(_KEYS)
            if unknown:
                raise ValueError(
                    f"{args.config}: unknown config key(s) {sorted(unknown)}"
                )
            for name, value in raw.items():
                if value is not None:  # null leaves the key unset
                    values[name] = _config_value(_KEYS[name], value, args.config)
        for key in _KEYS.values():  # config-only keys have no attribute on args
            flag = getattr(args, key.name, None)
            if flag is not None:
                values[key.name] = flag
        self.values = values

    def get(self, key: str, default=None):
        return self.values.get(key, default)

    def require(self, key: str):
        value = self.values.get(key)
        if value is None:
            hint = "--" + key.replace("_", "-")
            raise ValueError(f"{hint} is required for this command")
        return value


def _table(settings: Settings) -> ReplacementTable:
    path = settings.get("table")
    return ReplacementTable.from_csv(path) if path else ReplacementTable.default()


def _stopwords(settings: Settings) -> frozenset[str]:
    path = settings.get("stopwords")
    return load_stopwords(path) if path else frozenset()

def _exclusions(settings: Settings) -> frozenset[str]:
    path = settings.get("exclusions")
    return load_exclusions(path) if path else frozenset()


def _out_dir(settings: Settings) -> Path:
    """Create --out; commands call it once nothing is left to refuse."""
    out = Path(settings.require("out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _training_config(settings: Settings) -> TrainingConfig:
    return TrainingConfig(
        classifier=settings.get("classifier", "rf"),
        alpha=settings.get("alpha", 1.0),
        n_trees=settings.get("trees", 100),
        smote_percent=settings.get("smote_percent", 100),
        smote_k=settings.get("smote_k", 5),
        spread_ratio=settings.get("spread_ratio"),
    )


def _rank_config(settings: Settings) -> RankConfig:
    return RankConfig(
        gamma=settings.get("gamma", 0.85),
        tol=settings.get("tol", 1e-9),
        max_iter=settings.get("max_iter", 1000),
        min_relevant=settings.get("min_relevant", 3),
        k=settings.get("k", 10),
    )


def _fmt4(x: float) -> str:
    return f"{x:.4f}"


def _labeled_corpus(settings: Settings) -> Corpus:
    corpus = load_corpus(settings.require("corpus")).labeled()
    if len(corpus) == 0:
        raise ValueError("corpus contains no labeled records")
    return corpus


def cmd_keywords(settings: Settings) -> int:
    table = _table(settings)
    stopwords = _stopwords(settings)
    corpus = load_corpus(settings.require("corpus"))
    seeds = settings.get("seeds", list(SEED_KEYWORDS))
    top_n = settings.get("k", 10)
    expansion = expansion_candidates(seeds, corpus, stopwords, table, top_n)
    merged = seeds + [term for term, _ in expansion]
    lines = [f"seed keywords ({len(seeds)}):"]
    lines += [f"  {s}" for s in seeds]
    lines.append(f"expansion candidates (top {top_n}):")
    lines += [f"  {term}\t{score:.4f}" for term, score in expansion]
    lines.append(f"merged keywords ({len(merged)}):")
    lines += [f"  {term}" for term in merged]
    print("\n".join(lines))
    if settings.get("out"):
        out = _out_dir(settings)
        (out / "keywords.txt").write_text(
            "".join(term + "\n" for term in merged), encoding="utf-8"
        )
        log.info("wrote %s", out / "keywords.txt")
    return 0


def cmd_train(settings: Settings) -> int:
    corpus = _labeled_corpus(settings)
    model_path = settings.require("model")
    table = _table(settings)
    tcfg = _training_config(settings)
    seed = settings.require("seed")
    data = dataset_from_corpus(corpus, table, settings.get("ngrams", 3))
    train = rebalance(data, tcfg, [seed])
    model = train_model(train, tcfg, seed)
    save_model(model, data.vocab, table.table_hash(), model_path)
    log.info(
        "trained %s on %d instances (%d features) -> %s",
        type(model).__name__, len(train), len(data.vocab), model_path,
    )
    return 0


def cmd_eval(settings: Settings) -> int:
    corpus = _labeled_corpus(settings)
    table = _table(settings)
    tcfg = _training_config(settings)
    seed = settings.require("seed")
    folds = settings.get("folds", 10)
    data = dataset_from_corpus(corpus, table, settings.get("ngrams", 3))
    report = cross_validate(data, folds, tcfg, seed)
    out = _out_dir(settings)
    doc = {
        "accuracy": report.accuracy,
        "weighted_f": report.weighted_f,
        "rmse": report.rmse,
        "per_class": {
            label.value: {
                "precision": p, "recall": r, "f1": f,
            }
            for label, (p, r, f) in report.per_class.items()
        },
        "confusion": [[int(x) for x in row] for row in report.confusion],
    }
    (out / "eval.json").write_text(dumps_json(doc, _fmt4) + "\n", encoding="utf-8")
    tsv = [
        f"accuracy\t{report.accuracy:.4f}",
        f"weighted_f\t{report.weighted_f:.4f}",
        f"rmse\t{report.rmse:.4f}",
    ]
    for label, (p, r, f) in report.per_class.items():
        tsv.append(f"precision_{label.value}\t{p:.4f}")
        tsv.append(f"recall_{label.value}\t{r:.4f}")
        tsv.append(f"f1_{label.value}\t{f:.4f}")
    for i, label in enumerate(report.per_class):
        row = "\t".join(str(int(x)) for x in report.confusion[i])
        tsv.append(f"confusion_{label.value}\t{row}")
    (out / "eval.tsv").write_text("\n".join(tsv) + "\n", encoding="utf-8")
    print(
        f"accuracy={report.accuracy:.4f} "
        f"weighted_f={report.weighted_f:.4f} rmse={report.rmse:.4f}"
    )
    return 0


def cmd_classify(settings: Settings) -> int:
    corpus = load_corpus(settings.require("corpus"))
    table = _table(settings)
    model, vocab, saved_hash = load_model(settings.require("model"))
    if saved_hash != table.table_hash():
        raise ValueError(
            "replacement table hash mismatch: the model was trained with a "
            "different normalization table"
        )
    out = _out_dir(settings)
    _, counts = count_ngrams((r.text for r in corpus.records), table, vocab=vocab)
    predicted = predict_many(model, counts).argmax(axis=1)
    records = tuple(
        dataclasses.replace(record, label=LABEL_ORDER[c])
        for record, c in zip(corpus.records, predicted)
    )
    write_corpus(Corpus(records), out / "classified.jsonl")
    tally = np.bincount(predicted, minlength=len(LABEL_ORDER))
    print(
        f"classified {len(records)} records: "
        + " ".join(f"{label.value.lower()}={n}" for label, n in zip(LABEL_ORDER, tally))
    )
    return 0


def _rank_pipeline(settings: Settings):
    corpus = load_corpus(settings.require("corpus"))
    graph = load_follower_graph(settings.require("graph"))
    rcfg = _rank_config(settings)
    pairs = []
    for record in corpus.records:
        if record.label is None:
            raise ValueError(
                f"record {record.id} has no label; classify the corpus first"
            )
        pairs.append((record, record.label))
    stats = compute_user_stats(pairs)
    candidates = candidate_filter(stats, rcfg, _exclusions(settings))
    matrix = build_transition(candidates, graph)
    return matrix, rcfg, candidates, twitterrank(matrix, candidates, rcfg)


def cmd_rank(settings: Settings) -> int:
    matrix, rcfg, candidates, rank_vector = _rank_pipeline(settings)
    out = _out_dir(settings)
    for metric in REPORT_METRICS:
        report = ranking_report(candidates, rank_vector, rcfg, metric)
        for path in write_report(report, out):
            log.info("wrote %s", path)
    components, friend_pairs = connected_components(matrix)
    comp_doc = {
        "components": components,
        "friend_pairs": [list(p) for p in friend_pairs],
    }
    (out / "components.json").write_text(
        json.dumps(comp_doc, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    print(
        f"candidates={len(candidates)} iterations={rank_vector.iterations} "
        f"converged={str(rank_vector.converged).lower()} "
        f"residual={rank_vector.final_residual:.3e}"
    )
    return 0


def cmd_report(settings: Settings) -> int:
    metric = settings.get("metric", "tr")
    _, rcfg, candidates, rank_vector = _rank_pipeline(settings)
    report = ranking_report(candidates, rank_vector, rcfg, metric)
    print(report_to_tsv(report), end="")
    return 0


def cmd_synth(settings: Settings) -> int:
    seed = settings.get("seed")
    if settings.config_path:
        config = SynthConfig.from_json(settings.config_path)
        if seed is not None:
            config = dataclasses.replace(config, seed=seed)
    elif seed is None:
        raise ValueError("--seed is required when no --config is given")
    else:
        config = SynthConfig(seed=seed)
    corpus, graph, _ = generate(config)
    out = _out_dir(settings)
    write_corpus(corpus, out / "corpus.jsonl")
    write_follower_graph(graph, out / "graph.csv")
    print(f"wrote {len(corpus)} tweets and {len(graph.edges)} edges")
    return 0


_COMMANDS = {
    "keywords": (cmd_keywords, "print the seed keyword set with its TF-IDF expansion"),
    "train": (cmd_train, "fit a classifier on a labeled corpus and save the model"),
    "eval": (cmd_eval, "stratified cross-validation report for a labeled corpus"),
    "classify": (cmd_classify, "label a corpus with a saved model"),
    "rank": (cmd_rank, "rank candidate users and write all three metric reports"),
    "report": (cmd_report, "print one ranking report (config key 'metric': tr/tf/of) to stdout"),
    "synth": (cmd_synth, "generate a synthetic corpus and follower graph"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sensor-rank",
        description="Classify topic-relevant posts and rank candidate social sensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="JSON config file; flags override it")
        for key in _KEYS.values():
            if key.flag:
                sp.add_argument(
                    "--" + key.name.replace("_", "-"), type=key.type, choices=key.choices,
                    help=key.help,
                )
    return parser


_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def _setup_logging() -> None:
    raw = os.environ.get("SENSOR_RANK_LOG", "warn").lower()
    level = _LOG_LEVELS.get(raw)
    logging.basicConfig(
        stream=sys.stderr,
        level=level if level is not None else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    if level is None and raw:
        log.warning("unknown SENSOR_RANK_LOG value %r; using warn", raw)


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = _build_parser().parse_args(argv)
    try:
        settings = Settings(args, use_config_file=args.command != "synth")
        return _COMMANDS[args.command][0](settings)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
