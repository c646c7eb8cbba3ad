"""Command-line pipeline: keywords, train, eval, classify, rank, report, synth.

Every command is a thin composition of module operations. Given identical
inputs, config, and seed, outputs are byte-identical; all diagnostics go to
stderr (SENSOR_RANK_LOG selects the level), data goes to files or stdout.

Each command imports in its body only the modules it runs, so a run's start-up
loads no other: beyond `corpus`, `rank` and `report` load `rank`, `synth` loads
`synth`, `train`, `eval` and `classify` load `text`, `classify` and `forest`,
and `keywords` loads `text` and `keywords`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .corpus import (
    LABEL_ORDER,
    Corpus,
    dumps_json,
    load_corpus,
    load_exclusions,
    load_follower_graph,
    map_corpus,
    read_config,
    record_lines,
    write_corpus,
    write_follower_graph,
)

if TYPE_CHECKING:
    from .classify import LabeledDataset
    from .text import ReplacementTable

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
        _Key("metric", str, "report metric: tr, tf or of", ("tr", "tf", "of"), flag=False),
    )
}


# the config-file shape and wording of each key type; see corpus.has_shape
_KINDS = {int: (int, "an integer"), float: (float, "a real"), str: (str, "a string"),
          list: ([str], "a list of strings")}


def _settings(args: argparse.Namespace) -> dict:
    """Config-file values overlaid with command-line flags; flags win. synth reads
    --config as a SynthConfig file instead, so its settings hold the path as "config"."""
    if args.command == "synth":
        settings = {"config": args.config}
    elif args.config:
        shapes = {key.name: _KINDS[key.type] for key in _KEYS.values()}
        settings = read_config(args.config, shapes, null_unsets=True)
        for name, value in settings.items():
            key = _KEYS[name]
            if key.choices and value not in key.choices:
                raise ValueError(f"{args.config}: config key {name!r} must be one of "
                                 f"{key.choices}, got {value!r}")
            if key.type is float:
                settings[name] = float(value)
    else:
        settings = {}
    for key in _KEYS.values():  # config-only keys have no attribute on args
        flag = getattr(args, key.name, None)
        if flag is not None:
            settings[key.name] = flag
    if settings.get("seed", 0) < 0:
        raise ValueError(f"seed must be >= 0, got {settings['seed']}")
    return settings


def _require(settings: dict, key: str):
    value = settings.get(key)
    if value is None:
        raise ValueError(f"--{key.replace('_', '-')} is required for this command")
    return value


def _table(settings: dict) -> ReplacementTable:
    from .text import ReplacementTable

    path = settings.get("table")
    return ReplacementTable.from_csv(path) if path else ReplacementTable.default()


def _out_dir(settings: dict) -> Path:
    """Create --out; commands call it once nothing is left to refuse."""
    out = Path(_require(settings, "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _config(cls, settings: dict):
    """A config dataclass from the settings named like its fields (`trees` sets
    n_trees); the fields left unset keep the defaults cls states."""
    fields = {field.name for field in dataclasses.fields(cls)}
    named = {"n_trees" if k == "trees" else k: v for k, v in settings.items()}
    return cls(**{k: v for k, v in named.items() if k in fields})


def _tally(counts) -> str:
    """Per-class counts in LABEL_ORDER, as "relevant=3 news=1 noise=0"."""
    return " ".join(f"{label.value.lower()}={n}" for label, n in zip(LABEL_ORDER, counts))


def _dataset(settings: dict, table: ReplacementTable, n_max: int) -> LabeledDataset:
    """The labeled records of --corpus, counted as n-grams up to order n_max, a part
    at a time (see map_corpus)."""
    from .classify import dataset_from_corpus, dataset_from_parts

    def count(part: Corpus) -> LabeledDataset | None:
        return dataset_from_corpus(part, table, n_max) if (part.y >= 0).any() else None

    parts = [p for p in map_corpus(_require(settings, "corpus"), count) if p is not None]
    if not parts:
        raise ValueError("corpus contains no labeled records")
    return dataset_from_parts(parts)


def cmd_keywords(settings: dict) -> int:
    from .keywords import SEED_KEYWORDS, KeywordsConfig, expansion_candidates
    from .text import _canonical_token, load_stopwords

    kcfg = _config(KeywordsConfig, settings)
    table = _table(settings)
    path = settings.get("stopwords")
    stopwords = load_stopwords(path) if path else frozenset()
    corpus = load_corpus(_require(settings, "corpus"))
    # printed and written as the tokens expansion_candidates blocks
    seeds = [_canonical_token(s) for s in settings.get("seeds", SEED_KEYWORDS)]
    expansion = expansion_candidates(seeds, corpus, stopwords, table, kcfg)
    merged = seeds + [term for term, _ in expansion]
    lines = [f"seed keywords ({len(seeds)}):"]
    lines += [f"  {s}" for s in seeds]
    lines.append(f"expansion candidates (top {kcfg.k}):")
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


def cmd_train(settings: dict) -> int:
    from .classify import TrainingConfig, rebalance, save_model, train_model

    model_path = _require(settings, "model")
    table = _table(settings)
    tcfg = _config(TrainingConfig, settings)
    seed = _require(settings, "seed")
    data = _dataset(settings, table, tcfg.ngrams)
    train = rebalance(data, tcfg, [seed])
    log.info(
        "train: %d terms; classes %s before rebalance, %s after",
        len(data.vocab), _tally(data.class_counts()), _tally(train.class_counts()),
    )
    model = train_model(train, tcfg, seed)
    save_model(model, data.vocab, table.table_hash(), model_path)
    log.info(
        "trained %s on %d instances (%d features) -> %s",
        type(model).__name__, len(train), len(data.vocab), model_path,
    )
    return 0


def cmd_eval(settings: dict) -> int:
    from .classify import TrainingConfig, cross_validate

    tcfg = _config(TrainingConfig, settings)
    seed = _require(settings, "seed")
    data = _dataset(settings, _table(settings), tcfg.ngrams)
    report = cross_validate(data, tcfg, seed)
    out = _out_dir(settings)
    fmt = "{:.4f}".format
    scores = {"accuracy": report.accuracy, "weighted_f": report.weighted_f, "rmse": report.rmse}
    per_class = {label.value: dict(zip(("precision", "recall", "f1"), prf))
                 for label, prf in report.per_class.items()}
    confusion = [[int(x) for x in row] for row in report.confusion]
    doc = {**scores, "per_class": per_class, "confusion": confusion}
    (out / "eval.json").write_text(dumps_json(doc) + "\n", encoding="utf-8")
    tsv = [f"{name}\t{fmt(x)}" for name, x in scores.items()]
    tsv += [f"{name}_{label}\t{fmt(x)}"
            for label, prf in per_class.items() for name, x in prf.items()]
    tsv += ["\t".join([f"confusion_{label}", *map(str, row)])
            for label, row in zip(per_class, confusion)]
    (out / "eval.tsv").write_text("\n".join(tsv) + "\n", encoding="utf-8")
    print(" ".join(f"{name}={fmt(x)}" for name, x in scores.items()))
    return 0


def cmd_classify(settings: dict) -> int:
    from .classify import load_model, predict_many
    from .text import count_ngrams

    path = _require(settings, "corpus")
    try:
        table = _table(settings)
        model_path = _require(settings, "model")
        model, vocab, saved_hash = load_model(model_path)
        if saved_hash != table.table_hash():
            raise ValueError(
                f"{model_path}: replacement table hash mismatch: the model was trained "
                "with a different normalization table"
            )
    except (ValueError, OSError):
        load_corpus(path)  # a fault of the corpus is reported first
        raise

    def label(part: Corpus) -> tuple[str, np.ndarray, int]:
        """A part's output lines, class tally and records with no in-vocabulary term."""
        _, counts = count_ngrams(part.texts, table, vocab=vocab)
        predicted = predict_many(model, counts).argmax(axis=1)
        lines = "".join(record_lines(dataclasses.replace(part, y=predicted)))
        no_term = int(np.count_nonzero(np.diff(counts.indptr) == 0))
        return lines, np.bincount(predicted, minlength=len(LABEL_ORDER)), no_term

    lines, tallies, no_terms = zip(*map_corpus(path, label))
    out = _out_dir(settings)
    with open(out / "classified.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    counts, no_term = sum(tallies), sum(no_terms)
    tally, n = _tally(counts), int(counts.sum())
    log.info(
        "classify: %s; %d of %d records (%.1f%%) hold no in-vocabulary term",
        tally, no_term, n, 100 * no_term / max(n, 1),
    )
    print(f"classified {n} records: {tally}")
    return 0


def _rank_pipeline(settings: dict):
    from .rank import (
        RankConfig, build_transition, candidate_filter, compute_user_stats, twitterrank,
    )

    rcfg = _config(RankConfig, settings)
    corpus = load_corpus(_require(settings, "corpus"))
    graph = load_follower_graph(_require(settings, "graph"))
    stats = compute_user_stats(corpus)
    path = settings.get("exclusions")
    candidates = candidate_filter(stats, rcfg, load_exclusions(path) if path else frozenset())
    matrix = build_transition(candidates, graph)
    return matrix, rcfg, candidates, twitterrank(matrix, candidates, rcfg)


def cmd_rank(settings: dict) -> int:
    from .rank import REPORT_METRICS, connected_components, ranking_report, write_report

    matrix, rcfg, candidates, rank_vector = _rank_pipeline(settings)
    out = _out_dir(settings)
    for metric in REPORT_METRICS:
        report = ranking_report(candidates, rank_vector, rcfg, metric)
        for path in write_report(report, out):
            log.info("wrote %s", path)
    components, friend_pairs = connected_components(matrix)
    comp_doc = {"components": components, "friend_pairs": friend_pairs}
    (out / "components.json").write_text(
        json.dumps(comp_doc, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    print(
        f"candidates={len(candidates)} iterations={rank_vector.iterations} "
        f"converged={str(rank_vector.converged).lower()} "
        f"residual={rank_vector.final_residual:.3e}"
    )
    return 0


def cmd_report(settings: dict) -> int:
    from .rank import ranking_report, report_to_tsv

    metric = settings.get("metric", "tr")
    _, rcfg, candidates, rank_vector = _rank_pipeline(settings)
    report = ranking_report(candidates, rank_vector, rcfg, metric)
    print(report_to_tsv(report), end="")
    return 0


def cmd_synth(settings: dict) -> int:
    from .synth import SynthConfig, generate

    seed = settings.get("seed")
    if settings["config"]:
        config = SynthConfig.from_json(settings["config"])
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


def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser, with flags on the subparser of command alone: a run parses one
    command's flags, and the top-level help lists no flags."""
    parser = argparse.ArgumentParser(
        prog="sensor-rank",
        description="Classify topic-relevant posts and rank candidate social sensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        if name != command:
            continue
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
    argv = sys.argv[1:] if argv is None else argv
    # argparse takes the first positional argument as the command, and only options
    # come before it; so the command is the first command name in argv, unless
    # argparse refuses argv before it reads any command's flags
    args = _build_parser(next((a for a in argv if a in _COMMANDS), None)).parse_args(argv)
    try:
        return _COMMANDS[args.command][0](_settings(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
