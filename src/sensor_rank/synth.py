"""Deterministic synthetic corpora and follower graphs.

The generator emits a labeled tweet population whose per-user relevant-tweet
counts follow a configurable long-tail histogram, with optional planted
influencers (known leaders for ranking-recovery tests).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .corpus import LABEL_ORDER, Corpus, FollowerGraph, Label, TweetRecord

__all__ = [
    "BUCKET_ORDER",
    "DEFAULT_TAIL_HISTOGRAM",
    "SynthConfig",
    "generate",
]

BUCKET_ORDER = ("1", "2", "3", "4", "5-9", "10-19", "20+")

_BUCKET_RANGES = {
    "1": (1, 1),
    "2": (2, 2),
    "3": (3, 3),
    "4": (4, 4),
    "5-9": (5, 9),
    "10-19": (10, 19),
    "20+": (20, 30),
}

#: Long-tail shape of relevant tweets per user in the reference harvest.
DEFAULT_TAIL_HISTOGRAM = {
    "1": 11860,
    "2": 1058,
    "3": 209,
    "4": 57,
    "5-9": 41,
    "10-19": 1,
    "20+": 2,
}

_RELEVANT_VOCAB = (
    "febre", "sintomas", "mosquito", "foco", "quintal", "agua",
    "manchas", "coceira", "hospital", "posto", "vizinho", "larvas",
)
_NEWS_VOCAB = (
    "ministerio", "saude", "casos", "confirmados", "boletim", "secretaria",
    "governo", "municipio", "campanha", "imprensa", "alerta", "balanco",
)
_NOISE_VOCAB = (
    "mano", "festa", "musica", "jogo", "piada", "meme",
    "galera", "zoeira", "treta", "rolando", "serio", "demais",
)

DEFAULT_CLASS_VOCABULARIES = (_RELEVANT_VOCAB, _NEWS_VOCAB, _NOISE_VOCAB)

# config-file key -> (JSON shape, its wording in errors). A shape is int,
# float (a finite real; integers too), str, [shape] for a list of them,
# {str: shape} for an object of them, or a tuple of shapes for a fixed list.
_CONFIG_SHAPES = {
    "seed": (int, "an integer"),
    "n_users": (int, "an integer"),
    "class_vocabularies": ([[str]], "a list of lists of strings"),
    "class_mix": ([float], "a list of reals"),
    "tail_histogram": ({str: int}, "an object of integers"),
    "planted_influencers": ([(str, int, int)], "a list of [id, relevant count, fan-in] triples"),
    "edge_density": (float, "a real"),
    "noise_rate": (float, "a real"),
}


def _has_shape(value, shape) -> bool:
    if shape is int:
        return type(value) is int
    if shape is float:
        return type(value) is int or type(value) is float and math.isfinite(value)
    if shape is str:
        return isinstance(value, str)
    if isinstance(shape, dict):
        return isinstance(value, dict) and all(_has_shape(v, shape[str]) for v in value.values())
    if not isinstance(value, list):
        return False
    if isinstance(shape, tuple):
        return len(value) == len(shape) and all(map(_has_shape, value, shape))
    return all(_has_shape(v, shape[0]) for v in value)


def _bucket_of(r: int) -> str:
    if r >= 20:
        return "20+"
    if r >= 10:
        return "10-19"
    if r >= 5:
        return "5-9"
    return str(r)


@dataclass(frozen=True)
class SynthConfig:
    """Everything the generator needs; a config plus seed fixes the output.

    Planted influencer counts must exceed the organic "20+" draw ceiling (30)
    so the leader is strictly the most active candidate by construction.
    """

    seed: int
    n_users: int = 14000
    class_vocabularies: tuple[tuple[str, ...], ...] = DEFAULT_CLASS_VOCABULARIES
    class_mix: tuple[float, float, float] = (0.121, 0.506, 0.373)
    tail_histogram: dict[str, int] = field(
        default_factory=lambda: dict(DEFAULT_TAIL_HISTOGRAM)
    )
    planted_influencers: tuple[tuple[str, int, int], ...] = (
        ("sentinela001", 50, 60),
    )
    edge_density: float = 0.016
    noise_rate: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "class_vocabularies",
            tuple(tuple(str(t) for t in vocab) for vocab in self.class_vocabularies),
        )
        object.__setattr__(self, "class_mix", tuple(float(x) for x in self.class_mix))
        object.__setattr__(
            self,
            "planted_influencers",
            tuple(
                (str(uid), int(r), int(fan_in))
                for uid, r, fan_in in self.planted_influencers
            ),
        )
        if len(self.class_vocabularies) != 3 or any(
            not v for v in self.class_vocabularies
        ):
            raise ValueError("class_vocabularies must be three nonempty term sets")
        all_terms = [t for vocab in self.class_vocabularies for t in vocab]
        if len(set(all_terms)) != len(all_terms):
            raise ValueError("class vocabularies must be pairwise disjoint")
        if len(self.class_mix) != 3 or abs(sum(self.class_mix) - 1.0) > 1e-9:
            raise ValueError(f"class_mix must sum to 1, got {self.class_mix}")
        if self.class_mix[0] <= 0:
            raise ValueError("class_mix must give the relevant class positive mass")
        for bucket, count in self.tail_histogram.items():
            if bucket not in _BUCKET_RANGES:
                raise ValueError(f"unknown histogram bucket {bucket!r}")
            if int(count) < 0:
                raise ValueError(f"bucket {bucket!r} has negative count")
        if not 0 <= self.edge_density <= 1:
            raise ValueError(f"edge_density must be in [0,1], got {self.edge_density}")
        if not 0 <= self.noise_rate < 1:
            raise ValueError(f"noise_rate must be in [0,1), got {self.noise_rate}")
        ids = [uid for uid, _, _ in self.planted_influencers]
        if len(set(ids)) != len(ids):
            raise ValueError("planted influencer ids must be unique")
        organic_max = _BUCKET_RANGES["20+"][1]
        for uid, r, fan_in in self.planted_influencers:
            if r <= organic_max:
                raise ValueError(
                    f"influencer {uid}: relevant_count must exceed {organic_max}"
                )
            if fan_in < 1:
                raise ValueError(f"influencer {uid}: fan_in must be >= 1")

    @classmethod
    def from_json(cls, path: str | Path) -> "SynthConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except RecursionError:
                raise ValueError(f"{path}: JSON nested too deeply") from None
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: expected a JSON object")
        unknown = set(raw) - set(_CONFIG_SHAPES)
        if unknown:
            raise ValueError(f"{path}: unknown config key(s) {sorted(unknown)}")
        for key, value in raw.items():
            shape, kind = _CONFIG_SHAPES[key]
            if not _has_shape(value, shape):
                raise ValueError(f"{path}: config key {key!r} must be {kind}, got {value!r}")
        if "seed" not in raw:
            raise ValueError(f"{path}: config must supply a seed")
        if "planted_influencers" in raw:
            raw["planted_influencers"] = tuple(
                tuple(entry) for entry in raw["planted_influencers"]
            )
        if "class_vocabularies" in raw:
            raw["class_vocabularies"] = tuple(
                tuple(v) for v in raw["class_vocabularies"]
            )
        return cls(**raw)


def generate(config: SynthConfig) -> tuple[Corpus, FollowerGraph, dict[str, Label]]:
    """Emit (corpus, graph, gold labels) fully determined by the config.

    Per-user relevant counts realize the tail histogram exactly (influencers
    consume a slot of their bucket). Every non-influencer author also gets
    non-relevant harvest tweets and off-harvest activity, so the planted
    influencers are the only candidates with perfect focus metrics.
    """
    rng = np.random.default_rng(config.seed)

    # relevant-count plan: influencers first, then bucket draws
    buckets = {b: int(config.tail_histogram.get(b, 0)) for b in BUCKET_ORDER}
    for uid, r, _ in config.planted_influencers:
        bucket = _bucket_of(r)
        if buckets[bucket] <= 0:
            raise ValueError(
                f"influencer {uid} needs a {bucket!r} histogram slot and none is left"
            )
        buckets[bucket] -= 1
    demanded = sum(int(c) for c in config.tail_histogram.values())
    if demanded > config.n_users:
        raise ValueError(
            f"histogram demands {demanded} users but n_users={config.n_users}"
        )
    influencer_ids = [uid for uid, _, _ in config.planted_influencers]
    user_ids: list[str] = list(influencer_ids)
    r_counts: list[int] = [r for _, r, _ in config.planted_influencers]
    serial = 0
    for bucket in BUCKET_ORDER:
        count = buckets[bucket]
        if count == 0:
            continue
        lo, hi = _BUCKET_RANGES[bucket]
        draws = np.full(count, lo) if lo == hi else rng.integers(lo, hi + 1, size=count)
        for r in draws:
            user_ids.append(f"u{serial:05d}")
            serial += 1
            r_counts.append(int(r))
    n_cand = len(user_ids)
    background = [f"u{serial + i:05d}" for i in range(config.n_users - n_cand)]
    all_users = user_ids + background
    n_all = len(all_users)
    n_inf = len(influencer_ids)

    # tweet budget: relevant volume is fixed, the rest realizes the class mix
    rel = np.zeros(n_all, dtype=int)
    rel[:n_cand] = r_counts
    r_total = int(rel.sum())
    total_tweets = round(r_total / config.class_mix[0])
    n_nonrel = total_tweets - r_total
    fill = np.zeros(n_all, dtype=int)
    for i in range(n_inf, n_cand):
        fill[i] = max(1, rel[i] // 2) if rel[i] >= 3 else 1
    spare = n_nonrel - int(fill.sum())
    if spare < 0:
        raise ValueError(
            "class_mix leaves too few non-relevant tweets for the harvest filler"
        )
    pool = (
        np.arange(n_cand, n_all)
        if n_all > n_cand
        else np.arange(n_inf, n_cand)
    )
    if spare > 0:
        if len(pool) == 0:
            raise ValueError("no users available to absorb non-relevant volume")
        share = rng.multinomial(spare, np.full(len(pool), 1.0 / len(pool)))
        fill[pool] += share

    # per-tweet user/class streams, relevant block first
    rel_users = np.repeat(np.arange(n_all), rel)
    fill_users = np.repeat(np.arange(n_all), fill)
    p_news = config.class_mix[1] / (config.class_mix[1] + config.class_mix[2])
    fill_classes = np.where(rng.random(len(fill_users)) < p_news, 1, 2)
    tweet_users = np.concatenate([rel_users, fill_users])
    tweet_classes = np.concatenate(
        [np.zeros(len(rel_users), dtype=int), fill_classes]
    )
    n_tweets = len(tweet_users)

    # token generation, batched per class
    lengths = rng.integers(4, 9, size=n_tweets)
    texts: list[str] = [""] * n_tweets
    for c in range(3):
        positions = np.where(tweet_classes == c)[0]
        if len(positions) == 0:
            continue
        doc_lengths = lengths[positions]
        total_tokens = int(doc_lengths.sum())
        own = np.array(config.class_vocabularies[c], dtype=object)
        tokens = own[rng.integers(0, len(own), size=total_tokens)]
        if config.noise_rate > 0:
            other = np.array(
                [t for ci in range(3) if ci != c for t in config.class_vocabularies[ci]],
                dtype=object,
            )
            noisy = rng.random(total_tokens) < config.noise_rate
            tokens[noisy] = other[rng.integers(0, len(other), size=int(noisy.sum()))]
        pieces = np.split(tokens, np.cumsum(doc_lengths)[:-1])
        for pos, piece in zip(positions, pieces):
            texts[pos] = " ".join(piece)

    # off-harvest activity: influencers get none, everyone else some
    harvest = rel + fill
    extra = np.zeros(n_all, dtype=int)
    active = harvest > 0
    extra[active] = rng.integers(harvest[active], 4 * harvest[active] + 1)
    extra[:n_inf] = 0
    totals = harvest + extra

    start = datetime(2016, 9, 1, tzinfo=timezone.utc)
    step = max(1, (120 * 86400) // max(n_tweets, 1))
    records: list[TweetRecord] = []
    gold: dict[str, Label] = {}
    for i in range(n_tweets):
        ui = int(tweet_users[i])
        label = LABEL_ORDER[int(tweet_classes[i])]
        stamp = (start + timedelta(seconds=i * step)).strftime("%Y-%m-%dT%H:%M:%SZ")
        tid = f"t{i:07d}"
        records.append(
            TweetRecord(
                id=tid,
                user=all_users[ui],
                text=texts[i],
                created_at=stamp,
                label=label,
                user_total_tweets=int(totals[ui]),
            )
        )
        gold[tid] = label

    # follow edges among the ranking-eligible core, plus periphery noise
    core = [user_ids[i] for i in range(n_cand) if r_counts[i] >= 3]
    core_set = set(core)
    n_core = len(core)
    edges: set[tuple[str, str]] = set()
    if n_core > 1 and config.edge_density > 0:
        mat = rng.random((n_core, n_core)) < config.edge_density
        np.fill_diagonal(mat, False)
        for a, b in np.argwhere(mat):
            edges.add((core[int(a)], core[int(b)]))
    for uid, _, fan_in in config.planted_influencers:
        others = [c for c in core if c not in influencer_ids]
        if fan_in > len(others):
            raise ValueError(
                f"influencer {uid}: fan_in {fan_in} exceeds {len(others)} available followers"
            )
        chosen = rng.choice(len(others), size=fan_in, replace=False)
        for c in chosen:
            edges.add((others[int(c)], uid))
    periphery = [u for u in all_users if u not in core_set]
    if periphery and core:
        n_extra = min(300, len(periphery))
        fol = rng.integers(0, len(periphery), size=n_extra)
        fri = rng.integers(0, len(core), size=n_extra)
        for a, b in zip(fol, fri):
            edges.add((periphery[int(a)], core[int(b)]))
        fol2 = rng.integers(0, len(core), size=n_extra)
        fri2 = rng.integers(0, len(periphery), size=n_extra)
        for a, b in zip(fol2, fri2):
            edges.add((core[int(a)], periphery[int(b)]))

    if config.planted_influencers:
        indeg: dict[str, int] = {}
        for _, friend in edges:
            if friend in core_set:
                indeg[friend] = indeg.get(friend, 0) + 1
        top_organic = max(
            (d for u, d in indeg.items() if u not in influencer_ids), default=0
        )
        if min(indeg.get(uid, 0) for uid in influencer_ids) <= top_organic:
            raise ValueError(
                "edge_density too high: an organic candidate out-ranks a planted "
                "influencer's fan-in"
            )

    return Corpus(tuple(records)), FollowerGraph(frozenset(edges)), gold
