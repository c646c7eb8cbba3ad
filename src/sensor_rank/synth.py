"""Deterministic synthetic corpora and follower graphs.

The generator emits a labeled tweet population whose per-user relevant-tweet
counts follow a configurable long-tail histogram, with optional planted
influencers (known leaders for ranking-recovery tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import LABEL_ORDER, Corpus, FollowerGraph, Label, read_config

__all__ = [
    "BUCKET_ORDER",
    "DEFAULT_TAIL_HISTOGRAM",
    "MAX_TWEETS",
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

#: Most tweets, and most users, a config may ask for: as many as seven-digit
#: tweet ids number.
MAX_TWEETS = 10_000_000

# config-file key -> (JSON shape, its wording in errors); see corpus.has_shape
_CONFIG_SHAPES = {
    "seed": (int, "an integer"),
    "n_users": (np.int64, "a 64-bit integer"),
    "class_vocabularies": ([[str]], "a list of lists of strings"),
    "class_mix": ([float], "a list of reals"),
    "tail_histogram": ({str: np.int64}, "an object of 64-bit integers"),
    "planted_influencers": (
        [(str, np.int64, np.int64)],
        "a list of [id, relevant count, fan-in] triples with 64-bit counts",
    ),
    "edge_density": (float, "a real"),
    "noise_rate": (float, "a real"),
}


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n_users > MAX_TWEETS:
            raise ValueError(f"n_users must be at most {MAX_TWEETS}, got {self.n_users}")
        if len(self.class_vocabularies) != 3 or any(
            not v for v in self.class_vocabularies
        ):
            raise ValueError("class_vocabularies must be three nonempty term sets")
        all_terms = [t for vocab in self.class_vocabularies for t in vocab]
        if len(set(all_terms)) != len(all_terms):
            raise ValueError("class vocabularies must be pairwise disjoint")
        if not all(0 <= share < math.inf for share in self.class_mix):
            raise ValueError(f"class_mix shares must be finite and >= 0, got {self.class_mix}")
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
        # relevant tweets at each histogram slot's largest draw, plus the influencers'
        r_max = sum(r for _, r, _ in self.planted_influencers) + sum(
            int(n) * _BUCKET_RANGES[b][1] for b, n in self.tail_histogram.items())
        if r_max > MAX_TWEETS * self.class_mix[0]:
            raise ValueError(f"tweet budget too large: up to {r_max} relevant tweets at a "
                             f"relevant share of {self.class_mix[0]} exceed {MAX_TWEETS}")

    @classmethod
    def from_json(cls, path: str | Path) -> "SynthConfig":
        raw = read_config(path, _CONFIG_SHAPES)
        if "seed" not in raw:
            raise ValueError(f"{path}: config must supply a seed")
        return cls(**raw)


def _digits(values: np.ndarray, width: int) -> np.ndarray:
    """The ASCII digit codes of nonnegative integers zero-padded to width, a row each."""
    return values[:, None] // 10 ** np.arange(width - 1, -1, -1) % 10 + ord("0")


def generate(config: SynthConfig) -> tuple[Corpus, FollowerGraph, dict[str, Label]]:
    """Emit (corpus, graph, gold labels) fully determined by the config.

    Per-user relevant counts realize the tail histogram exactly (influencers
    consume a slot of their bucket). Every non-influencer author also gets
    non-relevant harvest tweets and off-harvest activity, so the planted
    influencers are the only candidates with perfect focus metrics.

    Texts are slices of one token list per class. Follow edges are drawn as
    position arrays over the user ids, deduplicated as int64 codes and
    interned into the graph once; user ids compare as strings throughout.
    """
    rng = np.random.default_rng(config.seed)

    # relevant-count plan: influencers first, then bucket draws
    buckets = {b: int(config.tail_histogram.get(b, 0)) for b in BUCKET_ORDER}
    for uid, _, _ in config.planted_influencers:  # each count exceeds 30: a "20+" slot
        if buckets["20+"] <= 0:
            raise ValueError(f"influencer {uid} needs a '20+' histogram slot and none is left")
        buckets["20+"] -= 1
    demanded = sum(int(c) for c in config.tail_histogram.values())
    if demanded > config.n_users:
        raise ValueError(
            f"histogram demands {demanded} users but n_users={config.n_users}"
        )
    n_inf = len(config.planted_influencers)
    r_counts = [r for _, r, _ in config.planted_influencers]
    for bucket in BUCKET_ORDER:
        count = buckets[bucket]
        if count == 0:
            continue
        lo, hi = _BUCKET_RANGES[bucket]
        draws = np.full(count, lo) if lo == hi else rng.integers(lo, hi + 1, size=count)
        r_counts += draws.tolist()
    n_cand = len(r_counts)
    # influencers, then the organic candidates and the background as u00000, u00001, ...
    all_users = [uid for uid, _, _ in config.planted_influencers] + [
        f"u{i:05d}" for i in range(config.n_users - n_inf)
    ]
    n_all = len(all_users)

    # tweet budget: relevant volume is fixed, the rest realizes the class mix
    rel = np.zeros(n_all, dtype=int)
    rel[:n_cand] = r_counts
    r_total = int(rel.sum())
    total_tweets = round(r_total / config.class_mix[0])
    n_nonrel = total_tweets - r_total
    fill = np.zeros(n_all, dtype=int)
    fill[n_inf:n_cand] = np.where(rel[n_inf:n_cand] >= 3, rel[n_inf:n_cand] // 2, 1)
    spare = n_nonrel - int(fill.sum())
    if spare < 0:
        raise ValueError(
            "class_mix leaves too few non-relevant tweets for the harvest filler"
        )
    pool = np.arange(n_cand, n_all) if n_all > n_cand else np.arange(n_inf, n_cand)
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
        words = tokens.tolist()
        ends = np.cumsum(doc_lengths).tolist()
        for pos, start, end in zip(positions.tolist(), [0, *ends], ends):
            texts[pos] = " ".join(words[start:end])

    # off-harvest activity: influencers get none, everyone else some
    harvest = rel + fill
    extra = np.zeros(n_all, dtype=int)
    active = harvest > 0
    extra[active] = rng.integers(harvest[active], 4 * harvest[active] + 1)
    extra[:n_inf] = 0
    totals = harvest + extra

    # ids t0000000, t0000001, ... and stamps step seconds apart from 2016-09-01, written
    # as one row of ASCII codes per tweet and decoded for all tweets in one call
    step = max(1, (120 * 86400) // max(n_tweets, 1))
    day, second = np.divmod(np.arange(n_tweets) * step, 86400)
    dates = np.datetime_as_string(np.datetime64("2016-09-01") + np.arange(day.max(initial=0) + 1))
    rows = np.tile(np.frombuffer(b"t0000000 yyyy-mm-ddThh:mm:ssZ ", np.uint8), (n_tweets, 1))
    rows[:, 1:8] = _digits(np.arange(n_tweets), 7)
    rows[:, 9:19] = np.frombuffer("".join(dates).encode(), np.uint8).reshape(-1, 10)[day]
    hms = (second // 3600 * 100 + second // 60 % 60) * 100 + second % 60
    rows[:, [20, 21, 23, 24, 26, 27]] = _digits(hms, 6)
    fields = rows.tobytes().decode("ascii").split(" ")  # id, stamp, id, stamp, ..., ""
    ids = tuple(fields[:-1:2])
    corpus = Corpus(
        ids,
        tuple(map(all_users.__getitem__, tweet_users.tolist())),
        tuple(texts),
        tuple(fields[1::2]),
        tweet_classes.astype(np.int64),
        totals[tweet_users].astype(np.int64),
    )
    gold = dict(zip(ids, map(LABEL_ORDER.__getitem__, tweet_classes.tolist())))

    # follow edges among the ranking-eligible core, plus periphery noise, as
    # (follower, friend) positions in all_users. Ids compare as strings, so each
    # end moves to the first position of its id (an influencer's id may also be
    # an organic user's), and an edge between two users of one id is dropped.
    first = dict(zip(reversed(all_users), range(n_all - 1, -1, -1)))
    canon = np.fromiter(map(first.__getitem__, all_users), np.int64, n_all)
    core = np.flatnonzero(rel >= 3)
    in_core = np.isin(canon, canon[core])
    n_core = len(core)
    parts = [np.empty((0, 2), dtype=np.int64)]
    if n_core > 1 and config.edge_density > 0:
        mat = rng.random((n_core, n_core)) < config.edge_density
        np.fill_diagonal(mat, False)
        parts.append(core[np.argwhere(mat)])
    others = core[canon[core] >= n_inf]  # no influencer's id
    for i, (uid, _, fan_in) in enumerate(config.planted_influencers):
        if fan_in > len(others):
            raise ValueError(
                f"influencer {uid}: fan_in {fan_in} exceeds {len(others)} available followers"
            )
        chosen = rng.choice(len(others), size=fan_in, replace=False)
        parts.append(np.stack([others[chosen], np.full(fan_in, i)], axis=1))
    periphery = np.flatnonzero(~in_core)
    if len(periphery) and n_core:
        n_extra = min(300, len(periphery))
        for a, b in ((periphery, core), (core, periphery)):
            parts.append(np.stack([a[rng.integers(0, len(a), size=n_extra)],
                                   b[rng.integers(0, len(b), size=n_extra)]], axis=1))
    pairs = canon[np.concatenate(parts)]
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    codes = np.sort(pairs[:, 0] * n_all + pairs[:, 1])
    follower, friend = np.divmod(codes[np.diff(codes, prepend=-1) != 0], n_all)

    if config.planted_influencers:
        indeg = np.bincount(friend[in_core[friend]], minlength=n_all)
        if indeg[:n_inf].min() <= indeg[n_inf:].max(initial=0):
            raise ValueError(
                "edge_density too high: an organic candidate out-ranks a planted "
                "influencer's fan-in"
            )

    graph = FollowerGraph._from_flat(all_users, np.stack([follower, friend], axis=1))
    return corpus, graph, gold
