"""Per-user statistics, candidate filtering, and the single-topic user ranking.

Ranking follows the random-surfer construction: score flows along follow
edges from follower to friend, weighted by the friend's share of relevant
activity and by activity similarity, with teleportation toward the normalized
occurrence vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .corpus import LABEL_ORDER, Corpus, FollowerGraph, Label, dumps_json

__all__ = [
    "UserStats",
    "RankConfig",
    "TransitionMatrix",
    "RankVector",
    "RankRow",
    "RankingReport",
    "compute_user_stats",
    "candidate_filter",
    "build_transition",
    "twitterrank",
    "topic_focus",
    "overall_focus",
    "connected_components",
    "ranking_report",
    "report_to_tsv",
    "report_to_json",
    "write_report",
]

REPORT_METRICS = ("tr", "tf", "of")
_RELEVANT = LABEL_ORDER.index(Label.RELEVANT)


@dataclass(frozen=True, eq=False)
class UserStats:
    """Activity tallies as columns over users, whose ids are distinct and in
    increasing order: int64 relevant (R), harvest (T_K) and total (T) counts,
    bool defaulted (T fell back to T_K), and float v, each user's share of the
    relevant counts, which candidate_filter sets and which is 0 before. Every
    row has 0 <= R <= T_K <= T."""

    users: tuple[str, ...]
    relevant: np.ndarray
    harvest: np.ndarray
    total: np.ndarray
    defaulted: np.ndarray | None = None
    v: np.ndarray | None = None

    def __post_init__(self) -> None:
        users = tuple(self.users)
        object.__setattr__(self, "users", users)
        for name, dtype in (("relevant", np.int64), ("harvest", np.int64), ("total", np.int64),
                            ("defaulted", bool), ("v", float)):
            value = getattr(self, name)
            column = np.asarray(np.zeros(len(users)) if value is None else value, dtype=dtype)
            if column.shape != (len(users),):
                raise ValueError(f"column {name!r} has shape {column.shape}, expected ({len(users)},)")
            object.__setattr__(self, name, column)
        for a, b in zip(users, users[1:]):
            if a >= b:
                raise ValueError(f"user ids must be distinct and increasing, got {a!r} before {b!r}")
        r, t_k, t = self.relevant, self.harvest, self.total
        bad = (r < 0) | (r > t_k) | (t_k > t)
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(
                f"user {users[i]}: counts must satisfy 0 <= relevant <= harvest <= total, "
                f"got ({r[i]}, {t_k[i]}, {t[i]})"
            )

    def __len__(self) -> int:
        return len(self.users)


@dataclass(frozen=True)
class RankConfig:
    """Knobs of the ranking stage; defaults match the reported study settings."""

    gamma: float = 0.85
    tol: float = 1e-9
    max_iter: int = 1000
    min_relevant: int = 3
    k: int = 10

    def __post_init__(self) -> None:
        if not 0 < self.gamma < 1:
            raise ValueError(f"gamma must be in (0,1), got {self.gamma}")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.min_relevant < 1:
            raise ValueError(f"min_relevant must be >= 1, got {self.min_relevant}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Sparse follower-to-friend transition weights over the candidate set.

    users names each row and column index. Edges are distinct and ordered by
    (row, col). Rows are sub-stochastic: the tau-ratio factors of a row sum to
    at most 1 and each is scaled by a similarity in [0,1].
    """

    users: tuple[str, ...]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @property
    def n(self) -> int:
        return len(self.users)


@dataclass(frozen=True, eq=False)
class RankVector:
    """Converged (or truncated) scores plus iteration diagnostics.

    scores is aligned with the ranked candidates' users. residuals holds the
    full L1 step-size sequence, one entry per iteration; its last value
    equals final_residual.
    """

    scores: np.ndarray
    iterations: int
    final_residual: float
    converged: bool
    residuals: tuple[float, ...] = ()


class RankRow(NamedTuple):
    user_id: str
    relevant_count: int
    harvest_count: int
    total_count: int
    tr_score: float
    tr_rank: int
    topic_focus: float
    tf_rank: int
    overall_focus: float
    of_rank: int


@dataclass(frozen=True)
class RankingReport:
    """Top-k rows under one metric, with cross-rank positions for all three."""

    rows: tuple[RankRow, ...]
    metric: str


def compute_user_stats(corpus: Corpus) -> UserStats:
    """Aggregate R/T_K/T per author of a classified corpus, in user-id order.

    The total comes from the largest user_total_tweets seen for the user;
    when that is missing or smaller than the harvest itself, the harvest count
    is used and the defaulted flag is set.
    """
    if (corpus.y < 0).any():
        rid = corpus.ids[np.argmax(corpus.y < 0)]
        raise ValueError(f"record {rid} has no label; classify the corpus first")
    if not len(corpus):
        raise ValueError("no classified records to aggregate")
    users, author = np.unique(np.array(corpus.users, dtype=object), return_inverse=True)
    harvest = np.bincount(author, minlength=len(users))
    relevant = np.bincount(author[corpus.y == _RELEVANT], minlength=len(users))
    declared = np.full(len(users), -1, dtype=np.int64)  # -1: no total declared
    np.maximum.at(declared, author, corpus.user_total_tweets)
    total = np.maximum(declared, harvest)
    return UserStats(tuple(users.tolist()), relevant, harvest, total, declared < harvest)


def candidate_filter(
    stats: UserStats, config: RankConfig, excluded: Iterable[str] = ()
) -> UserStats:
    """The active-enough, non-excluded users' rows, with their normalized shares.

    v = relevant / (sum of relevant over the kept users), so v sums to 1.
    """
    excluded = frozenset(excluded)
    keep = (stats.relevant >= config.min_relevant) & [u not in excluded for u in stats.users]
    if not keep.any():
        raise ValueError("no candidates meet the relevance threshold")
    relevant = stats.relevant[keep]
    return UserStats(
        tuple(compress(stats.users, keep.tolist())), relevant, stats.harvest[keep],
        stats.total[keep], stats.defaulted[keep], relevant / relevant.sum(),
    )


def build_transition(candidates: UserStats, graph: FollowerGraph) -> TransitionMatrix:
    """Restrict the graph to candidates and weight each follow edge.

    For i following j: P(i,j) = R(j) / (sum of R over i's candidate friends)
    times sim(i,j) = 1 - |v(i) - v(j)|. Every candidate-to-candidate edge is
    kept, zero weights included, ordered by (follower index, friend index).
    """
    index = dict(zip(candidates.users, range(len(candidates))))
    # each graph user's candidate index, -1 for a non-candidate
    pos = np.array([index.get(name, -1) for name in graph.names], dtype=np.int64)
    ends = pos[graph.edges]
    # graph.edges are sorted by (follower, friend) position in the sorted names, and
    # candidate indices grow with the name, so the kept edges need no sort; the copy
    # makes rows and cols contiguous, which keeps twitterrank's gathers fast
    rows, cols = ends[(ends >= 0).all(axis=1)].T.copy()
    r, v = candidates.relevant.astype(float), candidates.v
    # sums of integer counts: exact in any order
    denom = np.bincount(rows, weights=r[cols], minlength=len(candidates))
    vals = r[cols] / denom[rows] * (1.0 - np.abs(v[rows] - v[cols]))
    return TransitionMatrix(candidates.users, rows, cols, vals)


def twitterrank(P: TransitionMatrix, stats: UserStats, config: RankConfig) -> RankVector:
    """Power-iterate TR = gamma * P^T TR + (1-gamma) E with E the v column.

    stats must hold P's users. Starts from TR_0 = E and stops when the L1
    step falls to config.tol or max_iter is hit (converged flag reports which).
    """
    if stats.users != P.users:
        raise ValueError("stats and transition matrix cover different users")
    e = stats.v
    if abs(e.sum() - 1.0) > 1e-9:
        raise ValueError(f"occurrence vector must sum to 1, got {e.sum()!r}")
    gamma = config.gamma
    tr = e.copy()
    residuals: list[float] = []
    residual = float("inf")
    while len(residuals) < config.max_iter:
        flow = np.bincount(P.cols, weights=P.vals * tr[P.rows], minlength=P.n)
        nxt = gamma * flow + (1.0 - gamma) * e
        residual = float(np.abs(nxt - tr).sum())
        residuals.append(residual)
        tr = nxt
        if residual <= config.tol:
            break
    return RankVector(
        scores=tr,
        iterations=len(residuals),
        final_residual=residual,
        converged=residual <= config.tol,
        residuals=tuple(residuals),
    )


def topic_focus(stats: UserStats) -> np.ndarray:
    """Percentage of each user's harvested tweets that are relevant."""
    if not stats.harvest.all():
        raise ValueError(f"user {stats.users[stats.harvest.argmin()]}: harvest_count is 0")
    return 100.0 * stats.relevant / stats.harvest


def overall_focus(stats: UserStats) -> np.ndarray:
    """Percentage of each user's total tweets that are relevant."""
    if not stats.total.all():
        raise ValueError(f"user {stats.users[stats.total.argmin()]}: total_count is 0")
    return 100.0 * stats.relevant / stats.total


def connected_components(
    P: TransitionMatrix,
) -> tuple[list[list[str]], list[tuple[str, str]]]:
    """Weak components of the candidate-restricted graph, plus mutual pairs.

    P carries every candidate-to-candidate follow edge. Every candidate
    appears in exactly one component (isolated users form singletons).
    Components are sorted largest first, then by first member; mutual-follow
    pairs are returned as sorted (a, b) tuples with a < b.
    """
    ids = P.users
    # hook each root onto the smallest root across its edges, then flatten,
    # until every edge joins one root; a root is its component's least index
    root = np.arange(P.n)
    while True:
        a, b = root[P.rows], root[P.cols]
        if np.array_equal(a, b):
            break
        low = np.minimum(a, b)
        np.minimum.at(root, a, low)
        np.minimum.at(root, b, low)
        while not np.array_equal(root[root], root):
            root = root[root]
    members: dict[int, list[str]] = {}
    for uid, r in zip(ids, root.tolist()):
        members.setdefault(r, []).append(uid)
    components = sorted(
        (sorted(c) for c in members.values()), key=lambda c: (-len(c), c[0])
    )
    # P's edges are distinct and ordered by (row, col), so their codes are sorted
    code, back = P.rows * P.n + P.cols, P.cols * P.n + P.rows
    found = code[np.minimum(np.searchsorted(code, back), len(code) - 1)] == back
    mutual = found & (P.rows < P.cols)
    pairs = sorted(
        tuple(sorted((ids[i], ids[j]))) for i, j in zip(P.rows[mutual], P.cols[mutual])
    )
    return components, pairs


def ranking_report(
    candidates: UserStats,
    rank_vector: RankVector,
    config: RankConfig,
    metric: str = "tr",
) -> RankingReport:
    """Top-k table under `metric` with 1-based ranks under all three metrics.

    Rank positions are computed over the full candidate table; orderings are
    by value descending with ties broken by user_id ascending. The TR column
    is scaled by 100 for readability, like the focus percentages.
    """
    if metric not in REPORT_METRICS:
        raise ValueError(f"metric must be one of {REPORT_METRICS}, got {metric!r}")
    tr, tf, of = rank_vector.scores, topic_focus(candidates), overall_focus(candidates)
    # rows are in user-id order, so a stable sort breaks ties by user_id
    orders = dict(zip(REPORT_METRICS, (np.argsort(-x, kind="stable") for x in (tr, tf, of))))
    tr_rank, tf_rank, of_rank = (np.argsort(order) + 1 for order in orders.values())
    top = orders[metric][: config.k]
    columns = (candidates.relevant, candidates.harvest, candidates.total,
               100.0 * tr, tr_rank, tf, tf_rank, of, of_rank)
    users = [candidates.users[i] for i in top.tolist()]
    rows = zip(users, *(column[top].tolist() for column in columns))
    return RankingReport(tuple(map(RankRow._make, rows)), metric)


_TSV_HEADER = "\t".join(RankRow._fields)


def _fmt_cell(value) -> str:
    """A TSV report cell: a real to 4 decimals, as dumps_json writes it, else str."""
    return f"{value:.4f}" if isinstance(value, float) else str(value)


def report_to_tsv(report: RankingReport) -> str:
    lines = [_TSV_HEADER, *("\t".join(map(_fmt_cell, row)) for row in report.rows)]
    return "\n".join(lines) + "\n"


def report_to_json(report: RankingReport) -> str:
    return dumps_json([row._asdict() for row in report.rows]) + "\n"


def write_report(report: RankingReport, out_dir: str | Path) -> list[Path]:
    """Write report_<metric>.tsv and .json into out_dir; returns the paths."""
    out = Path(out_dir)
    tsv = out / f"report_{report.metric}.tsv"
    js = out / f"report_{report.metric}.json"
    tsv.write_text(report_to_tsv(report), encoding="utf-8")
    js.write_text(report_to_json(report), encoding="utf-8")
    return [tsv, js]
