"""Per-user statistics, candidate filtering, and the single-topic user ranking.

Ranking follows the random-surfer construction: score flows along follow
edges from follower to friend, weighted by the friend's share of relevant
activity and by activity similarity, with teleportation toward the normalized
occurrence vector.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .corpus import FollowerGraph, Label, TweetRecord

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


@dataclass(frozen=True)
class UserStats:
    """Activity tallies for one user: R (relevant), T_K (harvest), T (total)."""

    user_id: str
    relevant_count: int
    harvest_count: int
    total_count: int
    v: float = 0.0
    total_count_defaulted: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.relevant_count <= self.harvest_count <= self.total_count:
            raise ValueError(
                f"user {self.user_id}: counts must satisfy "
                f"0 <= relevant <= harvest <= total, got "
                f"({self.relevant_count}, {self.harvest_count}, {self.total_count})"
            )


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


@dataclass(frozen=True)
class TransitionMatrix:
    """Sparse follower-to-friend transition weights over the candidate set.

    Rows are sub-stochastic: the tau-ratio factors of a row sum to at most 1
    and each is scaled by a similarity in [0,1].
    """

    index: dict[str, int]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @property
    def n(self) -> int:
        return len(self.index)

    def entries(self) -> dict[tuple[int, int], float]:
        return {
            (int(i), int(j)): float(v)
            for i, j, v in zip(self.rows, self.cols, self.vals)
        }


@dataclass(frozen=True)
class RankVector:
    """Converged (or truncated) scores plus iteration diagnostics.

    residuals holds the full L1 step-size sequence, one entry per iteration;
    its last value equals final_residual.
    """

    scores: dict[str, float]
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


def compute_user_stats(
    classified: Iterable[tuple[TweetRecord, Label]]
) -> dict[str, UserStats]:
    """Aggregate R/T_K/T per author from (record, label) pairs.

    total_count comes from the largest user_total_tweets seen for the user;
    when that is missing or smaller than the harvest itself, the harvest count
    is used and the defaulted flag is set.
    """
    relevant: dict[str, int] = {}
    harvest: dict[str, int] = {}
    declared: dict[str, int] = {}
    for record, label in classified:
        uid = record.user
        harvest[uid] = harvest.get(uid, 0) + 1
        if label == Label.RELEVANT:
            relevant[uid] = relevant.get(uid, 0) + 1
        if record.user_total_tweets is not None:
            declared[uid] = max(declared.get(uid, 0), record.user_total_tweets)
    if not harvest:
        raise ValueError("no classified records to aggregate")
    stats: dict[str, UserStats] = {}
    for uid in harvest:
        t_k = harvest[uid]
        total = declared.get(uid, -1)
        defaulted = total < t_k
        stats[uid] = UserStats(
            user_id=uid,
            relevant_count=relevant.get(uid, 0),
            harvest_count=t_k,
            total_count=max(total, t_k),
            total_count_defaulted=defaulted,
        )
    return stats


def candidate_filter(
    stats: dict[str, UserStats], config: RankConfig, excluded: Iterable[str] = ()
) -> list[UserStats]:
    """Keep active-enough, non-excluded users and set their normalized shares.

    v(u) = relevant_count(u) / sum of relevant counts over the kept users, so
    the v values sum to 1. Result is ordered by user_id.
    """
    excluded = set(excluded)
    kept = [
        u
        for uid, u in sorted(stats.items())
        if u.relevant_count >= config.min_relevant and uid not in excluded
    ]
    if not kept:
        raise ValueError("no candidates meet the relevance threshold")
    denom = sum(u.relevant_count for u in kept)
    return [replace(u, v=u.relevant_count / denom) for u in kept]


def build_transition(
    candidates: list[UserStats], graph: FollowerGraph
) -> TransitionMatrix:
    """Restrict the graph to candidates and weight each follow edge.

    For i following j: P(i,j) = R(j) / (sum of R over i's candidate friends)
    times sim(i,j) = 1 - |v(i) - v(j)|. Every candidate-to-candidate edge is
    kept, zero weights included, ordered by (follower index, friend index).
    """
    index = {u.user_id: i for i, u in enumerate(candidates)}
    endpoints = chain.from_iterable(graph.edges)
    ends = np.fromiter(
        map(index.get, endpoints, repeat(-1)), dtype=int, count=2 * len(graph.edges)
    ).reshape(-1, 2)
    follower, friend = ends[(ends >= 0).all(axis=1)].T
    order = np.lexsort((friend, follower))
    rows, cols = follower[order], friend[order]
    r = np.array([u.relevant_count for u in candidates], dtype=float)
    v = np.array([u.v for u in candidates])
    # sums of integer counts: exact in any order
    denom = np.bincount(rows, weights=r[cols], minlength=len(candidates))
    vals = r[cols] / denom[rows] * (1.0 - np.abs(v[rows] - v[cols]))
    return TransitionMatrix(index, rows, cols, vals)


def twitterrank(
    P: TransitionMatrix, stats: list[UserStats], config: RankConfig
) -> RankVector:
    """Power-iterate TR = gamma * P^T TR + (1-gamma) E with E the v vector.

    Starts from TR_0 = E and stops when the L1 step falls to config.tol or
    max_iter is hit (converged flag reports which).
    """
    n = P.n
    e = np.zeros(n)
    for u in stats:
        e[P.index[u.user_id]] = u.v
    if abs(e.sum() - 1.0) > 1e-9:
        raise ValueError(f"occurrence vector must sum to 1, got {e.sum()!r}")
    gamma = config.gamma
    tr = e.copy()
    residuals: list[float] = []
    residual = float("inf")
    while len(residuals) < config.max_iter:
        flow = np.bincount(P.cols, weights=P.vals * tr[P.rows], minlength=n)
        nxt = gamma * flow + (1.0 - gamma) * e
        residual = float(np.abs(nxt - tr).sum())
        residuals.append(residual)
        tr = nxt
        if residual <= config.tol:
            break
    return RankVector(
        scores={u.user_id: float(tr[P.index[u.user_id]]) for u in stats},
        iterations=len(residuals),
        final_residual=residual,
        converged=residual <= config.tol,
        residuals=tuple(residuals),
    )


def topic_focus(u: UserStats) -> float:
    """Percentage of the user's harvested tweets that are relevant."""
    if u.harvest_count == 0:
        raise ValueError(f"user {u.user_id}: harvest_count is 0")
    return 100.0 * u.relevant_count / u.harvest_count


def overall_focus(u: UserStats) -> float:
    """Percentage of the user's total tweets that are relevant."""
    if u.total_count == 0:
        raise ValueError(f"user {u.user_id}: total_count is 0")
    return 100.0 * u.relevant_count / u.total_count


def connected_components(
    P: TransitionMatrix,
) -> tuple[list[list[str]], list[tuple[str, str]]]:
    """Weak components of the candidate-restricted graph, plus mutual pairs.

    P carries every candidate-to-candidate follow edge. Every candidate
    appears in exactly one component (isolated users form singletons).
    Components are sorted largest first, then by first member; mutual-follow
    pairs are returned as sorted (a, b) tuples with a < b.
    """
    ids = list(P.index)
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
    mutual = np.isin(P.rows * P.n + P.cols, P.cols * P.n + P.rows) & (P.rows < P.cols)
    pairs = sorted(
        tuple(sorted((ids[i], ids[j]))) for i, j in zip(P.rows[mutual], P.cols[mutual])
    )
    return components, pairs


def ranking_report(
    candidates: list[UserStats],
    rank_vector: RankVector,
    config: RankConfig,
    metric: str = "tr",
) -> RankingReport:
    """Top-k table under `metric` with 1-based ranks under all three metrics.

    Rank positions are computed over the full candidate list; orderings are
    by value descending with ties broken by user_id ascending. The TR column
    is scaled by 100 for readability, like the focus percentages.
    """
    if metric not in REPORT_METRICS:
        raise ValueError(f"metric must be one of {REPORT_METRICS}, got {metric!r}")
    values = {
        "tr": {u.user_id: rank_vector.scores[u.user_id] for u in candidates},
        "tf": {u.user_id: topic_focus(u) for u in candidates},
        "of": {u.user_id: overall_focus(u) for u in candidates},
    }
    ranks: dict[str, dict[str, int]] = {}
    for name, vals in values.items():
        order = sorted(vals, key=lambda uid: (-vals[uid], uid))
        ranks[name] = {uid: pos + 1 for pos, uid in enumerate(order)}
    chosen = sorted(values[metric], key=lambda uid: (-values[metric][uid], uid))
    by_id = {u.user_id: u for u in candidates}
    rows = []
    for uid in chosen[: config.k]:
        u = by_id[uid]
        rows.append(
            RankRow(
                user_id=uid,
                relevant_count=u.relevant_count,
                harvest_count=u.harvest_count,
                total_count=u.total_count,
                tr_score=100.0 * values["tr"][uid],
                tr_rank=ranks["tr"][uid],
                topic_focus=values["tf"][uid],
                tf_rank=ranks["tf"][uid],
                overall_focus=values["of"][uid],
                of_rank=ranks["of"][uid],
            )
        )
    return RankingReport(tuple(rows), metric)


_TSV_HEADER = (
    "user_id\trelevant_count\tharvest_count\ttotal_count\ttr_score\ttr_rank"
    "\ttopic_focus\ttf_rank\toverall_focus\tof_rank"
)


def report_to_tsv(report: RankingReport) -> str:
    lines = [_TSV_HEADER]
    for row in report.rows:
        lines.append(
            f"{row.user_id}\t{row.relevant_count}\t{row.harvest_count}"
            f"\t{row.total_count}\t{row.tr_score:.4f}\t{row.tr_rank}"
            f"\t{row.topic_focus:.4f}\t{row.tf_rank}"
            f"\t{row.overall_focus:.4f}\t{row.of_rank}"
        )
    return "\n".join(lines) + "\n"


def report_to_json(report: RankingReport) -> str:
    items = []
    for row in report.rows:
        items.append(
            "{"
            f'"user_id":{json.dumps(row.user_id, ensure_ascii=False)},'
            f'"relevant_count":{row.relevant_count},'
            f'"harvest_count":{row.harvest_count},'
            f'"total_count":{row.total_count},'
            f'"tr_score":{row.tr_score:.4f},'
            f'"tr_rank":{row.tr_rank},'
            f'"topic_focus":{row.topic_focus:.4f},'
            f'"tf_rank":{row.tf_rank},'
            f'"overall_focus":{row.overall_focus:.4f},'
            f'"of_rank":{row.of_rank}'
            "}"
        )
    return "[" + ",".join(items) + "]\n"


def write_report(report: RankingReport, out_dir: str | Path) -> list[Path]:
    """Write report_<metric>.tsv and .json into out_dir; returns the paths."""
    out = Path(out_dir)
    tsv = out / f"report_{report.metric}.tsv"
    js = out / f"report_{report.metric}.json"
    tsv.write_text(report_to_tsv(report), encoding="utf-8")
    js.write_text(report_to_json(report), encoding="utf-8")
    return [tsv, js]
