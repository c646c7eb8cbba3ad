"""Independent numeric oracles for the tests.

Written from scratch on purpose (pure-Python elimination, exact rationals),
so the tests never validate the main code against itself.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from sensor_rank.corpus import LABEL_ORDER, FollowerGraph, Label
from sensor_rank.rank import TransitionMatrix, UserStats


def oracle_transition(
    candidates: list[UserStats], graph: FollowerGraph
) -> TransitionMatrix:
    """The transition weights built one candidate and one friend at a time.

    Walks candidates in list order and each one's friends in name order, so
    for candidates sorted by user_id the entries come out in (follower index,
    friend index) order.
    """
    index = {u.user_id: i for i, u in enumerate(candidates)}
    friends_of: dict[str, list[str]] = {}
    for follower, friend in sorted(graph.edges):
        friends_of.setdefault(follower, []).append(friend)
    r = np.array([u.relevant_count for u in candidates], dtype=float)
    v = np.array([u.v for u in candidates])
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for u in candidates:
        i = index[u.user_id]
        friends = [index[f] for f in friends_of.get(u.user_id, ()) if f in index]
        if not friends:
            continue
        denom = r[friends].sum()
        for j in friends:
            sim = 1.0 - abs(v[i] - v[j])
            rows.append(i)
            cols.append(j)
            vals.append(float(r[j] / denom * sim))
    return TransitionMatrix(
        index,
        np.array(rows, dtype=int),
        np.array(cols, dtype=int),
        np.array(vals, dtype=float),
    )


def oracle_linear_solve(
    P: TransitionMatrix, E: np.ndarray, gamma: float
) -> np.ndarray:
    """Solve (I - gamma*P^T) x = (1-gamma) E directly; the ranking ground truth.

    Plain Gaussian elimination with partial pivoting over Python floats, kept
    independent of the iterative ranking code on purpose. Dense, so only
    sensible for small instances (n <= 64).
    """
    n = P.n
    if n > 64:
        raise ValueError(f"dense oracle limited to 64 candidates, got {n}")
    if len(E) != n:
        raise ValueError(f"E has length {len(E)}, expected {n}")
    aug = [[0.0] * (n + 1) for _ in range(n)]
    for i in range(n):
        aug[i][i] = 1.0
        aug[i][n] = (1.0 - gamma) * float(E[i])
    for i, j, val in zip(P.rows, P.cols, P.vals):
        aug[int(j)][int(i)] -= gamma * float(val)
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if abs(aug[pivot][col]) < 1e-300:
            raise ValueError("singular system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for row in range(col + 1, n):
            factor = aug[row][col] / aug[col][col]
            if factor == 0.0:
                continue
            for k in range(col, n + 1):
                aug[row][k] -= factor * aug[col][k]
    x = [0.0] * n
    for row in range(n - 1, -1, -1):
        acc = aug[row][n]
        for k in range(row + 1, n):
            acc -= aug[row][k] * x[k]
        x[row] = acc / aug[row][row]
    return np.array(x)


def oracle_nb_posterior(
    vectors: list[dict[int, int]],
    labels: list[Label],
    vocab_size: int,
    alpha: float,
    query: dict[int, int],
) -> dict[Label, float]:
    """Exact-rational smoothed posterior for a query over a tiny dataset.

    Enumerates counts directly with Fraction arithmetic, then converts the
    normalized posterior to floats. alpha must be exactly representable
    (integers and binary fractions are).
    """
    frac_alpha = Fraction(alpha)
    n = len(labels)
    posteriors: dict[Label, Fraction] = {}
    for label in LABEL_ORDER:
        members = [vec for vec, y in zip(vectors, labels) if y == label]
        prior = Fraction(len(members), n)
        if prior == 0:
            posteriors[label] = Fraction(0)
            continue
        term_counts: dict[int, int] = {}
        total = 0
        for vec in members:
            for tid, cnt in vec.items():
                term_counts[tid] = term_counts.get(tid, 0) + cnt
                total += cnt
        value = prior
        denom = Fraction(total) + frac_alpha * vocab_size
        for tid, cnt in query.items():
            p = (Fraction(term_counts.get(tid, 0)) + frac_alpha) / denom
            value *= p**cnt
        posteriors[label] = value
    norm = sum(posteriors.values())
    if norm == 0:
        raise ValueError("posterior mass is zero; empty dataset?")
    return {label: float(value / norm) for label, value in posteriors.items()}
