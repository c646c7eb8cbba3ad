"""Independent numeric oracles for the tests.

Written from scratch on purpose (pure-Python elimination, exact rationals),
so the tests never validate the main code against itself.
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter
from fractions import Fraction

import numpy as np

from sensor_rank.classify import EvalReport
from sensor_rank.corpus import LABEL_ORDER, FollowerGraph, Label
from sensor_rank.forest import TreeNode
from sensor_rank.rank import TransitionMatrix, UserStats
from sensor_rank.text import (
    _EMOTICON_RE,
    _IMAGE_RE,
    _LAUGHTER_RE,
    _TOKEN_RE,
    _URL_RE,
    DROP,
    CountMatrix,
    ReplacementTable,
    Vocabulary,
    ngrams,
)


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


def oracle_grow_tree(
    X: np.ndarray, y: np.ndarray, boot: np.ndarray, m: int, rng: np.random.Generator
) -> TreeNode:
    """One Gini tree grown over a dense design matrix, every split by brute force.

    At each node the m sampled columns of the node's rows (bootstrap repeats
    included) are sorted and every prefix is scored; the first minimum in
    feature-major order wins. Draws from rng in the same sequence as the
    forest's own grower.
    """
    eye3 = np.eye(3)
    n_features = X.shape[1]
    root = TreeNode()
    stack: list[tuple[TreeNode, np.ndarray]] = [(root, boot)]
    while stack:
        node, idx = stack.pop()
        counts = np.bincount(y[idx], minlength=3).astype(float)
        if len(idx) < 2 or counts.max() == len(idx):
            node.dist = counts / counts.sum()
            continue
        feats = np.sort(rng.choice(n_features, size=m, replace=False))
        sub = X[np.ix_(idx, feats)]
        order = np.argsort(sub, axis=0, kind="stable")
        svals = np.take_along_axis(sub, order, axis=0)
        cum = np.cumsum(eye3[y[idx]][order], axis=0)
        nn = len(idx)
        left_counts = cum[:-1]
        nl = np.arange(1, nn, dtype=float)[:, None]
        right_counts = counts[None, None, :] - left_counts
        cost = -(left_counts**2).sum(axis=2) / nl - (right_counts**2).sum(axis=2) / (nn - nl)
        cost = np.where(svals[1:] > svals[:-1], cost, np.inf)
        by_feature = cost.T
        best = int(np.argmin(by_feature))
        if not np.isfinite(by_feature.flat[best]):
            node.dist = counts / counts.sum()
            continue
        fj, pos = divmod(best, nn - 1)
        feature = int(feats[fj])
        threshold = float((svals[pos, fj] + svals[pos + 1, fj]) / 2.0)
        mask = X[idx, feature] <= threshold
        left_idx, right_idx = idx[mask], idx[~mask]
        if len(left_idx) == 0 or len(right_idx) == 0:
            node.dist = counts / counts.sum()
            continue
        node.feature = feature
        node.threshold = threshold
        node.left = TreeNode()
        node.right = TreeNode()
        stack.append((node.right, right_idx))
        stack.append((node.left, left_idx))
    return root


def oracle_forest_proba(model, X) -> np.ndarray:
    """Every row walked down every tree on its own, the leaf distributions summed.

    A row's cells come from a dict of its entries, so a repeated column keeps
    its later value and an absent one reads 0.
    """
    out = np.zeros((len(X), 3))
    for i in range(len(X)):
        cols, vals = X.row(i)
        row = dict(zip(cols.tolist(), vals.tolist()))
        acc = np.zeros(3)
        for root in model.trees:
            node = root
            while node.dist is None:
                node = node.left if row.get(node.feature, 0.0) <= node.threshold else node.right
            acc += node.dist
        out[i] = acc / len(model.trees)
    return out


def oracle_evaluate(probs: np.ndarray, y: np.ndarray) -> EvalReport:
    """Held-out scores tallied one row and one class at a time.

    Each row's prediction is its first most probable class, and its squared
    errors are added to one running float in class order.
    """
    n = len(y)
    confusion = np.zeros((3, 3), dtype=int)
    sq_err = 0.0
    for row, gold in zip(probs.tolist(), y.tolist()):
        pred = max(range(3), key=lambda j: row[j])
        confusion[gold, pred] += 1
        for j in range(3):
            target = 1.0 if j == gold else 0.0
            sq_err += (row[j] - target) ** 2
    accuracy = float(np.trace(confusion)) / n
    per_class: dict[Label, tuple[float, float, float]] = {}
    weighted_f = 0.0
    for i, label in enumerate(LABEL_ORDER):
        tp = confusion[i, i]
        col = confusion[:, i].sum()
        row_total = confusion[i, :].sum()
        precision = tp / col if col else 0.0
        recall = tp / row_total if row_total else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[label] = (float(precision), float(recall), float(f1))
        weighted_f += (row_total / n) * f1
    rmse = math.sqrt(sq_err / (n * 3))
    return EvalReport(accuracy, per_class, float(weighted_f), rmse, confusion)


def oracle_smote(
    rows: list[dict[int, float]], n_cols: int, percent: int, k: int, seed: int
) -> list[dict[int, float]]:
    """SMOTE by brute force: every pairwise distance, neighbors by (distance, index).

    Draws from the same generator sequence as `classify.smote`, one neighbor
    pick and one position per synthetic row, and returns the synthetic rows
    as {column: value} dicts in ascending column order.
    """
    dense = np.zeros((len(rows), n_cols))
    for i, row in enumerate(rows):
        for col, value in row.items():
            dense[i, col] = value
    neighbors = []
    for i in range(len(rows)):
        d2 = ((dense - dense[i]) ** 2).sum(axis=1).tolist()
        ranked = sorted((d, j) for j, d in enumerate(d2) if j != i)
        neighbors.append([j for _, j in ranked[:k]])
    rng = np.random.default_rng([seed, len(rows), k])
    out = []
    for _ in range(percent // 100):
        for i in range(len(rows)):
            j = neighbors[i][int(rng.integers(k))]
            point = dense[i] + rng.random() * (dense[j] - dense[i])
            out.append({int(c): float(point[c]) for c in np.flatnonzero(point)})
    return out


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


def oracle_fold_accents(s: str) -> str:
    """NFD, then every character that is not a combining mark, one at a time."""
    return "".join(c for c in unicodedata.normalize("NFD", s) if not unicodedata.combining(c))


def oracle_normalize(text: str, table: ReplacementTable) -> list[str]:
    """Every regex pass on every text and every rule on every token occurrence."""
    s = oracle_fold_accents(text.lower())
    s = _IMAGE_RE.sub(" image ", s)
    s = _URL_RE.sub(" url ", s)
    s = _EMOTICON_RE.sub(" ", s)
    out: list[str] = []
    for tok in _TOKEN_RE.findall(s):
        if tok.isdigit():
            tok = "number"
        elif _LAUGHTER_RE.match(tok):
            tok = "funny"
        tok = table.exact_map.get(tok, tok)
        if tok != DROP:
            out.append(tok)
    return out


def oracle_count_ngrams(
    texts: list[str], table: ReplacementTable, n_max: int = 1, vocab: Vocabulary | None = None
) -> tuple[Vocabulary, CountMatrix]:
    """One Counter of joined n-gram strings per text, its items taken in insertion order."""
    grow = vocab is None
    if grow:
        vocab = Vocabulary({}, n_max)
    term_to_id = vocab.term_to_id
    indptr = [0]
    indices: list[int] = []
    data: list[int] = []
    for text in texts:
        for gram, count in Counter(ngrams(oracle_normalize(text, table), vocab.n_max)).items():
            tid = term_to_id.setdefault(gram, len(term_to_id)) if grow else term_to_id.get(gram)
            if tid is not None:
                indices.append(tid)
                data.append(count)
        indptr.append(len(indices))
    matrix = CountMatrix(
        np.array(indptr, dtype=np.int64),
        np.array(indices, dtype=np.int64),
        np.array(data, dtype=float),
        len(vocab),
    )
    return vocab, matrix
