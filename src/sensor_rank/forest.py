"""Random forest of Gini decision trees over sparse count rows.

Trees split on "count(term) <= threshold" tests. Determinism: every random
draw comes from a generator seeded by (seed, tree index), and nodes are grown
in a fixed depth-first order, so a seed fully determines the forest.

Growth and prediction read the count matrix's nonzeros only; no step builds a
rows x vocabulary array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .corpus import require_all_classes
from .text import CountMatrix

if TYPE_CHECKING:
    from .classify import LabeledDataset

__all__ = ["TreeNode", "RfModel", "train_rf", "predict_proba"]


@dataclass
class TreeNode:
    """Internal node (feature/threshold/left/right) or leaf (dist set)."""

    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    dist: np.ndarray | None = None


@dataclass(frozen=True)
class RfModel:
    """Bagged trees; class axes follow LABEL_ORDER."""

    trees: tuple[TreeNode, ...]
    n_trees: int
    feature_subsample: int
    seed: int


def _columns(X: CountMatrix) -> CountMatrix:
    """X transposed: row c lists the rows with a nonzero in column c, ascending.

    Where a row lists a column twice, its later entry counts.
    """
    order = np.argsort(X.indices, kind="stable")
    cols = X.indices[order]
    rows = np.repeat(np.arange(len(X)), np.diff(X.indptr))[order]
    vals = X.data[order]
    keep = np.append((cols[1:] != cols[:-1]) | (rows[1:] != rows[:-1]), True) & (vals != 0)
    ptr = np.zeros(X.n_cols + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols[keep], minlength=X.n_cols), out=ptr[1:])
    return CountMatrix(ptr, rows[keep], vals[keep], len(X))


def _leaf(counts: np.ndarray) -> np.ndarray:
    return counts / counts.sum()


def _best_split(
    columns: CountMatrix, y: np.ndarray, idx: np.ndarray, counts: np.ndarray,
    feats: np.ndarray, weight: np.ndarray,
) -> tuple[int, float] | None:
    """The (feature, threshold) of least Gini cost over feats, or None.

    Each feature's in-node rows are its nonzeros plus one block at value 0
    for the rest. Boundaries between distinct values are scored in
    (feature, value) order, so the first minimum has the lowest feature id,
    then the lowest threshold. weight is an all-zero scratch array, one slot
    per row, and is all-zero again on return.
    """
    np.add.at(weight, idx, 1)  # bootstrap multiplicity of each row in the node
    sub = columns.rows(feats)
    m = len(feats)
    w = weight[sub.indices]
    weight[idx] = 0
    inside = w > 0
    slot = np.repeat(np.arange(m), np.diff(sub.indptr))[inside]
    vals, w, cls = sub.data[inside], w[inside], y[sub.indices[inside]]
    # class counts are integers, so every sum below is exact in floats
    per_entry = np.zeros((len(w), 3))
    per_entry[np.arange(len(w)), cls] = w
    nonzero = np.bincount(slot * 3 + cls, weights=w, minlength=3 * m).reshape(m, 3)
    zeros = counts - nonzero
    has_zeros = np.flatnonzero(zeros.sum(axis=1) > 0)
    slot = np.concatenate([slot, has_zeros])
    vals = np.concatenate([vals, np.zeros(len(has_zeros))])
    per_entry = np.concatenate([per_entry, zeros[has_zeros]])
    order = np.lexsort((vals, slot))
    slot, vals, per_entry = slot[order], vals[order], per_entry[order]
    cut = np.flatnonzero((slot[1:] == slot[:-1]) & (vals[1:] > vals[:-1]))
    if len(cut) == 0:
        return None
    cum = np.cumsum(per_entry, axis=0)
    first = np.searchsorted(slot, slot[cut])  # first entry of each cut's feature
    left = cum[cut] - cum[first] + per_entry[first]
    right = counts - left
    nn = len(idx)
    nl = left.sum(axis=1)
    # minimizing this is equivalent to minimizing weighted Gini impurity
    cost = -(left**2).sum(axis=1) / nl - (right**2).sum(axis=1) / (nn - nl)
    p = cut[int(np.argmin(cost))]
    return int(feats[slot[p]]), float((vals[p] + vals[p + 1]) / 2.0)


def _grow_tree(
    columns: CountMatrix, y: np.ndarray, boot: np.ndarray, m: int, rng: np.random.Generator
) -> TreeNode:
    """One tree over the transposed design matrix (see _columns)."""
    n_features = len(columns)
    # all-zero scratch arrays, one slot per row
    weight = np.zeros(len(y), dtype=np.int64)
    value = np.zeros(len(y))
    root = TreeNode()
    stack: list[tuple[TreeNode, np.ndarray]] = [(root, boot)]
    while stack:
        node, idx = stack.pop()
        counts = np.bincount(y[idx], minlength=3).astype(float)
        if len(idx) < 2 or counts.max() == len(idx):
            node.dist = _leaf(counts)
            continue
        feats = np.sort(rng.choice(n_features, size=m, replace=False))
        split = _best_split(columns, y, idx, counts, feats, weight)
        if split is None:
            node.dist = _leaf(counts)
            continue
        feature, threshold = split
        rows, vals = columns.row(feature)
        value[rows] = vals
        mask = value[idx] <= threshold
        value[rows] = 0.0
        left_idx, right_idx = idx[mask], idx[~mask]
        if len(left_idx) == 0 or len(right_idx) == 0:
            node.dist = _leaf(counts)
            continue
        node.feature = feature
        node.threshold = threshold
        node.left = TreeNode()
        node.right = TreeNode()
        stack.append((node.right, right_idx))
        stack.append((node.left, left_idx))
    return root


def train_rf(data: "LabeledDataset", n_trees: int, seed: int) -> RfModel:
    """Fit n_trees bagged Gini trees, each on a size-n bootstrap resample.

    At every node, ceil(sqrt(vocab_size)) candidate features are sampled; the
    best (feature, threshold) pair by impurity decrease wins, with ties going
    to the lowest feature id and then the lowest threshold.
    """
    if n_trees < 1:
        raise ValueError(f"n_trees must be >= 1, got {n_trees}")
    if len(data) == 0:
        raise ValueError("cannot train on an empty dataset")
    require_all_classes(data.y)
    n = len(data)
    n_features = len(data.vocab)
    columns = _columns(data.matrix)
    m = min(n_features, math.ceil(math.sqrt(n_features)))
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        boot = rng.integers(0, n, size=n)
        trees.append(_grow_tree(columns, data.y, boot, m, rng))
    return RfModel(tuple(trees), n_trees, m, seed)


def predict_proba(model: RfModel, X: CountMatrix) -> np.ndarray:
    """Mean leaf distribution of every row, shape (rows, 3).

    All rows descend each tree together, split by split; a cell a row does not
    list counts as 0. Every row adds its leaf distributions in tree order, and
    the sum is then divided by the tree count.
    """
    n = len(X)
    width = max([X.n_cols] + [_max_feature(root) + 1 for root in model.trees])
    columns = _columns(CountMatrix(X.indptr, X.indices, X.data, width))
    value = np.zeros(n)  # all-zero scratch, one slot per row
    acc = np.zeros((n, 3))
    for root in model.trees:
        stack = [(root, np.arange(n))]
        while stack:
            node, idx = stack.pop()
            if node.dist is not None:
                acc[idx] += node.dist
            elif len(idx):
                rows, vals = columns.row(node.feature)
                value[rows] = vals
                mask = value[idx] <= node.threshold
                value[rows] = 0.0
                stack += [(node.right, idx[~mask]), (node.left, idx[mask])]
    return acc / len(model.trees)


def _max_feature(node: TreeNode) -> int:
    if node.dist is not None:
        return -1
    return max(node.feature, _max_feature(node.left), _max_feature(node.right))
