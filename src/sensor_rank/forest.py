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

from .corpus import has_shape, require_all_classes
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


def _tree_to_obj(node: TreeNode) -> dict:
    if node.dist is not None:
        return {"leaf": node.dist.tolist()}
    return {"feature": int(node.feature), "threshold": float(node.threshold),
            "left": _tree_to_obj(node.left), "right": _tree_to_obj(node.right)}


def _tree_from_obj(obj: dict, n_features: int) -> TreeNode:
    """A tree from its file form: a leaf holds 3 finite reals, an internal node
    a feature id below n_features and a finite threshold."""
    if "leaf" in obj:
        leaf = obj["leaf"]
        if not has_shape(leaf, (float, float, float)):
            raise ValueError(f"tree leaf must be 3 finite reals, got {leaf!r}")
        return TreeNode(dist=np.array(leaf, dtype=float))
    feature, threshold = obj["feature"], obj["threshold"]
    if not has_shape(feature, int) or not 0 <= feature < n_features:
        raise ValueError(f"tree feature must be an integer in [0, {n_features}), got {feature!r}")
    if not has_shape(threshold, float):
        raise ValueError(f"tree threshold must be a finite real, got {threshold!r}")
    return TreeNode(feature, float(threshold), _tree_from_obj(obj["left"], n_features),
                    _tree_from_obj(obj["right"], n_features))


@dataclass(frozen=True)
class RfModel:
    """Bagged trees; class axes follow LABEL_ORDER."""

    trees: tuple[TreeNode, ...]
    feature_subsample: int
    seed: int

    def params(self) -> dict:
        """The model file's parameters: a header, then each tree as nested objects."""
        return {"n_trees": len(self.trees), "feature_subsample": self.feature_subsample,
                "seed": self.seed, "trees": [_tree_to_obj(t) for t in self.trees]}

    @classmethod
    def from_params(cls, params: dict, n_features: int) -> "RfModel":
        """The forest that params() wrote, each feature below n_features. A malformed
        value raises KeyError, TypeError, ValueError or RecursionError."""
        trees = params["trees"]
        if not trees:
            raise ValueError("'trees' is empty")
        header = {key: params[key] for key in ("n_trees", "feature_subsample", "seed")}
        for key, value in header.items():
            if not has_shape(value, int):
                raise ValueError(f"{key!r} must be an integer, got {value!r}")
        if header["n_trees"] != len(trees):
            raise ValueError(f"'n_trees' is {header['n_trees']}, but {len(trees)} trees follow")
        trees = tuple(_tree_from_obj(t, n_features) for t in trees)
        return cls(trees, header["feature_subsample"], header["seed"])


def _columns(X: CountMatrix) -> CountMatrix:
    """X transposed: row c lists the rows with a nonzero in column c, ascending.

    Where a row lists a column twice, its later entry counts.
    """
    order = np.argsort(X.indices, kind="stable")
    cols = X.indices[order]
    rows = X.row_ids()[order]
    vals = X.data[order]
    keep = np.append((cols[1:] != cols[:-1]) | (rows[1:] != rows[:-1]), True) & (vals != 0)
    ptr = np.zeros(X.n_cols + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols[keep], minlength=X.n_cols), out=ptr[1:])
    return CountMatrix(ptr, rows[keep], vals[keep], len(X))


def _best_split(
    columns: CountMatrix, y: np.ndarray, labels: np.ndarray, label: int, mult: np.ndarray,
    counts: np.ndarray, feats: np.ndarray,
) -> tuple[int, float] | None:
    """The (feature, threshold) of least Gini cost over feats, or None.

    The node holds the rows labelled label, row r mult[r] times. Each feature's
    in-node rows are its nonzeros plus one block at value 0 for the rest.
    Boundaries between distinct values are scored in (feature, value) order,
    so the first minimum has the lowest feature id, then the lowest threshold.
    """
    m = len(feats)
    lo, length = columns.indptr[feats], columns.indptr[feats + 1] - columns.indptr[feats]
    # position of every entry of the m columns in columns' arrays
    at = np.repeat(lo - (np.cumsum(length) - length), length) + np.arange(length.sum())
    slot = np.repeat(np.arange(m), length)
    rows = columns.indices[at]
    inside = labels[rows] == label
    at, rows, slot = at[inside], rows[inside], slot[inside]
    w, vals, cls = mult[rows], columns.data[at], y[rows]
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
    nn = counts.sum()
    nl = left.sum(axis=1)
    # minimizing this is equivalent to minimizing weighted Gini impurity
    cost = -(left**2).sum(axis=1) / nl - (right**2).sum(axis=1) / (nn - nl)
    p = cut[int(np.argmin(cost))]
    return int(feats[slot[p]]), float((vals[p] + vals[p + 1]) / 2.0)


def _split(
    columns: CountMatrix, labels: np.ndarray, label: int, feature: int, threshold: float
) -> np.ndarray:
    """The rows labelled label that "value <= threshold" sends to the side without
    value 0: right (value > threshold) when threshold >= 0, else left. NaN goes right."""
    rows, vals = columns.row(feature)
    inside = labels[rows] == label
    return rows[inside][(vals[inside] <= threshold) != (threshold >= 0)]


def _grow_tree(
    columns: CountMatrix, y: np.ndarray, boot: np.ndarray, m: int, rng: np.random.Generator
) -> TreeNode:
    """One tree over the transposed design matrix (see _columns) and a bootstrap.

    Each row carries its node's label (-1 outside the bootstrap) and counts as
    often as the bootstrap drew it. A split relabels the rows _split returns.
    """
    n_features = len(columns)
    mult = np.bincount(boot, minlength=len(y))
    labels = np.where(mult > 0, 0, -1)
    root = TreeNode()
    stack = [(root, 0, np.bincount(y, weights=mult, minlength=3))]
    new = 0
    while stack:
        node, label, counts = stack.pop()
        nn = counts.sum()
        split = None
        if nn >= 2 and counts.max() < nn:
            feats = np.sort(rng.choice(n_features, size=m, replace=False))
            split = _best_split(columns, y, labels, label, mult, counts, feats)
        if split is not None:
            rows = _split(columns, labels, label, *split)
            # integer sums, so the kept side's counts are exact
            moved = np.bincount(y[rows], weights=mult[rows], minlength=3)
        if split is None or not 0 < moved.sum() < nn:
            node.dist = counts / nn
            continue
        new += 1
        labels[rows] = new
        node.feature, node.threshold = split
        node.left, node.right = TreeNode(), TreeNode()
        sides = (label, counts - moved), (new, moved)  # kept, relabeled
        left, right = sides if node.threshold >= 0 else sides[::-1]
        stack += [(node.right, *right), (node.left, *left)]
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
    return RfModel(tuple(trees), m, seed)


def predict_proba(model: RfModel, X: CountMatrix) -> np.ndarray:
    """Mean leaf distribution of every row, shape (rows, 3).

    All rows descend each tree together, relabeled split by split as in
    growth; a cell a row does not list, or a feature at or past X's width,
    counts as 0. Every row adds its leaf distributions in tree order, and the
    sum is then divided by the tree count.
    """
    n = len(X)
    # one extra, empty column stands for every feature at or past X's width
    columns = _columns(CountMatrix(X.indptr, X.indices, X.data, X.n_cols + 1))
    acc = np.zeros((n, 3))
    for root in model.trees:
        labels = np.zeros(n, dtype=np.int64)
        dist_of = {}
        stack = [(root, 0, n)]  # (node, its label, rows that carry it)
        new = 0
        while stack:
            node, label, count = stack.pop()
            if node.dist is not None:
                dist_of[label] = node.dist
            elif count:  # a subtree that no row reaches is skipped
                new += 1
                rows = _split(columns, labels, label, min(node.feature, X.n_cols), node.threshold)
                labels[rows] = new
                kept, moved = (node.left, node.right) if node.threshold >= 0 else (node.right, node.left)
                stack += [(kept, label, count - len(rows)), (moved, new, len(rows))]
        acc += np.array([dist_of.get(label, np.zeros(3)) for label in range(new + 1)])[labels]
    return acc / len(model.trees)
