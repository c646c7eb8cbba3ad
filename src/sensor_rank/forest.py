"""Random forest of Gini decision trees over sparse count rows.

Trees split on "count(term) <= threshold" tests. Determinism: every random
draw comes from a generator seeded by (seed, tree index), and nodes are grown
in a fixed depth-first order, so a seed fully determines the forest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .classify import LabeledDataset

__all__ = ["TreeNode", "RfModel", "train_rf"]

_EYE3 = np.eye(3)


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

    def distribution(self, indices: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Mean leaf distribution for one sparse row; absent columns count as 0."""
        row = dict(zip(indices.tolist(), values.tolist()))
        acc = np.zeros(3)
        for root in self.trees:
            node = root
            while node.dist is None:
                value = row.get(node.feature, 0.0)
                node = node.left if value <= node.threshold else node.right
            acc += node.dist
        return acc / len(self.trees)


def _leaf(counts: np.ndarray) -> np.ndarray:
    return counts / counts.sum()


def _grow_tree(
    X: np.ndarray, y: np.ndarray, boot: np.ndarray, m: int, rng: np.random.Generator
) -> TreeNode:
    n_features = X.shape[1]
    root = TreeNode()
    stack: list[tuple[TreeNode, np.ndarray]] = [(root, boot)]
    while stack:
        node, idx = stack.pop()
        counts = np.bincount(y[idx], minlength=3).astype(float)
        if len(idx) < 2 or counts.max() == len(idx):
            node.dist = _leaf(counts)
            continue
        feats = np.sort(rng.choice(n_features, size=m, replace=False))
        sub = X[np.ix_(idx, feats)]
        order = np.argsort(sub, axis=0, kind="stable")
        svals = np.take_along_axis(sub, order, axis=0)
        cum = np.cumsum(_EYE3[y[idx]][order], axis=0)
        nn = len(idx)
        left_counts = cum[:-1]
        nl = np.arange(1, nn, dtype=float)[:, None]
        right_counts = counts[None, None, :] - left_counts
        # minimizing this is equivalent to minimizing weighted Gini impurity
        cost = -(left_counts**2).sum(axis=2) / nl - (right_counts**2).sum(axis=2) / (nn - nl)
        cost = np.where(svals[1:] > svals[:-1], cost, np.inf)
        by_feature = cost.T  # feature-major flat order fixes tie-breaking
        best = int(np.argmin(by_feature))
        if not np.isfinite(by_feature.flat[best]):
            node.dist = _leaf(counts)
            continue
        fj, pos = divmod(best, nn - 1)
        feature = int(feats[fj])
        threshold = float((svals[pos, fj] + svals[pos + 1, fj]) / 2.0)
        mask = X[idx, feature] <= threshold
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
    from .classify import _class_ids, _require_all_classes

    if n_trees < 1:
        raise ValueError(f"n_trees must be >= 1, got {n_trees}")
    if len(data) == 0:
        raise ValueError("cannot train on an empty dataset")
    _require_all_classes(data.labels)
    n = len(data)
    n_features = len(data.vocab)
    X = data.matrix.toarray()
    y = _class_ids(data.labels)
    m = min(n_features, math.ceil(math.sqrt(n_features)))
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        boot = rng.integers(0, n, size=n)
        trees.append(_grow_tree(X, y, boot, m, rng))
    return RfModel(tuple(trees), n_trees, m, seed)
