"""Random forest of Gini decision trees over sparse count rows.

Trees split on "count(term) <= threshold" tests. Determinism: every random
draw comes from a generator seeded by (seed, tree index), and nodes are grown
in a fixed depth-first order, so a seed fully determines the forest.

Growth and prediction read the count matrix's nonzeros only; no step builds a
rows x vocabulary array.

`train_rf` grows its trees on one process per core it may run on (see
`corpus._in_processes`), forked once the column copy is built, so they inherit
it and nothing is pickled into them. Each process hands its trees back as flat
preorder lists, which pickle at any depth, and they are kept in tree order, so
the model is the same for any process count. Those lists are the model: the
model file holds them as they are, and prediction routes rows by node index.
The children call no BLAS routine, so the idle BLAS threads a forked parent
holds are never used.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import corpus
from .corpus import has_shape, require_all_classes
from .text import CountMatrix, spans

if TYPE_CHECKING:
    from .classify import LabeledDataset

__all__ = ["TreeNode", "RfModel", "train_rf", "predict_proba"]

log = logging.getLogger(__name__)


@dataclass
class TreeNode:
    """Internal node (feature/threshold/left/right) or leaf (dist set) of RfModel.trees."""

    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    dist: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class RfModel:
    """Bagged trees; class axes follow LABEL_ORDER.

    Each tree is four lists in preorder, as growth and the model file give them:
    feature (-1 at a leaf), threshold (0.0 at a leaf), right (node i's right
    child, -1 at a leaf; its left child is node i + 1) and leaf, a (leaves, 3)
    array of class distributions.
    """

    flat_trees: tuple[tuple[list, list, list, np.ndarray], ...]
    feature_subsample: int
    seed: int

    @cached_property
    def trees(self) -> tuple[TreeNode, ...]:
        """Each tree's root as linked TreeNodes, built the first time it is read.
        Training, saving, loading and prediction never read it; perfbench's
        tracer and the tests' oracles walk it."""
        roots = []
        for feature, threshold, right, leaf in self.flat_trees:
            nodes, leaves = [None] * len(feature), len(leaf)
            for i in reversed(range(len(feature))):  # children before parents
                if feature[i] == -1:
                    leaves -= 1
                    nodes[i] = TreeNode(dist=leaf[leaves])
                else:
                    nodes[i] = TreeNode(feature[i], threshold[i], nodes[i + 1], nodes[right[i]])
            roots.append(nodes[0])
        return tuple(roots)

    def params(self) -> dict:
        """The model file's parameters: a header, then each tree's lists."""
        trees = [{"feature": feature, "threshold": threshold, "right": right, "leaf": leaf.tolist()}
                 for feature, threshold, right, leaf in self.flat_trees]
        return {"n_trees": len(trees), "feature_subsample": self.feature_subsample,
                "seed": self.seed, "trees": trees}

    @classmethod
    def from_params(cls, params: dict, n_features: int) -> "RfModel":
        """The forest that params() wrote, each feature below n_features. A malformed
        value raises KeyError, TypeError or ValueError."""
        trees = params["trees"]
        if type(trees) is not list or not trees:
            raise ValueError("'trees' must be a non-empty list")
        header = {key: params[key] for key in ("n_trees", "feature_subsample", "seed")}
        for key, value in header.items():
            if not has_shape(value, int):
                raise ValueError(f"{key!r} must be an integer, got {value!r}")
        if header["n_trees"] != len(trees):
            raise ValueError(f"'n_trees' is {header['n_trees']}, but {len(trees)} trees follow")
        trees = tuple(_read_tree(tree, n_features) for tree in trees)
        return cls(trees, header["feature_subsample"], header["seed"])


# the lists of a tree in the model file, each with its JSON shape and its wording in errors
_TREE_LISTS = {"feature": ([int], "integers"), "threshold": ([float], "finite reals"),
               "right": ([int], "integers"), "leaf": ([(float,) * 3], "rows of 3 finite reals")}


def _read_tree(tree: object, n_features: int) -> tuple[list, list, list, np.ndarray]:
    """The lists of a tree that params() wrote, each feature below n_features.

    A ValueError rejects lists that are not one tree over all their nodes and
    leaf rows: node i's right child must be the node where its left child's
    subtree, which starts at node i + 1, ends.
    """
    if type(tree) is not dict:
        raise ValueError(f"a tree must be an object, got {type(tree).__name__}")
    for key, (shape, kind) in _TREE_LISTS.items():
        if not has_shape(tree[key], shape):
            raise ValueError(f"a tree's {key!r} must be a list of {kind}")
    feature, threshold, right, leaf = (tree[key] for key in _TREE_LISTS)
    n, leaves = len(feature), feature.count(-1)
    if not n == len(threshold) == len(right):
        raise ValueError(f"a tree lists {n} features, {len(threshold)} thresholds "
                         f"and {len(right)} right children")
    if feature and not -1 <= min(feature) <= max(feature) < n_features:
        raise ValueError(f"a tree's features must lie in [-1, {n_features}), "
                         f"got {min(feature)}..{max(feature)}")
    if not n:
        raise ValueError("a tree has no nodes")
    if leaves != len(leaf):
        raise ValueError(f"a tree has {leaves} leaves but {len(leaf)} leaf rows")
    end = [0] * n + [n]  # the node after each node's subtree; node n is past the tree
    for i in reversed(range(n)):  # children before parents
        if feature[i] == -1:
            r, end[i] = -1, i + 1
        else:
            r = end[i + 1]
            if r == n:
                raise ValueError(f"split node {i} lacks a child")
            end[i] = end[r]
        if right[i] != r:
            raise ValueError(f"node {i}'s right child must be {r}, got {right[i]}")
    if end[0] != n:
        raise ValueError(f"node 0's subtree holds {end[0]} of the tree's {n} nodes")
    threshold = [0.0 if f == -1 else float(t) for f, t in zip(feature, threshold)]
    return feature, threshold, right, np.array(leaf, dtype=float)


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
    at = spans(lo, length)  # every entry of the m columns
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
) -> tuple[tuple[list, list, list, np.ndarray], int]:
    """One tree over the transposed design matrix (see CountMatrix.columns) and a
    bootstrap, as RfModel holds it, and the depth of its deepest leaf.

    Each row carries its node's label (-1 outside the bootstrap) and counts as
    often as the bootstrap drew it. A split relabels the rows _split returns.
    Nodes are grown depth first, left child first, so they come in preorder.
    """
    n_features = len(columns)
    mult = np.bincount(boot, minlength=len(y))
    labels = np.where(mult > 0, 0, -1)
    nodes, right, leaf = [], [], []  # (feature, threshold) of each node; its right child
    # (the node whose right child this is, or -1; label; class counts; depth)
    stack = [(-1, 0, np.bincount(y, weights=mult, minlength=3), 0)]
    new = deepest = 0
    while stack:
        parent, label, counts, depth = stack.pop()
        if parent >= 0:
            right[parent] = len(nodes)
        right.append(-1)
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
            nodes.append((-1, 0.0))
            leaf.append(counts / nn)
            deepest = max(deepest, depth)
            continue
        new += 1
        labels[rows] = new
        nodes.append(split)
        sides = (label, counts - moved), (new, moved)  # kept, relabeled
        to_left, to_right = sides if split[1] >= 0 else sides[::-1]
        stack += [(len(nodes) - 1, *to_right, depth + 1), (-1, *to_left, depth + 1)]
    feature, threshold = map(list, zip(*nodes))
    return (feature, threshold, right, np.array(leaf)), deepest


def train_rf(data: "LabeledDataset", n_trees: int, seed: int) -> RfModel:
    """Fit n_trees bagged Gini trees, each on a size-n bootstrap resample.

    At every node, ceil(sqrt(vocab_size)) candidate features are sampled; the
    best (feature, threshold) pair by impurity decrease wins, with ties going
    to the lowest feature id and then the lowest threshold. Tree t draws from
    default_rng([seed, t]) alone, so the processes that grow the trees (see
    corpus._in_processes) do not change the forest.
    """
    if n_trees < 1:
        raise ValueError(f"n_trees must be >= 1, got {n_trees}")
    if len(data) == 0:
        raise ValueError("cannot train on an empty dataset")
    require_all_classes(data.y)
    n = len(data)
    n_features = len(data.vocab)
    columns = data.matrix.columns()
    m = min(n_features, math.ceil(math.sqrt(n_features)))

    def grow(t: int) -> tuple[tuple[list, list, list, np.ndarray], int]:
        """Tree t and its deepest leaf's depth."""
        rng = np.random.default_rng([seed, t])
        boot = rng.integers(0, n, size=n)
        return _grow_tree(columns, data.y, boot, m, rng)

    trees, depths = zip(*corpus._in_processes(grow, n_trees, "tree-growing", "tree"))
    log.info(
        "train_rf: %d trees, %d nodes, deepest leaf at depth %d; %d processes",
        n_trees, sum(len(tree[0]) for tree in trees), max(depths), corpus._jobs(n_trees),
    )
    return RfModel(trees, m, seed)


def predict_proba(model: RfModel, X: CountMatrix) -> np.ndarray:
    """Mean leaf distribution of every row, shape (rows, 3).

    All rows descend each tree together, relabeled split by split as in
    growth; a cell a row does not list, or a feature at or past X's width,
    counts as 0. Every row adds its leaf distributions in tree order, and the
    sum is then divided by the tree count.
    """
    n = len(X)
    # one extra, empty column stands for every feature at or past X's width
    columns = CountMatrix(X.indptr, X.indices, X.data, X.n_cols + 1).columns()
    acc = np.zeros((n, 3))
    for feature, threshold, right, leaf in model.flat_trees:
        labels = np.zeros(n, dtype=np.int64)
        leaf_of = {}  # label -> the row of leaf its rows end in
        # (node, the leaves before it in preorder, its label, rows that carry it)
        stack = [(0, 0, 0, n)]
        new = 0
        while stack:
            i, before, label, count = stack.pop()
            f = feature[i]
            if f == -1:
                leaf_of[label] = before
            elif count:  # a subtree that no row reaches is skipped
                new += 1
                t, r = threshold[i], right[i]
                rows = _split(columns, labels, label, min(f, X.n_cols), t)
                labels[rows] = new
                # the left subtree, nodes i + 1 to r - 1, holds (r - i) / 2 leaves
                to_left, to_right = (i + 1, before), (r, before + (r - i) // 2)
                kept, moved = (to_left, to_right) if t >= 0 else (to_right, to_left)
                stack += [(*kept, label, count - len(rows)), (*moved, new, len(rows))]
        # a label no leaf took is carried by no row
        acc += leaf[np.array([leaf_of.get(label, 0) for label in range(new + 1)])][labels]
    return acc / len(model.flat_trees)
