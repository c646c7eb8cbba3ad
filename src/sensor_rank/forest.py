"""Random forest of Gini decision trees over sparse count rows.

Trees split on "count(term) <= threshold" tests. Determinism: every random
draw comes from a generator seeded by (seed, tree index), and nodes are grown
in a fixed depth-first order, so a seed fully determines the forest.

Growth and prediction read the count matrix's nonzeros only; no step builds a
rows x vocabulary array.

`train_rf` grows its trees on one process per core it may run on (see
`_jobs`): it forks the others once the column copy is built, so they inherit
it and nothing is pickled into them. Each process grows every jobs-th tree
and hands it back as flat preorder arrays, which pickle at any depth, and the
parent links them into `TreeNode`s in tree order, its own trees included. So
the model is the same for any process count. The model file holds each tree
as the same lists, so `_link` reads both. The children call no BLAS
routine, so the idle BLAS threads a forked parent holds are never used.
"""

from __future__ import annotations

import logging
import math
import os
import pickle
import signal
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NoReturn

import numpy as np

from .corpus import has_shape, require_all_classes
from .text import CountMatrix, spans

if TYPE_CHECKING:
    from .classify import LabeledDataset

__all__ = ["TreeNode", "RfModel", "train_rf", "predict_proba"]

log = logging.getLogger(__name__)


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
    feature_subsample: int
    seed: int

    def params(self) -> dict:
        """The model file's parameters: a header, then each tree as the lists _link reads."""
        return {"n_trees": len(self.trees), "feature_subsample": self.feature_subsample,
                "seed": self.seed, "trees": list(map(_flat, self.trees))}

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


def _flat(root: TreeNode) -> dict:
    """A tree's file form: the lists feature (-1 at a leaf), threshold and right
    (-1 at a leaf), one entry per node in preorder, and leaf, one row per leaf."""
    tree = {key: [] for key in _TREE_LISTS}
    feature, threshold, right, leaf = tree.values()
    stack = [(root, -1)]  # (node, the node whose right child it is, or -1)
    while stack:
        node, parent = stack.pop()
        if parent >= 0:
            right[parent] = len(feature)
        right.append(-1)
        if node.dist is not None:
            feature.append(-1)
            threshold.append(0.0)
            leaf.append(node.dist.tolist())
        else:
            feature.append(int(node.feature))
            threshold.append(float(node.threshold))
            stack += [(node.right, len(feature) - 1), (node.left, -1)]
    return tree


def _read_tree(tree: object, n_features: int) -> TreeNode:
    """The tree _flat wrote, each feature below n_features."""
    if type(tree) is not dict:
        raise ValueError(f"a tree must be an object, got {type(tree).__name__}")
    for key, (shape, kind) in _TREE_LISTS.items():
        if not has_shape(tree[key], shape):
            raise ValueError(f"a tree's {key!r} must be a list of {kind}")
    feature, threshold, right, leaf = (tree[key] for key in _TREE_LISTS)
    if not len(feature) == len(threshold) == len(right):
        raise ValueError(f"a tree lists {len(feature)} features, {len(threshold)} thresholds "
                         f"and {len(right)} right children")
    if feature and not -1 <= min(feature) <= max(feature) < n_features:
        raise ValueError(f"a tree's features must lie in [-1, {n_features}), "
                         f"got {min(feature)}..{max(feature)}")
    return _link(feature, list(map(float, threshold)), right, np.array(leaf, dtype=float))[0]


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
) -> tuple[np.ndarray, ...]:
    """One tree over the transposed design matrix (see CountMatrix.columns) and a
    bootstrap, as the flat preorder arrays that _link reads.

    Each row carries its node's label (-1 outside the bootstrap) and counts as
    often as the bootstrap drew it. A split relabels the rows _split returns.
    Nodes are grown depth first, left child first, so they come in preorder.
    """
    n_features = len(columns)
    mult = np.bincount(boot, minlength=len(y))
    labels = np.where(mult > 0, 0, -1)
    nodes, right, leaf = [], [], []  # (feature, threshold) of each node; its right child
    # (the node whose right child this is, or -1; label; class counts)
    stack = [(-1, 0, np.bincount(y, weights=mult, minlength=3))]
    new = 0
    while stack:
        parent, label, counts = stack.pop()
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
            continue
        new += 1
        labels[rows] = new
        nodes.append(split)
        sides = (label, counts - moved), (new, moved)  # kept, relabeled
        to_left, to_right = sides if split[1] >= 0 else sides[::-1]
        stack += [(len(nodes) - 1, *to_right), (-1, *to_left)]
    feature, threshold = zip(*nodes)
    return np.array(feature), np.array(threshold), np.array(right), np.array(leaf)


def _link(feature: list, threshold: list, right: list, leaf: np.ndarray) -> tuple[TreeNode, int]:
    """The TreeNodes of a flat preorder tree, and its deepest leaf's depth.

    Node i is a leaf where feature[i] is -1: it takes the next row of leaf, and
    right[i] is -1. Otherwise its children are node i + 1 and node right[i],
    the node where the left child's subtree ends. A ValueError rejects lists
    that are not one such tree over all their nodes and leaf rows.
    """
    n, leaves = len(feature), feature.count(-1)
    if not n:
        raise ValueError("a tree has no nodes")
    if leaves != len(leaf):
        raise ValueError(f"a tree has {leaves} leaves but {len(leaf)} leaf rows")
    nodes, height = [None] * n, [0] * n
    end = [0] * n + [n]  # the node after each node's subtree; node n is past the tree
    for i in reversed(range(n)):  # children before parents
        if feature[i] == -1:
            r, end[i] = -1, i + 1
            leaves -= 1
            nodes[i] = TreeNode(dist=leaf[leaves])
        else:
            r = end[i + 1]
            if r == n:
                raise ValueError(f"split node {i} lacks a child")
            end[i] = end[r]
            nodes[i] = TreeNode(feature[i], threshold[i], nodes[i + 1], nodes[r])
            height[i] = 1 + max(height[i + 1], height[r])
        if right[i] != r:
            raise ValueError(f"node {i}'s right child must be {r}, got {right[i]}")
    if end[0] != n:
        raise ValueError(f"node 0's subtree holds {end[0]} of the tree's {n} nodes")
    return nodes[0], height[0]


def _jobs(n_trees: int) -> int:
    """The processes that grow a forest of n_trees: one per core this process may
    run on (so `taskset` limits them), at most one per tree; 1 without os.fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), n_trees)


def _child(work: Callable[[int], object], j: int, write: int) -> NoReturn:
    """In a forked child: send (True, work(j)) or (False, its exception) through
    the pipe, then leave through os._exit, so no atexit handler runs and no
    stdio buffer inherited from the parent is flushed."""
    code = 1
    try:
        try:
            result = (True, work(j))
        except Exception as exc:  # handed to the parent, which raises it again
            result = (False, exc)
        with os.fdopen(write, "wb") as pipe:
            pickle.dump(result, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _received(data: bytes, status: int) -> object:
    """A child's result from its pipe's bytes and its wait status."""
    code = os.waitstatus_to_exitcode(status)
    if code != 0:  # a child that exits 0 has written its whole result
        how = (f"exited with status {code}" if code > 0
               else f"was killed by {signal.Signals(-code).name}")
        raise ValueError(f"a tree-growing process {how} before sending its trees")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value


def _in_processes(work: Callable[[int], object], jobs: int) -> list:
    """[work(0), ..., work(jobs - 1)]: work(0) runs here and every other call in
    a forked child, which sends its result back through a pipe as one pickle.

    A child's exception is raised again here, and a child that ends without a
    result becomes a ValueError naming how it ended. If this process fails
    first, it kills and reaps every child still running.
    """
    children = {}  # pid -> the read end of its pipe, until the child is reaped
    try:
        for j in range(1, jobs):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(work, j, write)
            os.close(write)
            children[pid] = os.fdopen(read, "rb")
        results = [work(0)]
        for pid, pipe in list(children.items()):
            data = pipe.read()
            pipe.close()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            results.append(_received(data, status))
        return results
    finally:
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def train_rf(data: "LabeledDataset", n_trees: int, seed: int) -> RfModel:
    """Fit n_trees bagged Gini trees, each on a size-n bootstrap resample.

    At every node, ceil(sqrt(vocab_size)) candidate features are sampled; the
    best (feature, threshold) pair by impurity decrease wins, with ties going
    to the lowest feature id and then the lowest threshold. Tree t draws from
    default_rng([seed, t]) alone, so the processes that grow the trees (see
    _jobs) do not change the forest.
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
    jobs = _jobs(n_trees)

    def grow(j: int) -> list:
        """Trees j, j + jobs, j + 2 jobs, ... as flat arrays."""
        trees = []
        for t in range(j, n_trees, jobs):
            rng = np.random.default_rng([seed, t])
            boot = rng.integers(0, n, size=n)
            trees.append(_grow_tree(columns, data.y, boot, m, rng))
        return trees

    shares = _in_processes(grow, jobs)
    flat = [shares[t % jobs][t // jobs] for t in range(n_trees)]
    trees, depths = zip(*(_link(*(a.tolist() for a in tree[:3]), tree[3]) for tree in flat))
    log.info(
        "train_rf: %d trees, %d nodes, deepest leaf at depth %d; %d processes",
        n_trees, sum(len(tree[0]) for tree in flat), max(depths), jobs,
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
