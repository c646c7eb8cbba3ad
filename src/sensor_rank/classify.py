"""Three-class relevance model: Multinomial Naive Bayes, rebalancing, evaluation.

The Random Forest learner lives in `forest`; `predict_many`, `cross_validate`,
and the model file I/O here accept either kind, and each kind writes and reads
its own parameters.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import LABEL_ORDER, Corpus, Label, has_shape, read_json, require_all_classes
from .forest import RfModel, predict_proba, train_rf
from .text import CountMatrix, ReplacementTable, Vocabulary, count_ngrams, spans

__all__ = [
    "LabeledDataset",
    "MnnbModel",
    "TrainingConfig",
    "EvalReport",
    "dataset_from_corpus",
    "train_mnnb",
    "train_model",
    "predict_many",
    "rebalance",
    "smote",
    "subsample_spread",
    "evaluate",
    "cross_validate",
    "save_model",
    "load_model",
    "MODEL_FORMAT",
    "MODEL_VERSION",
]

MODEL_FORMAT = "sensor-rank-model"
MODEL_VERSION = 2

# minority rows per block of SMOTE's neighbor search, and pairs per block of its synthesis
_SMOTE_BLOCK = 256


@dataclass
class LabeledDataset:
    """Count-matrix rows over a shared vocabulary, with y holding each row's
    class id: its label's position in LABEL_ORDER."""

    matrix: CountMatrix
    y: np.ndarray
    vocab: Vocabulary

    def __post_init__(self) -> None:
        y = self.y
        if not (isinstance(y, np.ndarray) and y.dtype == np.int64 and y.ndim == 1):
            got = f"{y.dtype} array of shape {y.shape}" if isinstance(y, np.ndarray) else type(y)
            raise ValueError(f"y must be a one-dimensional int64 array, got {got}")
        if len(self.matrix) != len(self.y):
            raise ValueError(f"{len(self.matrix)} vectors vs {len(self.y)} class ids")
        if ((self.y < 0) | (self.y >= len(LABEL_ORDER))).any():
            raise ValueError(f"class ids must lie in 0..{len(LABEL_ORDER) - 1}")
        if self.matrix.n_cols != len(self.vocab):
            raise ValueError(
                f"{self.matrix.n_cols} columns vs {len(self.vocab)} vocabulary terms"
            )

    def __len__(self) -> int:
        return len(self.matrix)

    def class_counts(self) -> np.ndarray:
        """Rows per class, in LABEL_ORDER."""
        return np.bincount(self.y, minlength=len(LABEL_ORDER))

    def subset(self, indices: Sequence[int]) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(self.matrix.rows(idx), self.y[idx], self.vocab)


def dataset_from_corpus(
    corpus: Corpus,
    table: ReplacementTable | None = None,
    n_max: int = 1,
    vocab: Vocabulary | None = None,
) -> LabeledDataset:
    """Count the n-grams of every labeled record, keeping corpus order.

    Without a vocabulary, one is built from those records (see count_ngrams).
    """
    corpus = corpus.labeled()
    vocab, matrix = count_ngrams(corpus.texts, table, n_max, vocab)
    return LabeledDataset(matrix, corpus.y, vocab)


def dataset_from_parts(parts: Sequence[LabeledDataset]) -> LabeledDataset:
    """One dataset of the parts' rows in order, where dataset_from_corpus built each
    part over its own vocabulary. Terms take ids in order of first appearance over
    the parts in turn, so the parts of one corpus in file order join into
    dataset_from_corpus of the whole."""
    if len(parts) == 1:
        return parts[0]
    term_to_id: dict[str, int] = {}
    ids = []  # each part's term ids in term_to_id
    for part in parts:
        terms = part.vocab.terms_in_id_order()
        ids.append(np.array([term_to_id.setdefault(t, len(term_to_id)) for t in terms],
                            dtype=np.int64))
    matrix = functools.reduce(CountMatrix.concat, [
        CountMatrix(p.matrix.indptr, i[p.matrix.indices], p.matrix.data, len(term_to_id))
        for p, i in zip(parts, ids)
    ])
    y = np.concatenate([part.y for part in parts])
    return LabeledDataset(matrix, y, Vocabulary(term_to_id, parts[0].vocab.n_max))


@dataclass(frozen=True, eq=False)
class MnnbModel:
    """Multinomial Naive Bayes with Lidstone smoothing.

    Arrays are aligned to LABEL_ORDER on their class axis: class_log_prior has
    shape (3,), term_log_prob has shape (3, vocabulary size).
    """

    class_log_prior: np.ndarray
    term_log_prob: np.ndarray
    alpha: float

    def params(self) -> dict:
        """The model file's parameters."""
        return {"alpha": self.alpha, "class_log_prior": self.class_log_prior.tolist(),
                "term_log_prob": self.term_log_prob.tolist()}

    @classmethod
    def from_params(cls, params: dict, n_terms: int) -> "MnnbModel":
        """The model that params() wrote, over n_terms vocabulary terms. A malformed
        value raises KeyError, TypeError or ValueError."""
        prior, log_prob, alpha = (params[k] for k in ("class_log_prior", "term_log_prob", "alpha"))
        if not has_shape(prior, (float, float, float)):
            raise ValueError("'class_log_prior' must be 3 finite reals")
        if not has_shape(log_prob, ((float,) * n_terms,) * 3):
            raise ValueError(f"'term_log_prob' must be 3 lists of {n_terms} finite reals")
        if not has_shape(alpha, float) or alpha <= 0:
            raise ValueError(f"'alpha' must be a finite real > 0, got {alpha!r}")
        return cls(np.array(prior, dtype=float), np.array(log_prob, dtype=float), float(alpha))


@dataclass(frozen=True)
class TrainingConfig:
    """Classifier settings for cross-validation and the training commands.

    smote_percent=0 disables over-sampling; spread_ratio=None disables
    majority sub-sampling. Defaults reproduce the best reported combination:
    a 100-tree forest over 1..3-grams with the Relevant class doubled, scored
    over 10 cross-validation folds.
    """

    classifier: str = "rf"
    alpha: float = 1.0
    n_trees: int = 100
    smote_percent: int = 100
    smote_k: int = 5
    spread_ratio: float | None = None
    ngrams: int = 3
    folds: int = 10

    def __post_init__(self) -> None:
        if self.classifier not in ("mnnb", "rf"):
            raise ValueError(f"classifier must be 'mnnb' or 'rf', got {self.classifier!r}")
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        for name in ("n_trees", "smote_k"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.smote_percent < 0 or self.smote_percent % 100 != 0:
            raise ValueError(
                f"smote_percent must be a nonnegative multiple of 100, got {self.smote_percent}"
            )
        if self.spread_ratio is not None and not 1 <= self.spread_ratio < math.inf:
            raise ValueError(
                f"spread_ratio must be finite and >= 1, got {self.spread_ratio}"
            )
        if self.ngrams not in (1, 2, 3):
            raise ValueError(f"ngrams must be 1, 2 or 3, got {self.ngrams}")
        if self.folds < 2:
            raise ValueError(f"folds must be >= 2, got {self.folds}")


@dataclass(frozen=True, eq=False)
class EvalReport:
    """Aggregate quality figures; confusion rows are truth, columns prediction."""

    accuracy: float
    per_class: dict[Label, tuple[float, float, float]]
    weighted_f: float
    rmse: float
    confusion: np.ndarray


def train_mnnb(data: LabeledDataset, alpha: float = 1.0) -> MnnbModel:
    """Fit priors and smoothed per-class term distributions from counts."""
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if len(data) == 0:
        raise ValueError("cannot train on an empty dataset")
    require_all_classes(data.y)
    v_size = len(data.vocab)
    X = data.matrix
    # one bincount over class x vocabulary + term codes adds the entries in row then
    # entry order from 0.0: the same float sums as a plain loop
    codes = np.repeat(data.y, np.diff(X.indptr)) * v_size + X.indices
    counts = np.bincount(codes, weights=X.data, minlength=3 * v_size).reshape(3, v_size)
    class_log_prior = np.log(data.class_counts() / len(data))
    totals = counts.sum(axis=1, keepdims=True)
    term_log_prob = np.log((counts + alpha) / (totals + alpha * v_size))
    return MnnbModel(class_log_prior, term_log_prob, alpha)


def predict_many(model: MnnbModel | RfModel, X: CountMatrix) -> np.ndarray:
    """Class probabilities of every row, shape (rows, 3), classes in LABEL_ORDER.

    The predicted class is `argmax(axis=1)`, so ties go to the earliest class.
    MNNB scores the whole batch in one scatter over the nonzeros and ignores
    columns beyond its vocabulary; the forest routes all rows one tree at a time.
    """
    if isinstance(model, MnnbModel):
        n = len(X)
        docs = X.row_ids()
        keep = X.indices < model.term_log_prob.shape[1]
        tids = X.indices[keep]
        log_post = np.tile(model.class_log_prior, (n, 1))
        contrib = X.data[keep][:, None] * model.term_log_prob[:, tids].T
        np.add.at(log_post, docs[keep], contrib)
        log_post -= log_post.max(axis=1, keepdims=True)
        probs = np.exp(log_post)
        probs /= probs.sum(axis=1, keepdims=True)
        return probs
    if isinstance(model, RfModel):
        return predict_proba(model, X)
    raise TypeError(f"unsupported model type: {type(model).__name__}")


def smote(minority: CountMatrix, percent: int, k: int, seed: int) -> CountMatrix:
    """Interpolate synthetic minority rows between k-nearest-neighbor pairs.

    Emits (percent/100)·|minority| rows: one pass over the sources per 100
    percent, each source paired with one of its k nearest neighbors (Euclidean
    distance over the counts, ties by index) at a uniform random point along
    the segment. The minority must hold integer counts, as count_ngrams gives,
    and no row's sum of squares S may reach 2^53 or exceed 2^60 / |minority|;
    other input is a ValueError. The synthetic counts are real-valued; each
    row lists its nonzero columns in ascending order.
    """
    if percent < 0 or percent % 100 != 0:
        raise ValueError(f"percent must be a nonnegative multiple of 100, got {percent}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(minority) <= k:
        raise ValueError(f"need more than k={k} minority vectors, got {len(minority)}")
    reps = percent // 100
    if reps == 0:
        return minority.rows([])
    n = len(minority)
    # only the columns the minority uses, as distinct ascending nonzero cells
    used, local = np.unique(minority.indices, return_inverse=True)
    by_column = CountMatrix(minority.indptr, local, minority.data, len(used)).columns()
    X = by_column.columns()
    if not (X.data == np.floor(X.data)).all():
        raise ValueError("smote takes integer counts")
    # frequent columns go dense; the rest carry few products each
    dense = np.diff(by_column.indptr) > n / 100
    neighbor_ids = _nearest_exact(X, by_column, k, dense)
    rng = np.random.default_rng([seed, n, k])
    draws = [(rng.integers(k), rng.random()) for _ in range(reps * n)]
    picks, lam = (np.array(column) for column in zip(*draws))
    src = np.tile(np.arange(n), reps)
    dst = neighbor_ids[src, picks]
    sizes, indices, data = [], [], []
    for lo in range(0, len(src), _SMOTE_BLOCK):
        hi = min(lo + _SMOTE_BLOCK, len(src))
        a, b = X.rows(src[lo:hi]), X.rows(dst[lo:hi])
        # one cell per (pair, column) in the union of the pair's columns,
        # in pair-then-column order; absent cells read 0
        pair = np.concatenate([a.row_ids(), b.row_ids()])
        cell, slot = np.unique(pair * X.n_cols + np.concatenate([a.indices, b.indices]),
                               return_inverse=True)
        av, bv = np.zeros(len(cell)), np.zeros(len(cell))
        av[slot[: len(a.data)]] = a.data
        bv[slot[len(a.data) :]] = b.data
        point = av + lam[lo:hi][cell // X.n_cols] * (bv - av)
        keep = point != 0
        sizes.append(np.bincount(cell[keep] // X.n_cols, minlength=hi - lo))
        indices.append(used[cell[keep] % X.n_cols])
        data.append(point[keep])
    indptr = np.zeros(len(src) + 1, dtype=np.int64)
    np.cumsum(np.concatenate(sizes), out=indptr[1:])
    return CountMatrix(
        indptr, np.concatenate(indices).astype(np.int64), np.concatenate(data), minority.n_cols
    )


def _nearest_exact(X: CountMatrix, by_column: CountMatrix, k: int, dense: np.ndarray) -> np.ndarray:
    """Each row's k nearest other rows by (squared distance, index), shape (rows, k).

    X lists distinct nonzero columns per row and its values are integers, and
    by_column is X transposed. Let S be the largest row sum of squares. By
    Cauchy-Schwarz every partial sum of a Gram entry is an integer of at most S in
    magnitude, so it is exact in float32 while S <= 2^24 and in float64 while
    S < 2^53 (S is itself a float64 sum of integers, exact while it reads below
    2^53). The columns marked dense are multiplied as a block of that float type,
    a block of rows at a time; every other column adds its products into the
    block's Gram directly. d2 = sq_i + sq_j - 2G is then the exact integer
    distance, and row i ranks j by the distinct key d2 * n + j, which fits int64
    while (4S + 1) * n does: S <= 2^60 / n. Larger S is a ValueError.
    """
    n = len(X)
    rows = X.row_ids()
    sq = np.bincount(rows, weights=X.data**2, minlength=n)
    top, limit = sq.max(initial=0), min(2**53 - 1, 2**60 // n)
    if not top <= limit:
        raise ValueError(
            f"a minority row's sum of squares is {top:.17g}; smote ranks {n} rows "
            f"exactly only up to {limit}"
        )
    on = dense[X.indices]
    block = np.zeros((n, int(dense.sum())), dtype=np.float32 if top <= 2**24 else np.float64)
    block[rows[on], (np.cumsum(dense) - 1)[X.indices[on]]] = X.data[on]
    rare_rows, rare_cols, rare_vals = rows[~on], X.indices[~on], X.data[~on].astype(np.int64)
    col_lo, col_len = by_column.indptr[:-1], np.diff(by_column.indptr)
    col_vals = by_column.data.astype(np.int64)
    # sq_i * n is the same along row i and is left out of its keys
    base = sq.astype(np.int64) * n + np.arange(n)
    neighbor_ids = np.empty((n, k), dtype=np.int64)
    for lo in range(0, n, _SMOTE_BLOCK):
        hi = min(lo + _SMOTE_BLOCK, n)
        key = (block[lo:hi] @ block.T).astype(np.int64)
        # every rare cell of the block's rows times every cell of its column
        first, last = np.searchsorted(rare_rows, [lo, hi])
        c = rare_cols[first:last]
        reach = col_len[c]
        at = spans(col_lo[c], reach)
        np.add.at(
            key,
            (np.repeat(rare_rows[first:last] - lo, reach), by_column.indices[at]),
            np.repeat(rare_vals[first:last], reach) * col_vals[at],
        )
        key *= -2 * n
        key += base
        key[np.arange(hi - lo), np.arange(lo, hi)] = np.iinfo(np.int64).max
        near = np.argpartition(key, k - 1, axis=1)[:, :k]
        order = np.argsort(np.take_along_axis(key, near, axis=1), axis=1)
        neighbor_ids[lo:hi] = np.take_along_axis(near, order, axis=1)
    return neighbor_ids


def subsample_spread(
    data: LabeledDataset, max_ratio: float, seed: int
) -> LabeledDataset:
    """Randomly drop majority-class instances until max/min class count ≤ max_ratio."""
    if max_ratio < 1:
        raise ValueError(f"max_ratio must be >= 1, got {max_ratio}")
    counts = data.class_counts()
    if not counts.any():
        raise ValueError("cannot subsample an empty dataset")
    cap = math.floor(max_ratio * int(counts[counts > 0].min()))
    rng = np.random.default_rng([seed, len(data)])
    keep = []
    for c in range(len(LABEL_ORDER)):
        indices = np.flatnonzero(data.y == c)
        if len(indices) > cap:
            indices = indices[rng.choice(len(indices), size=cap, replace=False)]
        keep.append(indices)
    return data.subset(np.sort(np.concatenate(keep)))


def evaluate(probs: np.ndarray, y: np.ndarray) -> EvalReport:
    """Summarize held-out class probabilities (see predict_many) against gold class ids."""
    if len(probs) != len(y):
        raise ValueError(f"{len(probs)} predictions vs {len(y)} truth labels")
    if not len(y):
        raise ValueError("nothing to evaluate")
    n = len(y)
    confusion = np.zeros((3, 3), dtype=int)
    np.add.at(confusion, (y, probs.argmax(axis=1)), 1)
    # libm pow squares as Python's float ** does; cumsum adds in row then class order
    sq_err = float(np.cumsum(np.float_power(probs - np.eye(3)[y], 2))[-1])
    accuracy = float(np.trace(confusion)) / n
    per_class: dict[Label, tuple[float, float, float]] = {}
    weighted_f = 0.0
    for i, label in enumerate(LABEL_ORDER):
        tp = confusion[i, i]
        col = confusion[:, i].sum()
        row = confusion[i, :].sum()
        precision = tp / col if col else 0.0
        recall = tp / row if row else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[label] = (float(precision), float(recall), float(f1))
        weighted_f += (row / n) * f1
    rmse = math.sqrt(sq_err / (n * 3))
    return EvalReport(accuracy, per_class, float(weighted_f), rmse, confusion)


def _stratified_folds(y: np.ndarray, folds: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Shuffle each class and deal round-robin so folds stay class-balanced."""
    dealt = []
    for c in range(len(LABEL_ORDER)):
        indices = np.flatnonzero(y == c)
        rng.shuffle(indices)
        dealt.append(indices)
    return [np.sort(np.concatenate([d[f::folds] for d in dealt])) for f in range(folds)]


def rebalance(
    train: LabeledDataset, config: TrainingConfig, seed_parts: list[int]
) -> LabeledDataset:
    """Subsample majorities, then over-sample Relevant; training folds only."""
    if config.spread_ratio is not None:
        sub_seed = int(np.random.SeedSequence(seed_parts + [1]).generate_state(1)[0])
        train = subsample_spread(train, config.spread_ratio, sub_seed)
    if config.smote_percent > 0:
        relevant = LABEL_ORDER.index(Label.RELEVANT)
        minority = train.matrix.rows(np.flatnonzero(train.y == relevant))
        smote_seed = int(np.random.SeedSequence(seed_parts + [2]).generate_state(1)[0])
        synthetic = smote(minority, config.smote_percent, config.smote_k, smote_seed)
        train = LabeledDataset(
            train.matrix.concat(synthetic),
            np.concatenate([train.y, np.full(len(synthetic), relevant)]),
            train.vocab,
        )
    return train


def train_model(data: LabeledDataset, config: TrainingConfig, seed: int) -> MnnbModel | RfModel:
    """Fit the configured classifier; seed drives the forest's draws."""
    if config.classifier == "mnnb":
        return train_mnnb(data, config.alpha)
    return train_rf(data, config.n_trees, seed)


def cross_validate(data: LabeledDataset, config: TrainingConfig, seed: int) -> EvalReport:
    """Stratified config.folds-fold evaluation; rebalancing never touches held-out folds."""
    folds = config.folds
    for label, count in zip(LABEL_ORDER, data.class_counts()):
        if count < folds:
            raise ValueError(
                f"class {label.value} has {count} instances, fewer than folds={folds}"
            )
    fold_rng = np.random.default_rng([seed, folds, len(data)])
    fold_sets = _stratified_folds(data.y, folds, fold_rng)
    probs = np.empty((len(data), len(LABEL_ORDER)))
    for fold_idx, test_indices in enumerate(fold_sets):
        train_indices = np.setdiff1d(np.arange(len(data)), test_indices)
        train = rebalance(data.subset(train_indices), config, [seed, fold_idx])
        model_seed = int(
            np.random.SeedSequence([seed, fold_idx, 3]).generate_state(1)[0]
        )
        model = train_model(train, config, model_seed)
        probs[test_indices] = predict_many(model, data.matrix.rows(test_indices))
    return evaluate(probs, data.y)


# --- model file I/O ---------------------------------------------------------

# each kind's name in the model file, and the class that writes and reads its parameters
_KINDS = {"mnnb": MnnbModel, "rf": RfModel}


def save_model(
    model: MnnbModel | RfModel,
    vocab: Vocabulary,
    table_hash: str,
    path: str | Path,
) -> None:
    """Write a self-contained model file: vocabulary, table pin, parameters."""
    kind = next((k for k, cls in _KINDS.items() if isinstance(model, cls)), None)
    if kind is None:
        raise TypeError(f"unsupported model type: {type(model).__name__}")
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "kind": kind,
        "n_max": vocab.n_max,
        "table_hash": table_hash,
        "label_order": [label.value for label in LABEL_ORDER],
        "vocabulary": vocab.terms_in_id_order(),
        "params": model.params(),
    }
    # reals as repr: the shortest text that reads back as the same float
    text = json.dumps(doc, ensure_ascii=False, allow_nan=False, separators=(",", ":"))
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_model(path: str | Path) -> tuple[MnnbModel | RfModel, Vocabulary, str]:
    """Read a model file back; returns (model, vocabulary, table_hash)."""
    doc = read_json(path)
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a {MODEL_FORMAT} file")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(f"{path}: unsupported model version {doc.get('version')!r}")
    if doc.get("label_order") != [label.value for label in LABEL_ORDER]:
        raise ValueError(f"{path}: unexpected label order {doc.get('label_order')!r}")
    terms = doc.get("vocabulary")
    if not has_shape(terms, [str]):
        raise ValueError(f"{path}: 'vocabulary' must be a list of strings")
    n_max = doc.get("n_max")
    if not has_shape(n_max, int) or not 1 <= n_max <= 3:
        raise ValueError(f"{path}: 'n_max' must be an integer in 1..3, got {n_max!r}")
    params = doc.get("params")
    if not isinstance(params, dict):
        raise ValueError(f"{path}: 'params' must be an object")
    if not has_shape(doc.get("table_hash"), str):
        raise ValueError(f"{path}: 'table_hash' must be a string")
    vocab = Vocabulary({t: i for i, t in enumerate(terms)}, n_max)
    if len(vocab) != len(terms):
        raise ValueError(f"{path}: 'vocabulary' repeats a term")
    kind = doc.get("kind")
    if not has_shape(kind, str) or kind not in _KINDS:
        raise ValueError(f"{path}: unknown model kind {kind!r}")
    try:
        model = _KINDS[kind].from_params(params, len(terms))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed model parameters: {exc!r}") from None
    return model, vocab, doc["table_hash"]
