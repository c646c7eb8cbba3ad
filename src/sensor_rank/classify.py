"""Three-class relevance model: Multinomial Naive Bayes, rebalancing, ranking, evaluation.

The Random Forest learner lives in `forest`; `predict_many`, `cross_validate`,
and the model file I/O here accept either kind.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import LABEL_ORDER, Corpus, Label, class_ids, require_all_classes
from .forest import RfModel, TreeNode, predict_proba, train_rf
from .text import CountMatrix, ReplacementTable, Vocabulary, count_ngrams

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
    "info_gain_rank",
    "evaluate",
    "cross_validate",
    "save_model",
    "load_model",
    "dumps_json",
    "MODEL_FORMAT",
    "MODEL_VERSION",
]

MODEL_FORMAT = "sensor-rank-model"
MODEL_VERSION = 1

# minority rows per block of SMOTE's neighbor search
_SMOTE_BLOCK = 256


@dataclass
class LabeledDataset:
    """Count-matrix rows over a shared vocabulary, with y holding each row's
    class id: its label's position in LABEL_ORDER (see corpus.class_ids)."""

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
    records = [r for r in corpus.records if r.label is not None]
    vocab, matrix = count_ngrams((r.text for r in records), table, n_max, vocab)
    return LabeledDataset(matrix, class_ids(r.label for r in records), vocab)


@dataclass(frozen=True)
class MnnbModel:
    """Multinomial Naive Bayes with Lidstone smoothing.

    Arrays are aligned to LABEL_ORDER on their class axis: class_log_prior has
    shape (3,), term_log_prob has shape (3, vocab_size).
    """

    class_log_prior: np.ndarray
    term_log_prob: np.ndarray
    alpha: float
    vocab_size: int


@dataclass(frozen=True)
class TrainingConfig:
    """Classifier settings for cross-validation and the training commands.

    smote_percent=0 disables over-sampling; spread_ratio=None disables
    majority sub-sampling. Defaults reproduce the best reported combination:
    a 100-tree forest over 1..3-grams with the Relevant class doubled.
    """

    classifier: str = "rf"
    alpha: float = 1.0
    n_trees: int = 100
    smote_percent: int = 100
    smote_k: int = 5
    spread_ratio: float | None = None

    def __post_init__(self) -> None:
        if self.classifier not in ("mnnb", "rf"):
            raise ValueError(f"classifier must be 'mnnb' or 'rf', got {self.classifier!r}")
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        if self.spread_ratio is not None and not 1 <= self.spread_ratio < math.inf:
            raise ValueError(
                f"spread_ratio must be finite and >= 1, got {self.spread_ratio}"
            )


@dataclass(frozen=True)
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
    counts = np.zeros((3, v_size))
    # unbuffered, in row then entry order: the same float sums as a plain loop
    np.add.at(counts, (np.repeat(data.y, np.diff(X.indptr)), X.indices), X.data)
    class_log_prior = np.log(data.class_counts() / len(data))
    totals = counts.sum(axis=1, keepdims=True)
    term_log_prob = np.log((counts + alpha) / (totals + alpha * v_size))
    return MnnbModel(class_log_prior, term_log_prob, alpha, v_size)


def predict_many(model: MnnbModel | RfModel, X: CountMatrix) -> np.ndarray:
    """Class probabilities of every row, shape (rows, 3), classes in LABEL_ORDER.

    The predicted class is `argmax(axis=1)`, so ties go to the earliest class.
    MNNB scores the whole batch in one scatter over the nonzeros and ignores
    columns beyond its vocabulary; the forest routes all rows one tree at a time.
    """
    if isinstance(model, MnnbModel):
        n = len(X)
        docs = np.repeat(np.arange(n), np.diff(X.indptr))
        keep = X.indices < model.vocab_size
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
    the segment. Counts stay real-valued; each row lists its nonzero columns in
    ascending order.
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
    # only the columns the minority uses: integer counts keep distances exact
    used, local = np.unique(minority.indices, return_inverse=True)
    dense = CountMatrix(minority.indptr, local, minority.data, len(used)).toarray()
    sq = np.einsum("ij,ij->i", dense, dense)
    neighbor_ids = np.empty((len(dense), k), dtype=np.int64)
    # a block of rows at a time: memory grows with the rows, not their square
    for lo in range(0, len(dense), _SMOTE_BLOCK):
        hi = min(lo + _SMOTE_BLOCK, len(dense))
        d2 = sq[lo:hi, None] + sq[None, :] - 2.0 * (dense[lo:hi] @ dense.T)
        d2[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        # the k first by (distance, index): all below the k-th smallest
        # distance, then the lowest-index ties at it
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
        near = d2 < kth
        tie = d2 == kth
        near |= tie & (np.cumsum(tie, axis=1) <= k - near.sum(axis=1, keepdims=True))
        cols = np.nonzero(near)[1].reshape(-1, k)
        order = np.argsort(np.take_along_axis(d2, cols, axis=1), axis=1, kind="stable")
        neighbor_ids[lo:hi] = np.take_along_axis(cols, order, axis=1)
    rng = np.random.default_rng([seed, len(minority), k])
    indptr = [0]
    indices: list[np.ndarray] = []
    data: list[np.ndarray] = []
    for _ in range(reps):
        for i in range(len(minority)):
            j = int(neighbor_ids[i, rng.integers(k)])
            lam = rng.random()
            point = dense[i] + lam * (dense[j] - dense[i])
            nonzero = np.flatnonzero(point)
            indices.append(used[nonzero])
            data.append(point[nonzero])
            indptr.append(indptr[-1] + len(nonzero))
    return CountMatrix(
        np.array(indptr, dtype=np.int64),
        np.concatenate(indices).astype(np.int64),
        np.concatenate(data),
        minority.n_cols,
    )


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


def info_gain_rank(data: LabeledDataset) -> list[tuple[int, float]]:
    """Rank terms by mutual information between binary presence and the label.

    gain(t) = H(label) − H(label | presence(t)), log base 2; descending, ties
    by term id.
    """
    if len(data) == 0:
        raise ValueError("cannot rank attributes of an empty dataset")
    n = len(data)
    v_size = len(data.vocab)
    class_totals = data.class_counts()
    # doc counts per (class, term) for presence
    X = data.matrix
    nonzero = X.data != 0
    present = np.zeros((3, v_size))
    np.add.at(present, (np.repeat(data.y, np.diff(X.indptr))[nonzero], X.indices[nonzero]), 1)

    def entropy(counts: np.ndarray) -> np.ndarray:
        totals = counts.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            p = np.where(totals > 0, counts / np.where(totals > 0, totals, 1), 0.0)
            terms = np.where(p > 0, -p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
        return terms.sum(axis=0)

    h_label = float(entropy(class_totals[:, None].astype(float))[0])
    absent = class_totals[:, None] - present
    n_present = present.sum(axis=0)
    n_absent = n - n_present
    h_cond = (n_present / n) * entropy(present) + (n_absent / n) * entropy(absent)
    gains = h_label - h_cond
    order = sorted(range(v_size), key=lambda t: (-gains[t], t))
    return [(t, float(gains[t])) for t in order]


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


def cross_validate(
    data: LabeledDataset, folds: int, config: TrainingConfig, seed: int
) -> EvalReport:
    """Stratified k-fold evaluation; rebalancing never touches held-out folds."""
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
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

def _fmt_real(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite real {x!r}")
    return format(float(x), ".17g")


def dumps_json(obj: object, fmt_real=_fmt_real) -> str:
    """json.dumps equivalent with explicit control over float formatting.

    The stdlib serializer offers no way to fix the number of digits, which
    the on-disk formats need for byte-stable output.
    """
    parts: list[str] = []
    _to_json(obj, parts, fmt_real)
    return "".join(parts)


def _to_json(obj: object, parts: list[str], fmt_real) -> None:
    if isinstance(obj, bool) or obj is None:
        parts.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(fmt_real(float(obj)))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(obj):
            if i:
                parts.append(",")
            _to_json(item, parts, fmt_real)
        parts.append("]")
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                parts.append(",")
            parts.append(json.dumps(str(key), ensure_ascii=False) + ":")
            _to_json(value, parts, fmt_real)
        parts.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _tree_to_obj(node) -> dict:
    if node.dist is not None:
        return {"leaf": [float(p) for p in node.dist]}
    return {
        "feature": int(node.feature),
        "threshold": float(node.threshold),
        "left": _tree_to_obj(node.left),
        "right": _tree_to_obj(node.right),
    }


def _finite_real(x) -> bool:
    """A JSON number, not a bool, that is finite as a float."""
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


def _tree_from_obj(obj: dict, n_features: int) -> TreeNode:
    """A tree from its file form: a leaf holds 3 finite reals, an internal node
    a feature id below n_features and a finite threshold."""
    if "leaf" in obj:
        leaf = obj["leaf"]
        if not isinstance(leaf, list) or len(leaf) != 3 or not all(map(_finite_real, leaf)):
            raise ValueError(f"tree leaf must be 3 finite reals, got {leaf!r}")
        return TreeNode(dist=np.array(leaf, dtype=float))
    feature, threshold = obj["feature"], obj["threshold"]
    if type(feature) is not int or not 0 <= feature < n_features:
        raise ValueError(f"tree feature must be an integer in [0, {n_features}), got {feature!r}")
    if not _finite_real(threshold):
        raise ValueError(f"tree threshold must be a finite real, got {threshold!r}")
    return TreeNode(
        feature=feature,
        threshold=float(threshold),
        left=_tree_from_obj(obj["left"], n_features),
        right=_tree_from_obj(obj["right"], n_features),
    )


def save_model(
    model: MnnbModel | RfModel,
    vocab: Vocabulary,
    table_hash: str,
    path: str | Path,
) -> None:
    """Write a self-contained model file: vocabulary, table pin, parameters."""
    doc: dict[str, object] = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "kind": "mnnb" if isinstance(model, MnnbModel) else "rf",
        "n_max": vocab.n_max,
        "table_hash": table_hash,
        "label_order": [label.value for label in LABEL_ORDER],
        "vocabulary": vocab.terms_in_id_order(),
    }
    if isinstance(model, MnnbModel):
        doc["params"] = {
            "alpha": model.alpha,
            "class_log_prior": [float(x) for x in model.class_log_prior],
            "term_log_prob": [[float(x) for x in row] for row in model.term_log_prob],
        }
    elif isinstance(model, RfModel):
        doc["params"] = {
            "n_trees": model.n_trees,
            "feature_subsample": model.feature_subsample,
            "seed": model.seed,
            "trees": [_tree_to_obj(t) for t in model.trees],
        }
    else:
        raise TypeError(f"unsupported model type: {type(model).__name__}")
    Path(path).write_text(dumps_json(doc) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> tuple[MnnbModel | RfModel, Vocabulary, str]:
    """Read a model file back; returns (model, vocabulary, table_hash)."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a {MODEL_FORMAT} file")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(f"{path}: unsupported model version {doc.get('version')!r}")
    if doc.get("label_order") != [label.value for label in LABEL_ORDER]:
        raise ValueError(f"{path}: unexpected label order {doc.get('label_order')!r}")
    terms = doc.get("vocabulary")
    if not isinstance(terms, list) or not all(isinstance(t, str) for t in terms):
        raise ValueError(f"{path}: 'vocabulary' must be a list of strings")
    n_max = doc.get("n_max")
    if type(n_max) is not int or not 1 <= n_max <= 3:
        raise ValueError(f"{path}: 'n_max' must be an integer in 1..3, got {n_max!r}")
    params = doc.get("params")
    if not isinstance(params, dict):
        raise ValueError(f"{path}: 'params' must be an object")
    if not isinstance(doc.get("table_hash"), str):
        raise ValueError(f"{path}: 'table_hash' must be a string")
    vocab = Vocabulary({t: i for i, t in enumerate(terms)}, n_max)
    if len(vocab) != len(terms):
        raise ValueError(f"{path}: 'vocabulary' repeats a term")
    kind = doc.get("kind")
    if kind not in ("mnnb", "rf"):
        raise ValueError(f"{path}: unknown model kind {kind!r}")
    model: MnnbModel | RfModel
    try:
        if kind == "mnnb":
            prior, log_prob, alpha = (
                params[key] for key in ("class_log_prior", "term_log_prob", "alpha")
            )
            if not isinstance(prior, list) or not all(map(_finite_real, prior)):
                raise ValueError("'class_log_prior' must be a list of finite reals")
            if not isinstance(log_prob, list) or not all(
                isinstance(row, list) and all(map(_finite_real, row)) for row in log_prob
            ):
                raise ValueError("'term_log_prob' must be a list of lists of finite reals")
            if not _finite_real(alpha) or alpha <= 0:
                raise ValueError(f"'alpha' must be a finite real > 0, got {alpha!r}")
            model = MnnbModel(
                class_log_prior=np.array(prior, dtype=float),
                term_log_prob=np.array(log_prob, dtype=float),
                alpha=float(alpha),
                vocab_size=len(terms),
            )
        else:
            trees = params["trees"]
            if not trees:
                raise ValueError("'trees' is empty")
            header = {key: params[key] for key in ("n_trees", "feature_subsample", "seed")}
            for key, value in header.items():
                if type(value) is not int:
                    raise ValueError(f"{key!r} must be an integer, got {value!r}")
            if header["n_trees"] != len(trees):
                raise ValueError(f"'n_trees' is {header['n_trees']}, but {len(trees)} trees follow")
            model = RfModel(
                trees=tuple(_tree_from_obj(t, len(terms)) for t in trees), **header
            )
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: malformed model parameters: {exc!r}") from None
    if isinstance(model, MnnbModel) and (
        model.class_log_prior.shape != (3,) or model.term_log_prob.shape != (3, len(terms))
    ):
        raise ValueError(
            f"{path}: MNNB parameters have shapes {model.class_log_prior.shape} and "
            f"{model.term_log_prob.shape}, expected (3,) and (3, {len(terms)})"
        )
    return model, vocab, doc["table_hash"]
