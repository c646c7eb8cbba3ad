"""Independent numeric oracles for the tests.

Written from scratch on purpose (pure-Python elimination, exact rationals),
so the tests never validate the main code against itself. The builders
here (TweetRecord rows, count matrices from row dicts, class ids, dense
copies, deep hand-built trees) make test inputs without going through the
code under test. `normalize` and `ngrams` spell one text's tokens and
n-grams as strings, so tests can read what count_ngrams counts.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from datetime import datetime
from fractions import Fraction
from pathlib import Path

import numpy as np

from sensor_rank.classify import EvalReport
from sensor_rank.cli import _COMMANDS, _KEYS
from sensor_rank.corpus import LABEL_ORDER, Corpus, FollowerGraph, Label
from sensor_rank.forest import RfModel, TreeNode
from sensor_rank.rank import RankingReport, RankRow, TransitionMatrix, UserStats
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
    _Chunks,
)


@dataclass(frozen=True)
class TweetRecord:
    """One post as a record: identity, author, text, timestamp, optional label
    and author volume. Built unchecked; oracle_load_corpus checks its fields."""

    id: str
    user: str
    text: str
    created_at: str
    label: Label | None = None
    user_total_tweets: int | None = None


def from_records(records) -> Corpus:
    """The corpus of the given records, in order, packed into columns."""
    records = list(records)
    return Corpus(
        tuple(r.id for r in records),
        tuple(r.user for r in records),
        tuple(r.text for r in records),
        tuple(r.created_at for r in records),
        np.array([-1 if r.label is None else LABEL_ORDER.index(r.label) for r in records],
                 dtype=np.int64),
        np.array([-1 if r.user_total_tweets is None else r.user_total_tweets for r in records],
                 dtype=np.int64),
    )


def records_of(corpus: Corpus) -> tuple[TweetRecord, ...]:
    """The rows of a corpus as TweetRecords, in corpus order."""
    return tuple(
        TweetRecord(i, u, t, c, None if y < 0 else LABEL_ORDER[y], None if n < 0 else n)
        for i, u, t, c, y, n in zip(
            corpus.ids, corpus.users, corpus.texts, corpus.created_at,
            corpus.y.tolist(), corpus.user_total_tweets.tolist(),
        )
    )


def graph_pairs(graph: FollowerGraph) -> list[tuple[str, str]]:
    """The edges of a graph as sorted (follower, friend) string pairs."""
    return [(graph.names[a], graph.names[b]) for a, b in graph.edges.tolist()]


def class_ids(labels) -> np.ndarray:
    """Each label's position in LABEL_ORDER, as an int64 array."""
    return np.array([LABEL_ORDER.index(label) for label in labels], dtype=np.int64)


def count_matrix(rows, n_cols: int) -> CountMatrix:
    """The count matrix of per-row {column: value} mappings, keeping their item order."""
    rows = list(rows)
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    indices = np.array([c for row in rows for c in row], dtype=np.int64)
    data = np.array([v for row in rows for v in row.values()], dtype=float)
    if len(indices) and not (0 <= indices.min() and indices.max() < n_cols):
        raise ValueError(f"column index out of range for {n_cols} columns")
    return CountMatrix(indptr, indices, data, n_cols)


def normalize(text: str, table: ReplacementTable | None = None) -> list[str]:
    """The tokens count_ngrams counts for one text, in order (default table if None)."""
    chunks = _Chunks(ReplacementTable.default() if table is None else table)
    tok, _ = chunks.tokens([text])
    return [chunks.tokenizer.tokens[t] for t in tok.tolist()]


def ngrams(tokens: list[str], n_max: int) -> list[str]:
    """All contiguous k-grams for k=1..n_max, underscore-joined, ordered by (position, k)."""
    if not 1 <= n_max <= 3:
        raise ValueError(f"n_max must be in 1..3, got {n_max}")
    return ["_".join(tokens[i : i + k])
            for i in range(len(tokens)) for k in range(1, n_max + 1) if i + k <= len(tokens)]


def toarray(matrix: CountMatrix) -> np.ndarray:
    """A dense float64 copy of a count matrix, shape (rows, n_cols)."""
    dense = np.zeros((len(matrix), matrix.n_cols))
    dense[matrix.row_ids(), matrix.indices] = matrix.data
    return dense


def chain_forest(depth: int, width: int) -> RfModel:
    """A one-tree forest whose tree is a chain of depth internal nodes.

    Node d tests feature d % (width + 2), so two of every width + 2 levels test
    a feature past a width-column matrix, which reads 0. A row leaves to the
    left at node d when its value is at most d / 100, or d / 100 - 12 for a
    feature past the width: rows pass those until level 1200. Leaf d holds
    [1, d, 1] / (d + 2), and the chain ends in the leaf [0, 1, 0]. In preorder,
    node 2d is split d, node 2d + 1 its left leaf and node 2d + 2 its right child.
    """
    feature, threshold, right, leaf = [], [], [], []
    for d in range(depth):
        f = d % (width + 2)
        feature += [f, -1]
        threshold += [d / 100 - (12 if f >= width else 0), 0.0]
        right += [2 * d + 2, -1]
        leaf.append(np.array([1.0, d, 1.0]) / (d + 2))
    tree = (feature + [-1], threshold + [0.0], right + [-1], np.array(leaf + [[0.0, 1.0, 0.0]]))
    return RfModel((tree,), feature_subsample=1, seed=0)


def oracle_transition(candidates: UserStats, graph: FollowerGraph) -> TransitionMatrix:
    """The transition weights built one candidate and one friend at a time.

    Walks candidates in table order and each one's friends in name order, so
    for candidates sorted by user_id the entries come out in (follower index,
    friend index) order.
    """
    index = {uid: i for i, uid in enumerate(candidates.users)}
    friends_of: dict[str, list[str]] = {}
    for follower, friend in sorted(graph_pairs(graph)):
        friends_of.setdefault(follower, []).append(friend)
    r = np.array(candidates.relevant.tolist(), dtype=float)
    v = np.array(candidates.v.tolist())
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for uid in candidates.users:
        i = index[uid]
        friends = [index[f] for f in friends_of.get(uid, ()) if f in index]
        if not friends:
            continue
        denom = r[friends].sum()
        for j in friends:
            sim = 1.0 - abs(v[i] - v[j])
            rows.append(i)
            cols.append(j)
            vals.append(float(r[j] / denom * sim))
    return TransitionMatrix(
        candidates.users,
        np.array(rows, dtype=int),
        np.array(cols, dtype=int),
        np.array(vals, dtype=float),
    )


def oracle_ranking_report(candidates: UserStats, rank_vector, config, metric: str = "tr") -> RankingReport:
    """The report built one user at a time: each metric's values in a dict keyed
    by user id, and each ordering a sort on (-value, user_id)."""
    counts = {
        uid: (r, t_k, t)
        for uid, r, t_k, t in zip(
            candidates.users, candidates.relevant.tolist(), candidates.harvest.tolist(),
            candidates.total.tolist(),
        )
    }
    values = {
        "tr": dict(zip(candidates.users, rank_vector.scores.tolist())),
        "tf": {uid: 100.0 * r / t_k for uid, (r, t_k, _) in counts.items()},
        "of": {uid: 100.0 * r / t for uid, (r, _, t) in counts.items()},
    }
    ranks: dict[str, dict[str, int]] = {}
    for name, vals in values.items():
        order = sorted(vals, key=lambda uid: (-vals[uid], uid))
        ranks[name] = {uid: pos + 1 for pos, uid in enumerate(order)}
    chosen = sorted(values[metric], key=lambda uid: (-values[metric][uid], uid))
    rows = []
    for uid in chosen[: config.k]:
        r, t_k, t = counts[uid]
        rows.append(
            RankRow(
                user_id=uid,
                relevant_count=r,
                harvest_count=t_k,
                total_count=t,
                tr_score=100.0 * values["tr"][uid],
                tr_rank=ranks["tr"][uid],
                topic_focus=values["tf"][uid],
                tf_rank=ranks["tf"][uid],
                overall_focus=values["of"][uid],
                of_rank=ranks["of"][uid],
            )
        )
    return RankingReport(tuple(rows), metric)


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


def oracle_dumps_json(obj: object) -> str:
    """`corpus.dumps_json` one element at a time, every value through one
    recursive writer: reals to 4 decimals, non-finite reals rejected, and
    only dicts, lists, strings, integers and reals accepted."""
    if type(obj) is int:
        return str(obj)
    if type(obj) is float:
        if not math.isfinite(obj):
            raise ValueError(f"cannot serialize non-finite real {obj!r}")
        return "{:.4f}".format(obj)
    if type(obj) is str:
        return json.dumps(obj, ensure_ascii=False)
    if type(obj) is list:
        return "[" + ",".join(oracle_dumps_json(item) for item in obj) + "]"
    if type(obj) is dict:
        return "{" + ",".join(
            json.dumps(key, ensure_ascii=False) + ":" + oracle_dumps_json(value)
            for key, value in obj.items()
        ) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


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


_CORPUS_REQUIRED = {"id": (str, int), "user": (str, int), "text": (str,), "created_at": (str,)}
_CORPUS_TYPE_NAMES = {str: "a string", int: "an integer"}
_LABEL_BY_VALUE = {label.value: label for label in Label}


def _record_problem(r: TweetRecord) -> str | None:
    """Why a record is invalid, or None: an empty id or user, a created_at that
    is not ISO 8601, or a user_total_tweets outside int64 >= 0."""
    if not r.id.strip():
        return "record id must be non-empty"
    if not r.user.strip():
        return f"record {r.id}: user must be non-empty"
    try:
        datetime.fromisoformat(r.created_at.replace("Z", "+00:00"))
    except ValueError:
        return f"record {r.id}: created_at is not ISO 8601: {r.created_at!r}"
    total = r.user_total_tweets
    if total is not None and (type(total) is not int or not 0 <= total <= 2**63 - 1):
        return f"record {r.id}: user_total_tweets must be an int64 >= 0, got {total!r}"
    return None


def oracle_load_corpus(path) -> dict[str, list]:
    """A corpus file read one json.loads and one TweetRecord per line.

    Returns the columns as plain lists: ids, users, texts, created_at, y
    (class ids, -1 for no label) and user_total_tweets (-1 when absent).
    Raises ValueError naming the first bad line. Besides the record's own
    checks, it rejects a lone surrogate in id, user or text. Bytes that are not
    UTF-8 fail before any line is checked, naming the first line that holds
    them: text mode decodes a file this small in one read-ahead block.
    """
    for lineno, raw in enumerate(re.split(rb"\r\n|\r|\n", Path(path).read_bytes()), 1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: line {lineno}: not valid UTF-8: {exc}") from None
    records: list[TweetRecord] = []
    seen_ids: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"{path}: line {lineno}: invalid JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise ValueError(f"{path}: line {lineno}: expected a JSON object")
            for key, types in _CORPUS_REQUIRED.items():
                if key not in obj:
                    raise ValueError(f"{path}: line {lineno}: missing field {key!r}")
                if type(obj[key]) not in types:
                    kind = " or ".join(_CORPUS_TYPE_NAMES[t] for t in types)
                    raise ValueError(
                        f"{path}: line {lineno}: field {key!r} must be {kind}, got {obj[key]!r}"
                    )
            unknown = set(obj) - set(_CORPUS_REQUIRED) - {"label", "user_total_tweets"}
            if unknown:
                raise ValueError(f"{path}: line {lineno}: unknown field(s) {sorted(unknown)}")
            label = None
            if obj.get("label") is not None:
                if not isinstance(obj["label"], str) or obj["label"] not in _LABEL_BY_VALUE:
                    raise ValueError(f"{path}: line {lineno}: unknown label {obj['label']!r}")
                label = _LABEL_BY_VALUE[obj["label"]]
            record = TweetRecord(
                id=str(obj["id"]),
                user=str(obj["user"]),
                text=obj["text"],
                created_at=obj["created_at"],
                label=label,
                user_total_tweets=obj.get("user_total_tweets"),
            )
            problem = _record_problem(record)
            if problem:
                raise ValueError(f"{path}: line {lineno}: {problem}")
            for key in ("id", "user", "text"):
                lone = re.search(r"[\ud800-\udfff]", getattr(record, key))
                if lone:
                    raise ValueError(
                        f"{path}: line {lineno}: field {key!r} holds a lone surrogate "
                        f"{lone.group()!r}"
                    )
            if record.id in seen_ids:
                raise ValueError(f"{path}: line {lineno}: duplicate record id {record.id!r}")
            seen_ids.add(record.id)
            records.append(record)
    return {
        "ids": [r.id for r in records],
        "users": [r.user for r in records],
        "texts": [r.text for r in records],
        "created_at": [r.created_at for r in records],
        "y": [-1 if r.label is None else LABEL_ORDER.index(r.label) for r in records],
        "user_total_tweets": [
            -1 if r.user_total_tweets is None else r.user_total_tweets for r in records
        ],
    }


def oracle_parser() -> argparse.ArgumentParser:
    """The command line's parser built whole: every flag on every command."""
    parser = argparse.ArgumentParser(
        prog="sensor-rank",
        description="Classify topic-relevant posts and rank candidate social sensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="JSON config file; flags override it")
        for key in _KEYS.values():  # a list key takes one or more words
            many = key.type is list
            sp.add_argument(
                "--" + key.name.replace("_", "-"), type=str if many else key.type,
                nargs="+" if many else None, choices=key.choices, help=key.help,
            )
    return parser
