import inspect
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensor_rank import classify, forest
from sensor_rank.classify import (
    LabeledDataset,
    TrainingConfig,
    cross_validate,
    dataset_from_corpus,
    evaluate,
    load_model,
    predict_many,
    save_model,
    smote,
    subsample_spread,
    train_mnnb,
)
from sensor_rank.corpus import LABEL_ORDER, Label, dumps_json
from sensor_rank.forest import train_rf
from sensor_rank.text import Vocabulary

from oracles import (
    TweetRecord,
    chain_forest,
    class_ids,
    count_matrix,
    from_records,
    oracle_dumps_json,
    oracle_evaluate,
    oracle_forest_proba,
    oracle_nb_posterior,
    oracle_smote,
)

R, N, Z = Label.RELEVANT, Label.NEWS, Label.NOISE


def make_vocab(size, n_max=1):
    return Vocabulary(term_to_id={f"w{i}": i for i in range(size)}, n_max=n_max)


def matrix(rows, n_cols=None):
    """CountMatrix of {term id: count} rows; n_cols defaults to 1 + the largest id."""
    if n_cols is None:
        n_cols = 1 + max((t for row in rows for t in row), default=-1)
    return count_matrix(rows, n_cols)


def rows_of(m):
    """The rows of a CountMatrix as {term id: value} dicts, entry order kept."""
    return [dict(zip(*(a.tolist() for a in m.row(i)))) for i in range(len(m))]


def predict(model, query):
    """predict_many on a single query row: its class probabilities."""
    return predict_many(model, matrix([query], 100))[0]


def make_data(vectors, labels, vocab_size):
    return LabeledDataset(matrix(vectors, vocab_size), class_ids(labels), make_vocab(vocab_size))


def labels_of(data):
    return [LABEL_ORDER[c] for c in data.y]


def toy_data():
    """Four tiny documents over a 4-term vocabulary, all classes present."""
    return make_data(
        [{0: 2, 1: 1}, {0: 1, 2: 1}, {1: 2, 3: 1}, {2: 1, 3: 2}],
        [R, R, N, Z],
        4,
    )


def random_data(rng, n, v_size):
    vectors = []
    labels = [R, N, Z] * 2  # guarantee every class
    labels += [Label(LABELS[rng.integers(3)]) for _ in range(n - 6)]
    for _ in range(n):
        nz = rng.integers(1, v_size + 1)
        tids = rng.choice(v_size, size=nz, replace=False)
        vectors.append({int(t): float(rng.integers(1, 4)) for t in tids})
    return make_data(vectors, labels, v_size)


LABELS = [label.value for label in (R, N, Z)]


def test_dataset_length_mismatch():
    with pytest.raises(ValueError, match="vectors"):
        make_data([{0: 1}], [R, N], 2)
    with pytest.raises(ValueError, match="^2 columns vs 3 vocabulary terms$"):
        LabeledDataset(matrix([{0: 1}], 2), class_ids([R]), make_vocab(3))


@pytest.mark.parametrize("y, match", [
    (np.array([0.0]), "int64"),
    (np.array([[0]]), "int64"),
    ([0], "int64"),
    (np.array([3]), "class ids"),
    (np.array([-1]), "class ids"),
])
def test_dataset_rejects_bad_class_ids(y, match):
    with pytest.raises(ValueError, match=match):
        LabeledDataset(matrix([{0: 1}], 2), y, make_vocab(2))


def test_dataset_class_counts_and_subset():
    data = toy_data()
    assert data.class_counts().tolist() == [2, 1, 1]
    sub = data.subset([2, 0])
    assert labels_of(sub) == [N, R]
    assert rows_of(sub.matrix)[1] == {0: 2.0, 1: 1.0}


def test_dataset_from_corpus_skips_unlabeled():
    records = (
        TweetRecord(id="t1", user="a", text="zika zika", created_at="2016-09-01T00:00:00Z",
                    label=R),
        TweetRecord(id="t2", user="a", text="sem etiqueta", created_at="2016-09-01T00:00:00Z"),
        TweetRecord(id="t3", user="b", text="bom dia", created_at="2016-09-01T00:00:00Z",
                    label=Z),
    )
    corpus = from_records(records)
    vocab = make_vocab(0)
    vocab.term_to_id.update({"zika": 0, "bom": 1, "dia": 2})
    data = dataset_from_corpus(corpus, vocab=vocab)
    assert labels_of(data) == [R, Z]
    assert rows_of(data.matrix) == [{0: 2.0}, {1: 1.0, 2: 1.0}]


def test_train_mnnb_validation():
    data = toy_data()
    with pytest.raises(ValueError, match="alpha"):
        train_mnnb(data, alpha=0)
    with pytest.raises(ValueError, match="empty"):
        train_mnnb(make_data([], [], 2))
    with pytest.raises(ValueError, match="News"):
        train_mnnb(make_data([{0: 1}, {1: 1}], [R, Z], 2))


def test_train_mnnb_distributions_normalized():
    model = train_mnnb(toy_data())
    np.testing.assert_allclose(np.exp(model.class_log_prior).sum(), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.exp(model.term_log_prob).sum(axis=1), 1.0, atol=1e-12)


def test_mnnb_scatter_matches_plain_loops_bit_for_bit():
    """The CSR scatters add in row then entry order, as per-entry loops do."""
    rng = np.random.default_rng(43)
    data = random_data(rng, 40, 15)
    synthetic = smote(data.matrix.rows(range(20)), 100, 3, 5)  # real-valued rows
    y = np.concatenate([data.y, class_ids([R] * 20)])
    data = LabeledDataset(data.matrix.concat(synthetic), y, data.vocab)
    model = train_mnnb(data, alpha=0.5)
    counts = np.zeros((3, 15))
    for vec, label in zip(rows_of(data.matrix), labels_of(data)):
        for tid, cnt in vec.items():
            counts[[R, N, Z].index(label), tid] += cnt
    totals = counts.sum(axis=1, keepdims=True)
    assert np.array_equal(model.term_log_prob, np.log((counts + 0.5) / (totals + 0.5 * 15)))
    for vec, probs in zip(rows_of(data.matrix), predict_many(model, data.matrix)):
        log_post = model.class_log_prior.copy()
        for tid, cnt in vec.items():
            log_post += cnt * model.term_log_prob[:, tid]
        want = np.exp(log_post - log_post.max())
        want /= want.sum()
        assert probs.tolist() == want.tolist()


def test_mnnb_matches_exact_rational_posterior():
    data = toy_data()
    model = train_mnnb(data, alpha=1.0)
    int_vectors = [{k: int(v) for k, v in vec.items()} for vec in rows_of(data.matrix)]
    queries = [{0: 1}, {0: 2, 3: 1}, {1: 1, 2: 2}, {}, {0: 1, 1: 1, 2: 1, 3: 1}]
    for query in queries:
        probs = predict(model, {k: float(v) for k, v in query.items()})
        exact = oracle_nb_posterior(int_vectors, labels_of(data), 4, 1.0, query)
        for j, label in enumerate((R, N, Z)):
            assert abs(probs[j] - exact[label]) <= 1e-12


def test_mnnb_fractional_alpha_matches_oracle():
    data = toy_data()
    model = train_mnnb(data, alpha=0.5)
    int_vectors = [{k: int(v) for k, v in vec.items()} for vec in rows_of(data.matrix)]
    probs = predict(model, {0: 1.0, 3: 1.0})
    exact = oracle_nb_posterior(int_vectors, labels_of(data), 4, 0.5, {0: 1, 3: 1})
    for j, label in enumerate((R, N, Z)):
        assert abs(probs[j] - exact[label]) <= 1e-12


def test_predict_tie_prefers_earlier_class():
    # balanced priors and an empty query leave a three-way tie
    data = make_data([{0: 1}, {1: 1}, {2: 1}], [R, N, Z], 3)
    model = train_mnnb(data)
    probs = predict(model, {})
    assert LABEL_ORDER[probs.argmax()] is R
    np.testing.assert_allclose(probs, [1 / 3] * 3, atol=1e-12)

    # two-way tie at the top: News outranks Noise at equal posterior
    data = make_data([{0: 1}, {1: 1}, {1: 1}, {2: 1}, {2: 1}], [R, N, N, Z, Z], 3)
    probs = predict(train_mnnb(data), {})
    assert probs[1] == probs[2]
    assert LABEL_ORDER[probs.argmax()] is N


def test_predict_rejects_unknown_model(tmp_path):
    """predict_many and save_model refuse a model of neither kind; save_model writes nothing."""
    with pytest.raises(TypeError):
        predict_many(object(), matrix([{0: 1.0}]))
    path = tmp_path / "model.json"
    with pytest.raises(TypeError, match="^unsupported model type: object$"):
        save_model(object(), make_vocab(1), "h", path)
    assert not path.exists()


def test_predict_many_matches_single_mnnb():
    rng = np.random.default_rng(7)
    data = random_data(rng, 30, 12)
    model = train_mnnb(data)
    queries = rows_of(data.matrix) + [{}, {99: 5.0}]
    batch = predict_many(model, matrix(queries))
    for query, probs in zip(queries, batch):
        one_probs = predict(model, query)
        assert probs.argmax() == one_probs.argmax()
        assert np.abs(probs - one_probs).max() <= 1e-12


def test_predict_many_matches_single_rf():
    rng = np.random.default_rng(11)
    data = random_data(rng, 24, 8)
    model = train_rf(data, n_trees=5, seed=3)
    batch = predict_many(model, data.matrix)
    for query, probs in zip(rows_of(data.matrix), batch):
        one_probs = predict(model, query)
        assert probs.argmax() == one_probs.argmax()
        assert probs.tolist() == one_probs.tolist()


def test_smote_validation():
    minority = matrix([{0: float(i)} for i in range(6)])
    with pytest.raises(ValueError, match="percent"):
        smote(minority, 150, 5, 1)
    with pytest.raises(ValueError, match="percent"):
        smote(minority, -100, 5, 1)
    with pytest.raises(ValueError, match="k"):
        smote(minority, 100, 0, 1)
    with pytest.raises(ValueError, match="minority"):
        smote(minority, 100, 6, 1)


def test_smote_counts():
    minority = matrix([{0: float(i), 1: 1.0} for i in range(8)])
    assert rows_of(smote(minority, 0, 5, 1)) == []
    assert len(smote(minority, 100, 5, 1)) == 8
    assert len(smote(minority, 300, 5, 1)) == 24


def test_smote_deterministic():
    rng = np.random.default_rng(5)
    minority = matrix([
        {int(t): float(rng.integers(1, 4)) for t in rng.choice(10, size=3, replace=False)}
        for _ in range(20)
    ])
    assert rows_of(smote(minority, 200, 5, 42)) == rows_of(smote(minority, 200, 5, 42))
    assert rows_of(smote(minority, 200, 5, 42)) != rows_of(smote(minority, 200, 5, 43))


def test_smote_ignores_unused_columns():
    # the same rows inside a vastly wider matrix give the same synthetic rows
    rng = np.random.default_rng(6)
    rows = [
        {int(t): float(rng.integers(1, 4)) for t in sorted(rng.choice(40, size=4, replace=False))}
        for _ in range(12)
    ]
    narrow = smote(matrix(rows), 200, 3, 8)
    spread = matrix([{t * 25_000: c for t, c in row.items()} for row in rows], 1_000_000)
    tracemalloc.start()
    try:
        wide = smote(spread, 200, 3, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a dense block at the full width would take 12 x 1e6 x 8 bytes = 96 MB
    assert peak < 8_000_000
    assert wide.n_cols == 1_000_000
    assert rows_of(wide) == [{t * 25_000: c for t, c in row.items()} for row in rows_of(narrow)]


def test_smote_matches_brute_force_across_blocks():
    # small counts over few columns: many distance ties, broken by index
    rng = np.random.default_rng(15)
    n, dim, k = 700, 10, 4
    assert n > 2 * classify._SMOTE_BLOCK
    rows = [
        {int(t): float(rng.integers(1, 4)) for t in rng.choice(dim, size=rng.integers(1, 4),
                                                                replace=False)}
        for _ in range(n)
    ]
    got = rows_of(smote(matrix(rows, dim), 200, k, 31))
    assert [list(row.items()) for row in got] == [
        list(row.items()) for row in oracle_smote(rows, dim, 200, k, 31)
    ]


def split_gram_rows(rng, n, frequent, rare):
    """n integer rows: each frequent column in about half of them, plus one to
    three of the rare columns per row, in shuffled entry order."""
    rows = []
    for _ in range(n):
        cols = [c for c in range(frequent) if rng.random() < 0.5]
        cols += [frequent + int(c) for c in rng.choice(rare, size=rng.integers(1, 4),
                                                       replace=False)]
        rows.append({c: float(rng.integers(1, 4)) for c in rng.permutation(cols).tolist()})
    return rows


def test_smote_matches_brute_force_with_dense_and_sparse_gram_parts():
    rng = np.random.default_rng(16)
    n, frequent, rare, k = 300, 4, 400, 5
    assert n > classify._SMOTE_BLOCK
    rows = split_gram_rows(rng, n, frequent, rare)
    nnz = np.bincount([c for row in rows for c in row], minlength=frequent + rare)
    # both parts of the Gram run: frequent columns go dense, the rest sparse
    assert (nnz[:frequent] > n / 100).all() and (nnz[frequent:] <= n / 100).sum() > 300
    dim = frequent + rare
    got = rows_of(smote(matrix(rows, dim), 100, k, 4))
    assert [list(row.items()) for row in got] == [
        list(row.items()) for row in oracle_smote(rows, dim, 100, k, 4)
    ]


def test_exact_neighbors_do_not_depend_on_the_dense_sparse_split():
    rng = np.random.default_rng(17)
    n, k = 290, 4
    rows = split_gram_rows(rng, n, 5, 60)
    rows += [dict(rows[3])] * 6 + [{}] * 3  # exact ties, and empty rows
    X = matrix([dict(sorted(row.items())) for row in rows])
    every = np.ones(X.n_cols, dtype=bool)
    split = rng.random(X.n_cols) < 0.5
    assert split.any() and not split.all()
    want = []
    for i, row in enumerate(rows):
        d2 = [sum((row.get(c, 0) - other.get(c, 0)) ** 2 for c in {*row, *other})
              for other in rows]
        want.append([j for _, j in sorted((d, j) for j, d in enumerate(d2) if j != i)[:k]])
    for dense in (every, ~every, split):
        assert classify._nearest_exact(X, X.columns(), k, dense).tolist() == want


def test_smote_many_identical_rows_pick_the_lowest_indices():
    rows = [{0: 1.0, 2: 2.0}] * 12 + [{0: 1.0, 2: 3.0}, {1: 5.0}] + [{0: 1.0, 2: 2.0}] * 3
    k = 4
    X = matrix(rows)
    ids = classify._nearest_exact(X, X.columns(), k, np.zeros(X.n_cols, dtype=bool))
    same = [i for i, row in enumerate(rows) if row == rows[0]]
    for i in same:
        assert ids[i].tolist() == [j for j in same if j != i][:k]
    got = rows_of(smote(X, 200, k, 3))
    assert got == oracle_smote(rows, X.n_cols, 200, k, 3)


@pytest.mark.parametrize("case", ["real values", "sum of squares above 2^24"])
def test_smote_falls_back_to_float64_beyond_the_exact_range(case):
    rng = np.random.default_rng(18)
    rows = [{int(c): float(rng.integers(1, 4)) for c in rng.choice(6, size=3, replace=False)}
            for _ in range(30)]
    if case == "real values":
        rows[7][1] = 1.5
        with pytest.raises(ValueError, match="integer counts"):
            smote(matrix(rows, 6), 200, 3, 5)
        return
    rows[7] = {0: 4097.0}  # 4097^2 > 2^24: the dense block is float64
    got = rows_of(smote(matrix(rows, 6), 200, 3, 5))
    assert got == oracle_smote(rows, 6, 200, 3, 5)


def test_smote_uses_the_exact_search_up_to_2_to_the_24():
    # 4096^2 == 2^24 keeps the float32 block; one more unit of S takes float64
    for extra in ({}, {1: 1.0}):
        rows = [{0: 4096.0, **extra}] + [{0: float(i), 1: 1.0} for i in range(8)]
        assert rows_of(smote(matrix(rows, 2), 100, 3, 2)) == oracle_smote(rows, 2, 100, 3, 2)
    # past 2^24, products such as 4097 * 4099 are odd integers float32 cannot
    # hold; row 0 ties rows 1 and 2 at d2 = 4 and must take row 1 first
    rows = [{0: 4097.0}, {0: 4097.0, 1: 2.0}, {0: 4099.0}]
    rows += [{0: float(i), 1: 1.0} for i in range(8)]
    X = matrix(rows, 2)
    assert classify._nearest_exact(X, X.columns(), 2, np.ones(2, dtype=bool))[0].tolist() == [1, 2]
    assert rows_of(smote(X, 300, 2, 2)) == oracle_smote(rows, 2, 300, 2, 2)


def test_smote_refuses_sums_of_squares_beyond_exact_keys():
    rows = [{0: float(i), 1: 1.0} for i in range(8)]
    # S = 2 * (2^26)^2 == 2^53 is past float64's exact integers
    wide = [{0: 2.0**26, 1: 2.0**26}] + rows
    with pytest.raises(ValueError, match="sum of squares"):
        smote(matrix(wide, 2), 100, 3, 2)
    below = [{0: 2.0**26, 1: 2.0**26 - 1}] + rows
    assert rows_of(smote(matrix(below, 2), 100, 3, 2)) == oracle_smote(below, 2, 100, 3, 2)
    # below 2^53, but S = 2^52 + 1 > 2^60 // 257 rows: d2 * n + j may not fit int64
    many = [{0: 2.0**26, 1: 1.0}] + rows * 32
    assert len(many) > 256 and 2**52 + 1 > 2**60 // len(many)
    with pytest.raises(ValueError, match="sum of squares"):
        smote(matrix(many, 2), 100, 3, 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_smote_refuses_non_finite_counts(bad):
    rows = [{0: float(i), 1: 1.0} for i in range(8)]
    rows[3][1] = bad
    with pytest.raises(ValueError, match="integer counts|sum of squares"):
        smote(matrix(rows, 2), 100, 3, 2)


def test_smote_memory_follows_nonzeros_past_2_to_the_24():
    # one long row pushes S past 2^24; every column is rare, so no dense
    # rows x rows or rows x columns array is needed
    n = 2000
    rows = [{1 + i: 1.0} for i in range(n)] + [{0: 4097.0}]
    minority = matrix(rows)
    tracemalloc.start()
    try:
        got = smote(minority, 100, 5, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a dense float64 copy of the minority alone takes 2001 x 2001 x 8 = 32 MB
    assert peak < 24_000_000
    assert len(got) == n + 1


def test_smote_identical_sources_reproduce_themselves():
    minority = matrix([{0: 2.0, 3: 1.0}] * 7)
    for point in rows_of(smote(minority, 100, 5, 9)):
        assert point == {0: 2.0, 3: 1.0}


def test_smote_points_lie_between_source_and_a_nearest_neighbor():
    """Brute-force check: every synthetic sits on a segment from its source
    to one of the source's k nearest neighbors (ties included)."""
    rng = np.random.default_rng(20160901)
    n, dim, k = 40, 8, 3
    minority = []
    for _ in range(n):
        tids = rng.choice(dim, size=rng.integers(1, 5), replace=False)
        minority.append({int(t): float(rng.integers(1, 6)) for t in tids})
    dense = np.zeros((n, dim))
    for i, vec in enumerate(minority):
        for t, c in vec.items():
            dense[i, t] = c
    synthetic = rows_of(smote(matrix(minority), 200, k, 77))
    assert len(synthetic) == 2 * n
    for idx, point in enumerate(synthetic):
        i = idx % n
        y = np.zeros(dim)
        for t, c in point.items():
            y[t] = c
        d = np.sqrt(((dense - dense[i]) ** 2).sum(axis=1))
        d[i] = np.inf
        kth = np.sort(d)[k - 1]
        admissible = [j for j in range(n) if d[j] <= kth + 1e-12]
        ok = False
        for j in admissible:
            lo = np.minimum(dense[i], dense[j]) - 1e-9
            hi = np.maximum(dense[i], dense[j]) + 1e-9
            if not ((y >= lo) & (y <= hi)).all():
                continue
            diff = dense[j] - dense[i]
            moving = np.abs(diff) > 0
            if not moving.any():
                ok = ok or np.allclose(y, dense[i])
                continue
            lam = (y[moving] - dense[i][moving]) / diff[moving]
            if np.allclose(lam, lam[0], atol=1e-9) and -1e-12 <= lam[0] < 1.0:
                ok = True
                break
        assert ok, f"synthetic {idx} is not on any admissible segment"


def test_subsample_spread_caps_majorities():
    data = make_data(
        [{0: 1}] * 100 + [{1: 1}] * 50 + [{2: 1}] * 10,
        [N] * 100 + [Z] * 50 + [R] * 10,
        3,
    )
    out = subsample_spread(data, 1.0, 4)
    assert out.class_counts().tolist() == [10, 10, 10]
    out2 = subsample_spread(data, 2.0, 4)
    assert out2.class_counts().tolist() == [10, 20, 20]


def test_subsample_spread_no_op_when_within_ratio():
    data = toy_data()
    out = subsample_spread(data, 2.0, 1)
    assert rows_of(out.matrix) == rows_of(data.matrix)
    assert np.array_equal(out.y, data.y)


def test_subsample_spread_keeps_original_order_and_minority():
    rng = np.random.default_rng(13)
    data = random_data(rng, 40, 6)
    out = subsample_spread(data, 1.5, 99)
    # survivors appear in their original relative order
    pos = 0
    vectors = rows_of(data.matrix)
    for vec, c in zip(rows_of(out.matrix), out.y):
        while vectors[pos] != vec or data.y[pos] != c:
            pos += 1
        pos += 1
    counts = data.class_counts()
    smallest = counts.argmin()
    assert out.class_counts()[smallest] == counts[smallest]


def test_subsample_spread_validation():
    with pytest.raises(ValueError, match="max_ratio"):
        subsample_spread(toy_data(), 0.5, 1)
    with pytest.raises(ValueError, match="^cannot subsample an empty dataset$"):
        subsample_spread(make_data([], [], 2), 2.0, 1)


def test_subsample_spread_deterministic():
    rng = np.random.default_rng(17)
    data = random_data(rng, 30, 5)
    a = subsample_spread(data, 1.0, 8)
    b = subsample_spread(data, 1.0, 8)
    assert rows_of(a.matrix) == rows_of(b.matrix) and np.array_equal(a.y, b.y)


def test_evaluate_perfect_predictions():
    report = evaluate(np.eye(3), class_ids([R, N, Z]))
    assert report.accuracy == 1.0
    assert report.weighted_f == pytest.approx(1.0)
    assert report.rmse == 0.0
    assert np.array_equal(report.confusion, np.eye(3, dtype=int))


def test_evaluate_hand_tally():
    truth = class_ids([R, R, N, Z])
    # predicted R, N, N, Z: certain of each, so only the second row errs
    probs = np.eye(3)[[0, 1, 1, 2]]
    report = evaluate(probs, truth)
    assert report.accuracy == 0.75
    assert np.array_equal(report.confusion, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    prec, rec, f1 = report.per_class[R]
    assert (prec, rec) == (1.0, 0.5)
    assert f1 == pytest.approx(2 / 3)
    assert report.weighted_f == pytest.approx(0.5 * (2 / 3) + 0.25 * (2 / 3) + 0.25)
    assert report.rmse == pytest.approx(math.sqrt(2 / 12))


def test_evaluate_zero_denominators():
    # a three-way tie predicts the earliest class, Relevant
    report = evaluate(np.full((2, 3), 1 / 3), class_ids([R, R]))
    assert report.accuracy == 1.0
    assert report.per_class[N] == (0.0, 0.0, 0.0)
    assert report.weighted_f == pytest.approx(1.0)


def test_evaluate_validation():
    with pytest.raises(ValueError, match="predictions"):
        evaluate(np.full((1, 3), 1 / 3), class_ids([R, N]))
    with pytest.raises(ValueError, match="evaluate"):
        evaluate(np.empty((0, 3)), class_ids([]))


def test_evaluate_matches_per_row_oracle():
    rng = np.random.default_rng(47)
    tied = np.array([[1, 1, 1], [2, 2, 1], [1, 2, 2], [2, 1, 2], [0, 3, 3]]) / [[3], [5], [5], [5], [6]]
    for n in (1, 2, 7, 50, 400, 20_000):
        probs = rng.dirichlet(np.ones(3), size=n)
        # small-integer rows tie often
        coarse = rng.integers(0, 3, size=(n, 3)) + 0.5
        coarse /= coarse.sum(axis=1, keepdims=True)
        for p in (probs, coarse, np.concatenate([probs, tied, coarse])):
            y = rng.integers(0, 3, size=len(p))
            got, want = evaluate(p, y), oracle_evaluate(p, y)
            assert np.array_equal(got.confusion, want.confusion)
            assert got.accuracy == want.accuracy
            assert got.per_class == want.per_class
            assert got.weighted_f == want.weighted_f
            assert got.rmse == want.rmse
    # errors whose square differs by an ulp between Python's ** (libm pow) and
    # a plain product; one error per row, so the rmse shows the difference
    odd = [v for v in rng.random(20_000).tolist() if v**2 != v * v]
    assert odd
    for v in odd:
        p, y = np.array([[v, 1.0, 0.0]]), np.array([1])
        assert evaluate(p, y).rmse == oracle_evaluate(p, y).rmse


def test_cross_validate_validation():
    data = toy_data()
    with pytest.raises(ValueError, match="folds"):
        cross_validate(data, TrainingConfig(classifier="mnnb", smote_percent=0, folds=1), 1)
    # News has a single document, so two folds cannot both contain one
    with pytest.raises(ValueError, match="News"):
        cross_validate(data, TrainingConfig(classifier="mnnb", smote_percent=0, folds=2), 1)


def test_cross_validate_matches_symmetric_oracle():
    """Three identical documents per class and three folds: every training
    fold holds exactly two copies of each document, so the per-instance
    posteriors are computable exactly without knowing the fold layout."""
    doc = {R: {0: 3.0}, N: {1: 3.0}, Z: {2: 3.0}}
    vectors = [doc[y] for y in (R, N, Z) for _ in range(3)]
    labels = [y for y in (R, N, Z) for _ in range(3)]
    data = make_data(vectors, labels, 3)
    config = TrainingConfig(classifier="mnnb", smote_percent=0, folds=3)
    report = cross_validate(data, config, seed=5)

    train_vectors = []
    train_labels = []
    for y in (R, N, Z):
        int_doc = {k: int(v) for k, v in doc[y].items()}
        train_vectors += [int_doc, int_doc]
        train_labels += [y, y]
    expected = []
    for y in labels:
        probs = oracle_nb_posterior(
            train_vectors, train_labels, 3, 1.0, {k: int(v) for k, v in doc[y].items()}
        )
        expected.append([probs[label] for label in (R, N, Z)])
    want = evaluate(np.array(expected), class_ids(labels))
    assert report.accuracy == want.accuracy == 1.0
    assert np.array_equal(report.confusion, want.confusion)
    assert report.rmse == pytest.approx(want.rmse, abs=1e-12)


def test_cross_validate_rebalancing_leaves_holdout_alone():
    rng = np.random.default_rng(31)
    data = random_data(rng, 36, 10)
    config = TrainingConfig(classifier="mnnb", smote_percent=100, smote_k=1,
                            spread_ratio=3.0, folds=3)
    report = cross_validate(data, config, seed=2)
    row_sums = report.confusion.sum(axis=1)
    assert row_sums.tolist() == data.class_counts().tolist()


def test_cross_validate_deterministic():
    rng = np.random.default_rng(37)
    data = random_data(rng, 30, 8)
    config = TrainingConfig(classifier="rf", n_trees=5, smote_percent=100, smote_k=1, folds=2)
    a = cross_validate(data, config, seed=9)
    b = cross_validate(data, config, seed=9)
    assert a.accuracy == b.accuracy
    assert a.rmse == b.rmse
    assert np.array_equal(a.confusion, b.confusion)


def test_training_config_validation():
    with pytest.raises(ValueError, match="classifier"):
        TrainingConfig(classifier="svm")
    for field, value in [("ngrams", 0), ("ngrams", 4), ("folds", 1)]:
        with pytest.raises(ValueError, match=f"^{field} must be"):
            TrainingConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("alpha", 0.0), ("alpha", -1.0), ("alpha", math.nan), ("alpha", math.inf),
    ("spread_ratio", 0.5), ("spread_ratio", math.nan), ("spread_ratio", math.inf),
])
def test_training_config_rejects_bad_alpha_and_spread_ratio(field, value):
    with pytest.raises(ValueError, match=field):
        TrainingConfig(**{field: value})


def test_dumps_json_formatting():
    doc = {"a": 1, "b": [2, "texto çã"], "c": 0.5, "d": {"e": [[-3, 2.25]]}}
    assert dumps_json(doc) == '{"a":1,"b":[2,"texto çã"],"c":0.5000,"d":{"e":[[-3,2.2500]]}}'
    assert dumps_json([1 / 3, -2e-5, 12345.67891]) == "[0.3333,-0.0000,12345.6789]"
    with pytest.raises(ValueError, match="non-finite"):
        dumps_json(float("nan"))
    # only what the eval file and the rank reports hold
    for value in (object(), True, None, (1,), np.float64(0.5), np.int64(1)):
        with pytest.raises(TypeError):
            dumps_json({"x": value})


json_documents = st.recursive(
    st.integers(-(2**70), 2**70) | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(json_documents)
def test_dumps_json_matches_recursive_writer(doc):
    assert dumps_json(doc) == oracle_dumps_json(doc)


@settings(max_examples=50, deadline=None)
@given(json_documents, st.sampled_from([math.nan, math.inf, -math.inf]), st.booleans())
def test_dumps_json_rejects_non_finite_reals(doc, bad, in_list):
    spliced = {"doc": doc, "bad": [0.5, bad] if in_list else bad}
    for write in (dumps_json, oracle_dumps_json):
        with pytest.raises(ValueError, match="non-finite"):
            write(spliced)


def test_model_roundtrip_mnnb(tmp_path):
    data = toy_data()
    model = train_mnnb(data, alpha=1.0)
    path = tmp_path / "model.json"
    save_model(model, data.vocab, "abc123", path)
    loaded, vocab, table_hash = load_model(path)
    assert table_hash == "abc123"
    assert vocab.terms_in_id_order() == data.vocab.terms_in_id_order()
    assert vocab.n_max == data.vocab.n_max
    # reals written as repr read back as the same floats
    assert np.array_equal(loaded.class_log_prior, model.class_log_prior)
    assert np.array_equal(loaded.term_log_prob, model.term_log_prob)
    assert loaded.alpha == model.alpha


def test_model_roundtrip_rf(tmp_path):
    rng = np.random.default_rng(41)
    data = random_data(rng, 20, 6)
    model = train_rf(data, n_trees=4, seed=12)
    path = tmp_path / "model.json"
    save_model(model, data.vocab, "h", path)
    loaded, _, _ = load_model(path)
    assert len(loaded.trees) == 4
    for query in rows_of(data.matrix):
        assert np.array_equal(predict(loaded, query), predict(model, query))


@pytest.mark.parametrize("make", [
    lambda: train_mnnb(toy_data()),
    lambda: train_rf(random_data(np.random.default_rng(41), 20, 6), n_trees=2, seed=12),
    lambda: evaluate(np.eye(3)[[0, 1, 2, 0]], np.array([0, 1, 2, 1])),
], ids=["mnnb", "rf", "eval report"])
def test_models_and_reports_compare_and_hash_by_identity(make):
    # their array and dict fields have no plain truth value or hash
    a, b = make(), make()
    assert a == a and a != b and not a == b
    assert len({a, b, a}) == 2


def test_a_5000_level_chain_saves_loads_and_predicts(tmp_path):
    # features 5 and 6 lie in the 7-term vocabulary but past the 5-column rows
    model, path = chain_forest(5000, 5), tmp_path / "model.json"
    save_model(model, make_vocab(7), "h", path)
    loaded, _, _ = load_model(path)
    assert loaded.params() == model.params()
    rng = np.random.default_rng(22)
    X = matrix([{int(c): float(rng.integers(1, 60)) for c in rng.choice(5, size=3, replace=False)}
                for _ in range(40)] + [{c: 59.0 for c in range(5)}], 5)
    assert np.array_equal(predict_many(loaded, X), oracle_forest_proba(model, X))


def test_a_loaded_forest_is_saved_with_0_at_its_leaves(tmp_path):
    # no leaf reads its threshold, so a file's value there does not survive a reload
    path = tmp_path / "model.json"
    save_model(chain_forest(3, 1), make_vocab(3), "h", path)
    written = path.read_text(encoding="utf-8")
    doc = json.loads(written)
    tree = doc["params"]["trees"][0]
    tree["threshold"] = [7 if f == -1 else t for f, t in zip(tree["feature"], tree["threshold"])]
    path.write_text(json.dumps(doc), encoding="utf-8")
    save_model(*load_model(path), path)
    assert path.read_text(encoding="utf-8") == written


def test_traced_classify_and_forest_names_stay_readable():
    """perfbench/tracer.py wraps these names, counts len(smote(...)) and the size of
    the file save_model writes to its fourth argument, path, and counts a trained
    forest's nodes by walking each tree through .dist, .left and .right."""
    for module, names in [
        (classify, ["dataset_from_corpus", "train_mnnb", "predict_many", "smote", "save_model",
                    "load_model"]),
        (forest, ["train_rf"]),
    ]:
        for name in names:
            fn = getattr(module, name)
            assert name in module.__all__
            assert inspect.isfunction(fn) and fn.__module__ == module.__name__
    assert list(inspect.signature(save_model).parameters)[3] == "path"
    assert len(smote(matrix([{0: 1.0}, {1: 2.0}, {0: 1.0, 1: 1.0}]), 200, 1, 0)) == 6
    model = train_rf(random_data(np.random.default_rng(5), 30, 6), n_trees=3, seed=1)
    nodes, leaves, stack = 0, 0, list(model.trees)
    while stack:
        node = stack.pop()
        nodes += 1
        if node.dist is None:
            stack.extend((node.left, node.right))
        else:
            leaves += 1
            assert node.dist.shape == (3,)
    assert nodes == 2 * leaves - len(model.trees) > len(model.trees)


def test_load_model_rejects_foreign_files(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"format": "something-else"}', encoding="utf-8")
    with pytest.raises(ValueError, match="file"):
        load_model(path)
    data = toy_data()
    save_model(train_mnnb(data), data.vocab, "h", path)
    doc = path.read_text(encoding="utf-8").replace('"version":2', '"version":1')
    path.write_text(doc, encoding="utf-8")
    with pytest.raises(ValueError, match="unsupported model version 1$"):
        load_model(path)
