import math
import tracemalloc

import numpy as np
import pytest

from sensor_rank import classify
from sensor_rank.classify import (
    LabeledDataset,
    TrainingConfig,
    cross_validate,
    dataset_from_corpus,
    dumps_json,
    evaluate,
    info_gain_rank,
    load_model,
    predict_many,
    save_model,
    smote,
    subsample_spread,
    train_mnnb,
)
from sensor_rank.corpus import LABEL_ORDER, Corpus, Label, TweetRecord, class_ids
from sensor_rank.forest import train_rf
from sensor_rank.text import CountMatrix, Vocabulary

from oracles import oracle_evaluate, oracle_nb_posterior, oracle_smote

R, N, Z = Label.RELEVANT, Label.NEWS, Label.NOISE


def make_vocab(size, n_max=1):
    return Vocabulary(term_to_id={f"w{i}": i for i in range(size)}, n_max=n_max)


def matrix(rows, n_cols=None):
    """CountMatrix of {term id: count} rows; n_cols defaults to 1 + the largest id."""
    if n_cols is None:
        n_cols = 1 + max((t for row in rows for t in row), default=-1)
    return CountMatrix.from_rows(rows, n_cols)


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
    corpus = Corpus(records)
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


def test_predict_rejects_unknown_model():
    with pytest.raises(TypeError):
        predict_many(object(), matrix([{0: 1.0}]))


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


def test_subsample_spread_deterministic():
    rng = np.random.default_rng(17)
    data = random_data(rng, 30, 5)
    a = subsample_spread(data, 1.0, 8)
    b = subsample_spread(data, 1.0, 8)
    assert rows_of(a.matrix) == rows_of(b.matrix) and np.array_equal(a.y, b.y)


def test_info_gain_zero_for_uninformative_term():
    data = make_data([{0: 1, 1: 1}, {0: 2}, {0: 1, 2: 1}], [R, N, Z], 3)
    gains = dict(info_gain_rank(data))
    assert gains[0] == pytest.approx(0.0, abs=1e-12)


def test_info_gain_perfect_predictor():
    data = make_data(
        [{0: 1}, {0: 2}, {1: 1}, {1: 3}, {2: 1}, {2: 2}],
        [R, R, N, N, Z, Z],
        3,
    )
    gains = dict(info_gain_rank(data))
    h_label = math.log2(3)
    # presence of w0 isolates Relevant; the rest split evenly between News/Noise
    expected = h_label - (2 / 6) * 0.0 - (4 / 6) * 1.0
    assert gains[0] == pytest.approx(expected, abs=1e-12)


def test_info_gain_bounds_and_order():
    rng = np.random.default_rng(23)
    for _ in range(10):
        data = random_data(rng, 25, 9)
        ranked = info_gain_rank(data)
        h_label = -sum(
            (c / 25) * math.log2(c / 25)
            for c in data.class_counts()
            if c
        )
        gains = [g for _, g in ranked]
        assert all(-1e-12 <= g <= h_label + 1e-12 for g in gains)
        assert gains == sorted(gains, reverse=True)
        for (t1, g1), (t2, g2) in zip(ranked, ranked[1:]):
            if g1 == g2:
                assert t1 < t2


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
    config = TrainingConfig(classifier="mnnb", smote_percent=0)
    with pytest.raises(ValueError, match="folds"):
        cross_validate(data, 1, config, 1)
    # News has a single document, so two folds cannot both contain one
    with pytest.raises(ValueError, match="News"):
        cross_validate(data, 2, config, 1)


def test_cross_validate_matches_symmetric_oracle():
    """Three identical documents per class and three folds: every training
    fold holds exactly two copies of each document, so the per-instance
    posteriors are computable exactly without knowing the fold layout."""
    doc = {R: {0: 3.0}, N: {1: 3.0}, Z: {2: 3.0}}
    vectors = [doc[y] for y in (R, N, Z) for _ in range(3)]
    labels = [y for y in (R, N, Z) for _ in range(3)]
    data = make_data(vectors, labels, 3)
    config = TrainingConfig(classifier="mnnb", smote_percent=0)
    report = cross_validate(data, 3, config, seed=5)

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
                            spread_ratio=3.0)
    report = cross_validate(data, 3, config, seed=2)
    row_sums = report.confusion.sum(axis=1)
    assert row_sums.tolist() == data.class_counts().tolist()


def test_cross_validate_deterministic():
    rng = np.random.default_rng(37)
    data = random_data(rng, 30, 8)
    config = TrainingConfig(classifier="rf", n_trees=5, smote_percent=100, smote_k=1)
    a = cross_validate(data, 2, config, seed=9)
    b = cross_validate(data, 2, config, seed=9)
    assert a.accuracy == b.accuracy
    assert a.rmse == b.rmse
    assert np.array_equal(a.confusion, b.confusion)


def test_training_config_validation():
    with pytest.raises(ValueError, match="classifier"):
        TrainingConfig(classifier="svm")


@pytest.mark.parametrize("field, value", [
    ("alpha", 0.0), ("alpha", -1.0), ("alpha", math.nan), ("alpha", math.inf),
    ("spread_ratio", 0.5), ("spread_ratio", math.nan), ("spread_ratio", math.inf),
])
def test_training_config_rejects_bad_alpha_and_spread_ratio(field, value):
    with pytest.raises(ValueError, match=field):
        TrainingConfig(**{field: value})


def test_dumps_json_formatting():
    doc = {"a": 1, "b": [True, None, "texto çã"], "c": 0.5}
    assert dumps_json(doc) == '{"a":1,"b":[true,null,"texto çã"],"c":0.5}'
    assert dumps_json(1 / 3) == "0.33333333333333331"
    with pytest.raises(ValueError, match="non-finite"):
        dumps_json(float("nan"))
    with pytest.raises(TypeError):
        dumps_json({"x": object()})


def test_model_roundtrip_mnnb(tmp_path):
    data = toy_data()
    model = train_mnnb(data, alpha=1.0)
    path = tmp_path / "model.json"
    save_model(model, data.vocab, "abc123", path)
    loaded, vocab, table_hash = load_model(path)
    assert table_hash == "abc123"
    assert vocab.terms_in_id_order() == data.vocab.terms_in_id_order()
    assert vocab.n_max == data.vocab.n_max
    # 17 significant digits survive the float -> text -> float trip exactly
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
    assert loaded.n_trees == 4
    for query in rows_of(data.matrix):
        assert np.array_equal(predict(loaded, query), predict(model, query))


def test_load_model_rejects_foreign_files(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"format": "something-else"}', encoding="utf-8")
    with pytest.raises(ValueError, match="file"):
        load_model(path)
    data = toy_data()
    save_model(train_mnnb(data), data.vocab, "h", path)
    doc = path.read_text(encoding="utf-8").replace('"version":1', '"version":2')
    path.write_text(doc, encoding="utf-8")
    with pytest.raises(ValueError, match="version"):
        load_model(path)
