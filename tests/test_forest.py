import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensor_rank.classify import LabeledDataset, dumps_json, predict_many, smote
from sensor_rank.corpus import LABEL_ORDER, Label, class_ids
from sensor_rank.forest import RfModel, TreeNode, _columns, _grow_tree, predict_proba, train_rf
from sensor_rank.text import CountMatrix, Vocabulary

from oracles import oracle_forest_proba, oracle_grow_tree

R, N, Z = Label.RELEVANT, Label.NEWS, Label.NOISE


def make_data(vectors, labels, vocab_size):
    vocab = Vocabulary(term_to_id={f"w{i}": i for i in range(vocab_size)}, n_max=1)
    return LabeledDataset(CountMatrix.from_rows(vectors, vocab_size), class_ids(labels), vocab)


def predict(model, query):
    """The predicted label of a single {term id: count} row."""
    probs = predict_many(model, CountMatrix.from_rows([query], 1 + max(query, default=0)))
    return LABEL_ORDER[probs[0].argmax()]


def separable_data(rng, per_class=20, v_size=9):
    """Each class draws only from its own third of the vocabulary."""
    vectors = []
    labels = []
    third = v_size // 3
    for ci, label in enumerate((R, N, Z)):
        for _ in range(per_class):
            tids = rng.choice(third, size=rng.integers(1, third + 1), replace=False)
            vectors.append({int(ci * third + t): float(rng.integers(1, 4)) for t in tids})
            labels.append(label)
    return make_data(vectors, labels, v_size)


def walk_leaves(node):
    if node.dist is not None:
        yield node.dist
    else:
        yield from walk_leaves(node.left)
        yield from walk_leaves(node.right)


def test_train_rf_validation():
    rng = np.random.default_rng(1)
    data = separable_data(rng, per_class=3)
    with pytest.raises(ValueError, match="n_trees"):
        train_rf(data, 0, seed=1)
    with pytest.raises(ValueError, match="empty"):
        train_rf(make_data([], [], 3), 10, seed=1)
    with pytest.raises(ValueError, match="Noise"):
        train_rf(make_data([{0: 1}, {1: 1}], [R, N], 3), 10, seed=1)


def test_rf_fits_separable_training_data():
    rng = np.random.default_rng(2)
    data = separable_data(rng)
    model = train_rf(data, n_trees=15, seed=7)
    hits = (predict_many(model, data.matrix).argmax(axis=1) == data.y).sum()
    assert hits == len(data)


def test_rf_generalizes_on_separable_holdout():
    rng = np.random.default_rng(3)
    train = separable_data(rng, per_class=25)
    test = separable_data(rng, per_class=8)
    model = train_rf(train, n_trees=15, seed=11)
    hits = (predict_many(model, test.matrix).argmax(axis=1) == test.y).sum()
    assert hits / len(test) >= 0.9


def test_rf_deterministic_given_seed():
    rng = np.random.default_rng(4)
    data = separable_data(rng, per_class=10)
    a = train_rf(data, n_trees=8, seed=5)
    b = train_rf(data, n_trees=8, seed=5)
    c = train_rf(data, n_trees=8, seed=6)
    serialize = lambda m: dumps_json(  # noqa: E731
        [_tree_obj(t) for t in m.trees]
    )
    assert serialize(a) == serialize(b)
    assert serialize(a) != serialize(c)


def _tree_obj(node):
    if node.dist is not None:
        return {"leaf": [float(p) for p in node.dist]}
    return {
        "f": node.feature,
        "t": float(node.threshold),
        "l": _tree_obj(node.left),
        "r": _tree_obj(node.right),
    }


def test_rf_bootstrap_produces_distinct_trees():
    rng = np.random.default_rng(8)
    data = separable_data(rng, per_class=12)
    model = train_rf(data, n_trees=4, seed=19)
    shapes = {dumps_json(_tree_obj(t)) for t in model.trees}
    assert len(shapes) > 1


def test_rf_leaf_distributions_are_probabilities():
    rng = np.random.default_rng(9)
    data = separable_data(rng, per_class=10)
    model = train_rf(data, n_trees=6, seed=23)
    for tree in model.trees:
        for dist in walk_leaves(tree):
            assert (dist >= 0).all()
            np.testing.assert_allclose(dist.sum(), 1.0, atol=1e-12)


def test_rf_prediction_probabilities():
    rng = np.random.default_rng(10)
    data = separable_data(rng, per_class=10)
    model = train_rf(data, n_trees=6, seed=29)
    for probs in predict_many(model, data.matrix.rows(range(10))):
        total = sum(probs.tolist())
        assert total == pytest.approx(1.0, abs=1e-12)
        assert all(0.0 <= p <= 1.0 for p in probs)


def test_handbuilt_tree_routing():
    # one split on w0 at 1.5: low goes Relevant, high goes Noise
    tree = TreeNode(
        feature=0,
        threshold=1.5,
        left=TreeNode(dist=np.array([1.0, 0.0, 0.0])),
        right=TreeNode(dist=np.array([0.0, 0.0, 1.0])),
    )
    model = RfModel(trees=(tree,), n_trees=1, feature_subsample=1, seed=0)
    assert predict(model, {0: 1.0}) is R
    assert predict(model, {0: 2.0}) is Z
    # absent feature counts as 0.0, which routes left
    assert predict(model, {5: 9.0}) is R


def test_rf_single_class_purity_short_circuit(tmp_path):
    # all labels equal: every tree is a single pure leaf
    data = make_data([{0: 1}, {1: 1}, {0: 2}], [R, R, R], 2)
    # bypass the all-classes gate to probe the growth routine directly
    rng = np.random.default_rng(0)
    y = np.array([0, 0, 0])
    root = _grow_tree(_columns(data.matrix), y, boot=np.array([0, 1, 2]), m=1, rng=rng)
    assert root.dist is not None
    np.testing.assert_allclose(root.dist, [1.0, 0.0, 0.0])


def tree_tuple(node):
    """A tree as nested tuples: (feature, threshold, left, right) or the leaf's floats."""
    if node.dist is not None:
        return tuple(node.dist.tolist())
    return (node.feature, node.threshold, tree_tuple(node.left), tree_tuple(node.right))


def assert_same_tree(matrix, y, boot, m, seed):
    """The sparse grower and the dense oracle build the identical tree from one seed."""
    sparse = _grow_tree(_columns(matrix), y, boot, m, np.random.default_rng(seed))
    dense = oracle_grow_tree(matrix.toarray(), y, boot, m, np.random.default_rng(seed))
    assert tree_tuple(sparse) == tree_tuple(dense)


def random_rows(rng, n, v, density, values):
    """n rows over v columns in shuffled entry order; each cell kept with prob. density."""
    rows = []
    for _ in range(n):
        cols = [int(c) for c in rng.permutation(v) if rng.random() < density]
        rows.append({c: float(values(rng)) for c in cols})
    return CountMatrix.from_rows(rows, v)


CELL_VALUES = {
    "counts": lambda r: r.integers(1, 4),
    "explicit_zeros": lambda r: r.integers(0, 3),  # stored zeros act like absent cells
    "negative": lambda r: r.integers(-3, 4),
    "real": lambda r: r.normal(),
    "all_zero_columns": lambda r: r.integers(1, 3),
    "m_is_vocab": lambda r: r.integers(1, 5),
}


@pytest.mark.parametrize("case", list(CELL_VALUES))
def test_sparse_splitter_matches_dense_oracle(case):
    rng = np.random.default_rng(list(CELL_VALUES).index(case))
    values = CELL_VALUES[case]
    for trial in range(25):
        n, v = int(rng.integers(2, 80)), int(rng.integers(1, 25))
        density = 0.05 if case == "all_zero_columns" else 0.3
        matrix = random_rows(rng, n, v, density, values)
        y = rng.integers(0, 3, size=n)
        boot = rng.integers(0, n, size=n)  # repeats rows, as a bootstrap does
        m = v if case == "m_is_vocab" else int(rng.integers(1, v + 1))
        assert_same_tree(matrix, y, boot, m, trial)


def test_sparse_splitter_matches_dense_oracle_on_smote_rows():
    # real-valued synthetic rows next to the integer counts they came from
    rng = np.random.default_rng(12)
    for trial in range(10):
        n, v = 40, 12
        counts = random_rows(rng, n, v, 0.3, lambda r: r.integers(1, 4))
        y = rng.integers(0, 3, size=n)
        y[:12] = 0
        synthetic = smote(counts.rows(range(12)), 200, 3, trial)
        matrix = counts.concat(synthetic)
        y = np.concatenate([y, np.zeros(len(synthetic), dtype=np.int64)])
        boot = rng.integers(0, len(y), size=len(y))
        assert_same_tree(matrix, y, boot, 4, trial)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 8).flatmap(lambda v: st.tuples(
        st.just(v),
        st.lists(
            st.tuples(
                st.dictionaries(st.integers(0, v - 1), st.sampled_from([-1.5, 0.0, 0.5, 1.0, 2.0]),
                                max_size=v),
                st.integers(0, 2),
            ),
            min_size=2, max_size=30,
        ),
    )),
    st.data(),
)
def test_sparse_splitter_matches_dense_oracle_hypothesis(case, data):
    v, labeled = case
    matrix = CountMatrix.from_rows([row for row, _ in labeled], v)
    y = np.array([label for _, label in labeled])
    n = len(labeled)
    boot = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    m = data.draw(st.integers(1, v))
    assert_same_tree(matrix, y, boot, m, data.draw(st.integers(0, 2**32 - 1)))


def test_train_rf_memory_follows_nonzeros():
    # a few rows in a very wide vocabulary: nothing may scale with rows x width
    rng = np.random.default_rng(13)
    data = separable_data(rng, per_class=4)
    width = 1_000_000
    wide = make_data(
        [{t * 100_000: c for t, c in zip(*(a.tolist() for a in data.matrix.row(i)))}
         for i in range(len(data))],
        [LABEL_ORDER[c] for c in data.y], width,
    )
    tracemalloc.start()
    try:
        model = train_rf(wide, n_trees=3, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a dense design matrix alone would take 12 x 1e6 x 8 bytes = 96 MB; the
    # column pointers and per-column counts take 8 MB each
    assert peak < 24_000_000
    assert model.feature_subsample == 1000


def test_predict_proba_matches_per_row_walk():
    rng = np.random.default_rng(14)
    data = separable_data(rng, per_class=15)
    model = train_rf(data, n_trees=7, seed=3)
    queries = random_rows(rng, 60, 12, 0.3, lambda r: r.integers(-1, 4) + r.random())
    # rows that list column 0 twice: the later entry wins, as in a dict
    repeated = CountMatrix(
        np.array([0, 2, 4]), np.array([0, 0, 0, 0]), np.array([9.0, 0.0, 0.0, 9.0]), 1
    )
    for X in (data.matrix, queries, repeated):
        assert np.array_equal(predict_proba(model, X), oracle_forest_proba(model, X))
