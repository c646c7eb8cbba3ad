import numpy as np
import pytest

from sensor_rank.classify import LabeledDataset, dumps_json, predict_many
from sensor_rank.corpus import Label
from sensor_rank.forest import RfModel, TreeNode, train_rf
from sensor_rank.text import CountMatrix, Vocabulary

R, N, Z = Label.RELEVANT, Label.NEWS, Label.NOISE


def make_data(vectors, labels, vocab_size):
    vocab = Vocabulary(term_to_id={f"w{i}": i for i in range(vocab_size)}, n_max=1)
    return LabeledDataset(CountMatrix.from_rows(vectors, vocab_size), list(labels), vocab)


def predict(model, query):
    """predict_many on a single {term id: count} row."""
    return predict_many(model, CountMatrix.from_rows([query], 1 + max(query, default=0)))[0]


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
    hits = sum(label is y for (label, _), y in zip(predict_many(model, data.matrix), data.labels))
    assert hits == len(data)


def test_rf_generalizes_on_separable_holdout():
    rng = np.random.default_rng(3)
    train = separable_data(rng, per_class=25)
    test = separable_data(rng, per_class=8)
    model = train_rf(train, n_trees=15, seed=11)
    hits = sum(label is y for (label, _), y in zip(predict_many(model, test.matrix), test.labels))
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
    for _, probs in predict_many(model, data.matrix.rows(range(10))):
        total = sum(probs.values())
        assert total == pytest.approx(1.0, abs=1e-12)
        assert all(0.0 <= p <= 1.0 for p in probs.values())


def test_handbuilt_tree_routing():
    # one split on w0 at 1.5: low goes Relevant, high goes Noise
    tree = TreeNode(
        feature=0,
        threshold=1.5,
        left=TreeNode(dist=np.array([1.0, 0.0, 0.0])),
        right=TreeNode(dist=np.array([0.0, 0.0, 1.0])),
    )
    model = RfModel(trees=(tree,), n_trees=1, feature_subsample=1, seed=0)
    assert predict(model, {0: 1.0})[0] is R
    assert predict(model, {0: 2.0})[0] is Z
    # absent feature counts as 0.0, which routes left
    assert predict(model, {5: 9.0})[0] is R


def test_rf_single_class_purity_short_circuit(tmp_path):
    # all labels equal: every tree is a single pure leaf
    data = make_data([{0: 1}, {1: 1}, {0: 2}], [R, R, R], 2)
    # bypass the all-classes gate to probe the growth routine directly
    from sensor_rank.forest import _grow_tree

    rng = np.random.default_rng(0)
    dense = np.zeros((3, 2))
    for i in range(len(data)):
        for t, c in zip(*data.matrix.row(i)):
            dense[i, int(t)] = c
    y = np.array([0, 0, 0])
    root = _grow_tree(dense, y, boot=np.array([0, 1, 2]), m=1, rng=rng)
    assert root.dist is not None
    np.testing.assert_allclose(root.dist, [1.0, 0.0, 0.0])
