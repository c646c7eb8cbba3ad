import errno
import logging
import os
import pickle
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensor_rank import forest
from sensor_rank.classify import LabeledDataset, predict_many, save_model, smote
from sensor_rank.corpus import LABEL_ORDER, Label
from sensor_rank.forest import RfModel, _grow_tree, predict_proba, train_rf
from sensor_rank.text import CountMatrix, Vocabulary

from oracles import (
    chain_forest, class_ids, count_matrix, oracle_forest_proba, oracle_grow_tree, toarray,
)

R, N, Z = Label.RELEVANT, Label.NEWS, Label.NOISE


def make_data(vectors, labels, vocab_size):
    vocab = Vocabulary(term_to_id={f"w{i}": i for i in range(vocab_size)}, n_max=1)
    return LabeledDataset(count_matrix(vectors, vocab_size), class_ids(labels), vocab)


def predict(model, query):
    """The predicted label of a single {term id: count} row."""
    probs = predict_many(model, count_matrix([query], 1 + max(query, default=0)))
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
    assert a.params() == b.params()
    assert a.params()["trees"] != c.params()["trees"]


def test_rf_bootstrap_produces_distinct_trees():
    rng = np.random.default_rng(8)
    data = separable_data(rng, per_class=12)
    model = train_rf(data, n_trees=4, seed=19)
    trees = model.params()["trees"]
    assert any(tree != trees[0] for tree in trees[1:])


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
    tree = [0, -1, -1], [1.5, 0.0, 0.0], [2, -1, -1], np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    model = RfModel(flat_trees=(tree,), feature_subsample=1, seed=0)
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
    (feature, threshold, right, leaf), depth = _grow_tree(
        data.matrix.columns(), y, boot=np.array([0, 1, 2]), m=1, rng=rng
    )
    assert feature == right == [-1] and threshold == [0.0] and depth == 0
    np.testing.assert_allclose(leaf, [[1.0, 0.0, 0.0]])


def tree_tuple(node):
    """A tree as nested tuples: (feature, threshold, left, right) or the leaf's floats."""
    if node.dist is not None:
        return tuple(node.dist.tolist())
    return (node.feature, node.threshold, tree_tuple(node.left), tree_tuple(node.right))


def assert_same_tree(matrix, y, boot, m, seed):
    """The sparse grower and the dense oracle build the identical tree from one seed."""
    tree, depth = _grow_tree(matrix.columns(), y, boot, m, np.random.default_rng(seed))
    sparse = RfModel((tree,), m, seed).trees[0]
    dense = oracle_grow_tree(toarray(matrix), y, boot, m, np.random.default_rng(seed))
    assert tree_tuple(sparse) == tree_tuple(dense)
    assert depth == max(node_depths(dense))


def random_rows(rng, n, v, density, values):
    """n rows over v columns in shuffled entry order; each cell kept with prob. density."""
    rows = []
    for _ in range(n):
        cols = [int(c) for c in rng.permutation(v) if rng.random() < density]
        rows.append({c: float(values(rng)) for c in cols})
    return count_matrix(rows, v)


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


def test_sparse_splitter_matches_dense_oracle_with_multiplicities_up_to_6():
    rng = np.random.default_rng(21)
    for trial in range(15):
        n, v = int(rng.integers(5, 60)), int(rng.integers(2, 20))
        matrix = random_rows(rng, n, v, 0.3, lambda r: r.integers(-2, 4))
        y = rng.integers(0, 3, size=n)
        drawn = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        mult = rng.integers(1, 7, size=len(drawn))
        mult[0] = 6
        boot = rng.permutation(np.repeat(drawn, mult))
        assert np.unique(boot, return_counts=True)[1].max() == 6
        assert_same_tree(matrix, y, boot, int(rng.integers(1, v + 1)), trial)


def test_sparse_splitter_matches_dense_oracle_on_one_distinct_row_repeated():
    matrix = count_matrix([{0: 1.0}, {1: 2.0}, {0: 3.0, 1: 1.0}], 2)
    y = np.array([0, 1, 2])
    # a root of one row drawn 5 times; a root whose split leaves each child one
    # row repeated; and a child of one repeated row beside a mixed one
    for boot in ([2] * 5, [0] * 4 + [1] * 3, [1] * 3 + [0, 2] * 2):
        for seed in range(4):
            assert_same_tree(matrix, y, np.array(boot), 2, seed)


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
    matrix = count_matrix([row for row, _ in labeled], v)
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


def thresholds(node):
    if node.dist is None:
        yield node.threshold
        yield from thresholds(node.left)
        yield from thresholds(node.right)


def test_predict_proba_matches_per_row_walk_on_negative_thresholds():
    # below a negative threshold the rows holding the feature go left and the
    # rows without it go right, the mirror of a threshold >= 0
    rng = np.random.default_rng(15)
    n, v = 120, 10
    matrix = random_rows(rng, n, v, 0.4, lambda r: round(r.normal() * 2, 1))
    y = rng.integers(0, 3, size=n)
    vocab = Vocabulary(term_to_id={f"w{i}": i for i in range(v)}, n_max=1)
    model = train_rf(LabeledDataset(matrix, y, vocab), n_trees=5, seed=4)
    cuts = np.array([t for tree in model.trees for t in thresholds(tree)])
    assert (cuts < 0).sum() > 20 and (cuts > 0).sum() > 20
    cell = lambda r: r.choice([np.nan, -3.5, -0.25, 0.05, 0.5, 2.0])  # noqa: E731
    queries = [random_rows(rng, 80, width, 0.5, cell) for width in (v, v - 4, v + 3)]
    for X in (matrix, *queries):
        assert np.array_equal(predict_proba(model, X), oracle_forest_proba(model, X))


def test_predict_many_routes_a_1500_level_chain():
    # deeper than the interpreter's recursion limit; features past the
    # matrix's 5 columns read 0
    model = chain_forest(1500, 5)
    rng = np.random.default_rng(21)
    rows = [
        {int(c): float(rng.integers(1, 20)) for c in rng.choice(5, size=rng.integers(0, 6),
                                                                replace=False)}
        for _ in range(60)
    ]
    X = count_matrix(rows + [{c: 19.0 for c in range(5)}], 5)
    got = predict_many(model, X)
    assert np.array_equal(got, oracle_forest_proba(model, X))
    # the last row passes every test on its own columns and leaves at the
    # first past-width feature from level 1200 on: level 1202
    assert got[-1].tolist() == (np.array([1.0, 1202.0, 1.0]) / 1204).tolist()


def zika_chain(groups, copies=14):
    """The "zika"×i corpus as counts: for each i up to groups, copies rows counting i
    and labelled Relevant and News by turns, then 3 Noise rows counting groups + 1.
    Its one feature always splits, so its trees peel off about one count per level."""
    rows = [{0: float(i)} for i in range(1, groups + 1) for _ in range(copies)]
    labels = [(R, N)[i % 2] for i in range(1, groups + 1) for _ in range(copies)]
    return make_data(rows + [{0: float(groups + 1)}] * 3, labels + [Z] * 3, 1)


def node_depths(root):
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        yield depth
        if node.dist is None:
            stack += [(node.left, depth + 1), (node.right, depth + 1)]


def test_trees_past_500_levels_come_back_from_a_child(monkeypatch, caplog, tmp_path):
    data = zika_chain(700)
    files = []
    for jobs in (1, 2):
        monkeypatch.setattr(forest, "_jobs", lambda n_trees, jobs=jobs: min(jobs, n_trees))
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="sensor_rank"):
            model = train_rf(data, n_trees=2, seed=1)
        depths = [d for tree in model.trees for d in node_depths(tree)]
        assert caplog.messages == [f"train_rf: 2 trees, {len(depths)} nodes, deepest leaf "
                                   f"at depth {max(depths)}; {jobs} processes"]
        save_model(model, data.vocab, "h", tmp_path / f"{jobs}.json")
        files.append((tmp_path / f"{jobs}.json").read_bytes())
    assert files[0] == files[1]
    # tree 1 grew in the child, too deep to have come back as nested TreeNodes
    assert max(node_depths(model.trees[1])) > 500
    with pytest.raises(RecursionError):
        pickle.dumps(model.trees[1])


def test_a_failure_here_kills_and_reaps_the_children(monkeypatch):
    parent, grow = os.getpid(), forest._grow_tree

    def grow_or_fail(*args):
        if os.getpid() == parent:
            raise ValueError("no tree here")
        time.sleep(30)  # still growing when this process fails
        return grow(*args)

    monkeypatch.setattr(forest, "_grow_tree", grow_or_fail)
    monkeypatch.setattr(forest, "_jobs", lambda n_trees: min(2, n_trees))
    start = time.monotonic()
    with pytest.raises(ValueError, match="no tree here"):
        train_rf(separable_data(np.random.default_rng(1)), n_trees=4, seed=1)
    assert time.monotonic() - start < 10  # the child was killed, not waited for
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def at_most_processes(monkeypatch, jobs):
    monkeypatch.setattr(forest, "_jobs", lambda n: min(jobs, n))


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_in_processes_maps_in_order_with_every_jobs_th_item_per_process(monkeypatch, jobs):
    at_most_processes(monkeypatch, jobs)
    got = forest._in_processes(lambda i: (i, os.getpid()), 7)
    assert [i for i, _ in got] == list(range(7))
    pids = [pid for _, pid in got]
    assert pids[0] == os.getpid()
    assert all(pids[i] == pids[i % jobs] for i in range(7))
    assert len(set(pids)) == jobs
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_in_processes_raises_a_childs_exception_here(monkeypatch):
    at_most_processes(monkeypatch, 3)

    def work(i):
        if i == 2:  # made by the second child
            raise KeyError("no item 2")
        return i

    with pytest.raises(KeyError, match="no item 2"):
        forest._in_processes(work, 6)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_failed_fork_closes_its_pipe_and_kills_the_children(monkeypatch):
    at_most_processes(monkeypatch, 3)
    parent, fork, forks = os.getpid(), os.fork, []

    def fork_once():
        forks.append(1)
        if len(forks) == 2:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    def work(i):
        if os.getpid() != parent:
            time.sleep(30)  # still working when the second fork fails
        return i

    monkeypatch.setattr(os, "fork", fork_once)
    fds = sorted(os.listdir("/proc/self/fd"))
    start = time.monotonic()
    with pytest.raises(OSError) as raised:
        forest._in_processes(work, 3)
    assert raised.value.errno == errno.EAGAIN
    assert time.monotonic() - start < 10  # the first child was killed, not waited for
    assert sorted(os.listdir("/proc/self/fd")) == fds
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
