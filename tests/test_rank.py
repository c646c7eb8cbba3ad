import json

import numpy as np
import pytest

from sensor_rank.corpus import FollowerGraph, Label, TweetRecord
from sensor_rank.rank import (
    RankConfig,
    UserStats,
    build_transition,
    candidate_filter,
    compute_user_stats,
    connected_components,
    overall_focus,
    ranking_report,
    report_to_json,
    report_to_tsv,
    topic_focus,
    twitterrank,
    write_report,
)

from oracles import oracle_linear_solve, oracle_transition

R, N, Z = Label.RELEVANT, Label.NEWS, Label.NOISE


def record(i, user, total=None):
    return TweetRecord(
        id=f"t{i}",
        user=user,
        text="x",
        created_at="2016-09-01T00:00:00Z",
        user_total_tweets=total,
    )


def random_instance(rng, n_max=12):
    """A random candidate set with stats and graph, small enough for the
    dense oracle."""
    n = int(rng.integers(2, n_max + 1))
    users = [f"u{i:02d}" for i in range(n)]
    stats = {}
    for uid in users:
        r = int(rng.integers(3, 21))
        t_k = r + int(rng.integers(0, 10))
        t = t_k + int(rng.integers(0, 200))
        stats[uid] = UserStats(uid, r, t_k, t)
    edges = set()
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.3:
                edges.add((users[i], users[j]))
    return stats, FollowerGraph(frozenset(edges))


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def test_user_stats_invariant():
    UserStats("u", 0, 0, 0)
    UserStats("u", 2, 5, 9)
    with pytest.raises(ValueError, match="counts"):
        UserStats("u", 3, 2, 9)
    with pytest.raises(ValueError, match="counts"):
        UserStats("u", 1, 4, 3)
    with pytest.raises(ValueError, match="counts"):
        UserStats("u", -1, 0, 0)


def test_rank_config_validation():
    with pytest.raises(ValueError, match="gamma"):
        RankConfig(gamma=1.0)
    with pytest.raises(ValueError, match="tol"):
        RankConfig(tol=0.0)
    with pytest.raises(ValueError, match="max_iter"):
        RankConfig(max_iter=0)
    for value in (0, -1):
        with pytest.raises(ValueError, match="min_relevant"):
            RankConfig(min_relevant=value)
        with pytest.raises(ValueError, match="k must be"):
            RankConfig(k=value)


@pytest.mark.parametrize("field", ["gamma", "tol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_rank_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        RankConfig(**{field: value})


def test_compute_user_stats_tallies():
    pairs = [
        (record(1, "ana", total=140), R),
        (record(2, "ana"), N),
        (record(3, "ana", total=120), R),
        (record(4, "bob"), Z),
    ]
    stats = compute_user_stats(pairs)
    ana = stats["ana"]
    assert (ana.relevant_count, ana.harvest_count, ana.total_count) == (2, 3, 140)
    assert not ana.total_count_defaulted
    bob = stats["bob"]
    assert (bob.relevant_count, bob.harvest_count, bob.total_count) == (0, 1, 1)
    assert bob.total_count_defaulted


def test_compute_user_stats_clamps_small_declared_totals():
    pairs = [(record(i, "ana", total=2), R) for i in range(5)]
    stats = compute_user_stats(pairs)
    assert stats["ana"].total_count == 5
    assert stats["ana"].total_count_defaulted


def test_compute_user_stats_empty():
    with pytest.raises(ValueError, match="no classified"):
        compute_user_stats([])


def test_candidate_filter_threshold_exclusion_and_shares():
    stats = {
        "a": UserStats("a", 4, 5, 10),
        "b": UserStats("b", 8, 9, 20),
        "c": UserStats("c", 2, 5, 10),
        "d": UserStats("d", 6, 6, 6),
    }
    config = RankConfig(min_relevant=3)
    kept = candidate_filter(stats, config, excluded={"d"})
    assert [u.user_id for u in kept] == ["a", "b"]
    np.testing.assert_allclose([u.v for u in kept], [4 / 12, 8 / 12])
    assert sum(u.v for u in kept) == pytest.approx(1.0, abs=1e-12)


def test_candidate_filter_empty():
    stats = {"a": UserStats("a", 1, 2, 3)}
    with pytest.raises(ValueError, match="candidates"):
        candidate_filter(stats, RankConfig(min_relevant=3))


def test_build_transition_single_friend_full_weight():
    # equal v makes sim exactly 1, and one friend takes the whole ratio
    a = UserStats("a", 5, 5, 10, v=0.5)
    b = UserStats("b", 5, 5, 10, v=0.5)
    P = build_transition([a, b], FollowerGraph(frozenset({("a", "b")})))
    assert P.entries() == {(0, 1): 1.0}


def test_build_transition_splits_by_relevant_count():
    a = UserStats("a", 4, 8, 10, v=0.25)
    b = UserStats("b", 2, 4, 10, v=0.25)
    c = UserStats("c", 6, 12, 20, v=0.25)
    graph = FollowerGraph(frozenset({("a", "b"), ("a", "c")}))
    P = build_transition([a, b, c], graph)
    entries = P.entries()
    np.testing.assert_allclose(entries[(0, 1)], 2 / 8)
    np.testing.assert_allclose(entries[(0, 2)], 6 / 8)


def test_build_transition_similarity_attenuates():
    a = UserStats("a", 3, 3, 3, v=0.75)
    b = UserStats("b", 3, 3, 3, v=0.25)
    P = build_transition([a, b], FollowerGraph(frozenset({("a", "b")})))
    np.testing.assert_allclose(P.entries()[(0, 1)], 1.0 * (1 - 0.5))


def test_build_transition_ignores_outsiders():
    a = UserStats("a", 3, 3, 3, v=1.0)
    graph = FollowerGraph(frozenset({("a", "x"), ("y", "a")}))
    P = build_transition([a], graph)
    assert P.entries() == {}


def test_build_transition_matches_per_candidate_loop():
    rng = np.random.default_rng(31)
    for _ in range(40):
        stats, graph = random_instance(rng)
        users = sorted(stats)
        # excluded users leave edges with an endpoint outside the candidates
        excluded = rng.choice(users, size=int(rng.integers(0, len(users))), replace=False)
        candidates = candidate_filter(stats, RankConfig(), excluded.tolist())
        got = build_transition(candidates, graph)
        want = oracle_transition(candidates, graph)
        assert got.index == want.index
        assert np.array_equal(got.rows, want.rows)
        assert np.array_equal(got.cols, want.cols)
        assert np.array_equal(got.vals, want.vals)


def test_twitterrank_isolated_candidate_floor():
    a = UserStats("a", 5, 5, 5, v=1.0)
    P = build_transition([a], FollowerGraph(frozenset()))
    rv = twitterrank(P, [a], RankConfig())
    assert rv.converged
    assert abs(rv.scores["a"] - 0.15) <= 1e-12


def test_twitterrank_two_isolated_split_evenly():
    a = UserStats("a", 5, 5, 5, v=0.5)
    b = UserStats("b", 5, 5, 5, v=0.5)
    P = build_transition([a, b], FollowerGraph(frozenset()))
    rv = twitterrank(P, [a, b], RankConfig())
    assert abs(rv.scores["a"] - 0.075) <= 1e-12
    assert abs(rv.scores["b"] - 0.075) <= 1e-12
    # one propagation step reaches the fixed point, the next certifies it
    assert rv.iterations <= 2


def test_twitterrank_requires_normalized_shares():
    a = UserStats("a", 5, 5, 5, v=0.3)
    b = UserStats("b", 5, 5, 5, v=0.3)
    P = build_transition([a, b], FollowerGraph(frozenset()))
    with pytest.raises(ValueError, match="sum to 1"):
        twitterrank(P, [a, b], RankConfig())


def test_twitterrank_max_iter_truncation():
    rng = np.random.default_rng(3)
    stats, graph = random_instance(rng)
    candidates = candidate_filter(stats, RankConfig(), ())
    P = build_transition(candidates, graph)
    rv = twitterrank(P, candidates, RankConfig(max_iter=1, tol=1e-15))
    assert not rv.converged
    assert rv.iterations == 1
    assert len(rv.residuals) == 1


def test_twitterrank_agrees_with_dense_solver():
    rng = np.random.default_rng(20160901)
    config = RankConfig(tol=1e-13)
    for _ in range(20):
        stats, graph = random_instance(rng)
        candidates = candidate_filter(stats, config, ())
        P = build_transition(candidates, graph)
        rv = twitterrank(P, candidates, config)
        e = np.zeros(P.n)
        for u in candidates:
            e[P.index[u.user_id]] = u.v
        want = oracle_linear_solve(P, e, config.gamma)
        got = np.array([rv.scores[u.user_id] for u in candidates])
        idx = np.array([P.index[u.user_id] for u in candidates])
        assert np.abs(got - want[idx]).max() <= 1e-9


def test_twitterrank_scores_respect_teleport_floor():
    rng = np.random.default_rng(8)
    for _ in range(10):
        stats, graph = random_instance(rng)
        candidates = candidate_filter(stats, RankConfig(), ())
        P = build_transition(candidates, graph)
        rv = twitterrank(P, candidates, RankConfig())
        for u in candidates:
            assert rv.scores[u.user_id] >= 0.15 * u.v - 1e-12


def test_twitterrank_residuals_contract():
    rng = np.random.default_rng(12)
    stats, graph = random_instance(rng)
    candidates = candidate_filter(stats, RankConfig(), ())
    P = build_transition(candidates, graph)
    rv = twitterrank(P, candidates, RankConfig())
    assert rv.residuals[-1] == rv.final_residual
    for prev, cur in zip(rv.residuals, rv.residuals[1:]):
        assert cur <= 0.85 * prev + 1e-12


def test_focus_metrics():
    u = UserStats("u", 20, 28, 140)
    assert topic_focus(u) == pytest.approx(100 * 20 / 28)
    assert overall_focus(u) == pytest.approx(100 * 20 / 140)
    assert topic_focus(UserStats("v", 7, 7, 7)) == 100.0
    with pytest.raises(ValueError, match="harvest"):
        topic_focus(UserStats("w", 0, 0, 5))
    with pytest.raises(ValueError, match="total"):
        overall_focus(UserStats("w", 0, 0, 0))


def components_of(graph, users):
    """connected_components over the transition matrix of equal candidates."""
    candidates = candidate_filter({u: UserStats(u, 3, 3, 3) for u in users}, RankConfig())
    return connected_components(build_transition(candidates, graph))


def test_connected_components_basics():
    graph = FollowerGraph(frozenset({("a", "b"), ("c", "d"), ("d", "c"), ("x", "y")}))
    comps, mutual = components_of(graph, ["a", "b", "c", "d", "e"])
    assert comps == [["a", "b"], ["c", "d"], ["e"]]
    assert mutual == [("c", "d")]


def test_connected_components_ignore_noncandidate_bridges():
    # a-x-b would connect a and b, but x is not a candidate
    graph = FollowerGraph(frozenset({("a", "x"), ("x", "b")}))
    comps, mutual = components_of(graph, ["a", "b"])
    assert comps == [["a"], ["b"]]
    assert mutual == []


def long_path_instance(rng, n=500):
    """One path through n users in random order, each edge in a random direction."""
    users = [f"p{i:03d}" for i in rng.permutation(n)]
    edges = {
        (a, b) if rng.random() < 0.5 else (b, a) for a, b in zip(users, users[1:])
    }
    return {u: UserStats(u, 3, 3, 3) for u in users}, FollowerGraph(frozenset(edges))


def test_connected_components_match_union_find():
    rng = np.random.default_rng(99)
    instances = [random_instance(rng) for _ in range(20)] + [long_path_instance(rng)]
    for stats, graph in instances:
        users = sorted(stats)
        comps, mutual = connected_components(
            build_transition(candidate_filter(stats, RankConfig()), graph)
        )
        uf = UnionFind(users)
        for a, b in graph.edges:
            if a in stats and b in stats:
                uf.union(a, b)
        want = {}
        for u in users:
            want.setdefault(uf.find(u), set()).add(u)
        got = {frozenset(c) for c in comps}
        assert got == {frozenset(s) for s in want.values()}
        assert sorted(len(c) for c in comps) == sorted(len(s) for s in want.values())
        for a, b in mutual:
            assert a < b
            assert (a, b) in graph.edges and (b, a) in graph.edges
        assert mutual == sorted(
            (a, b) for a, b in graph.edges
            if a < b and (b, a) in graph.edges and a in stats and b in stats
        )
        assert comps == sorted(comps, key=lambda c: (-len(c), c[0]))
        assert all(c == sorted(c) for c in comps)


def test_ranking_report_orders_and_cross_ranks():
    stats = {
        "a": UserStats("a", 10, 10, 100),
        "b": UserStats("b", 8, 10, 10),
        "c": UserStats("c", 6, 12, 300),
    }
    config = RankConfig(min_relevant=3, k=10)
    candidates = candidate_filter(stats, config, ())
    graph = FollowerGraph(frozenset({("b", "a"), ("c", "a")}))
    P = build_transition(candidates, graph)
    rv = twitterrank(P, candidates, config)
    report = ranking_report(candidates, rv, config, metric="tr")
    assert report.metric == "tr"
    assert [row.user_id for row in report.rows] == ["a", "b", "c"]
    rows = {row.user_id: row for row in report.rows}
    assert rows["a"].tr_rank == 1
    # tf: a=100, b=80, c=50
    assert rows["a"].tf_rank == 1 and rows["b"].tf_rank == 2 and rows["c"].tf_rank == 3
    # of order: b (80) > a (10) > c (2)
    assert rows["b"].of_rank == 1 and rows["a"].of_rank == 2 and rows["c"].of_rank == 3
    assert rows["a"].tr_score == pytest.approx(100 * rv.scores["a"])


def test_ranking_report_ties_break_by_user_id():
    stats = {uid: UserStats(uid, 5, 10, 20) for uid in ("m", "k", "p")}
    config = RankConfig(k=3)
    candidates = candidate_filter(stats, config, ())
    P = build_transition(candidates, FollowerGraph(frozenset()))
    rv = twitterrank(P, candidates, config)
    report = ranking_report(candidates, rv, config, metric="tf")
    assert [row.user_id for row in report.rows] == ["k", "m", "p"]
    assert [row.tf_rank for row in report.rows] == [1, 2, 3]


def test_ranking_report_k_limits_rows():
    stats = {f"u{i}": UserStats(f"u{i}", 3 + i, 10 + i, 50) for i in range(6)}
    config = RankConfig(k=2)
    candidates = candidate_filter(stats, config, ())
    P = build_transition(candidates, FollowerGraph(frozenset()))
    rv = twitterrank(P, candidates, config)
    report = ranking_report(candidates, rv, config, metric="of")
    assert len(report.rows) == 2
    # ranks still span the full candidate pool
    assert report.rows[0].of_rank == 1


def test_ranking_report_validation():
    stats = {"a": UserStats("a", 3, 3, 3)}
    candidates = candidate_filter(stats, RankConfig(), ())
    P = build_transition(candidates, FollowerGraph(frozenset()))
    rv = twitterrank(P, candidates, RankConfig())
    with pytest.raises(ValueError, match="k"):
        ranking_report(candidates, rv, RankConfig(k=0))
    with pytest.raises(ValueError, match="metric"):
        ranking_report(candidates, rv, RankConfig(), metric="pagerank")


def test_ranking_report_matches_independent_sort():
    rng = np.random.default_rng(20160902)
    stats, graph = random_instance(rng, n_max=12)
    config = RankConfig(k=len(stats))
    candidates = candidate_filter(stats, config, ())
    P = build_transition(candidates, graph)
    rv = twitterrank(P, candidates, config)
    for metric, value in (
        ("tr", lambda u: rv.scores[u.user_id]),
        ("tf", topic_focus),
        ("of", overall_focus),
    ):
        report = ranking_report(candidates, rv, config, metric=metric)
        want = [u.user_id for u in sorted(candidates, key=lambda u: (-value(u), u.user_id))]
        assert [row.user_id for row in report.rows] == want


def test_report_serializations(tmp_path):
    stats = {"ana maria": UserStats("ana maria", 3, 4, 5)}
    config = RankConfig(k=1)
    candidates = candidate_filter(stats, config, ())
    P = build_transition(candidates, FollowerGraph(frozenset()))
    rv = twitterrank(P, candidates, config)
    report = ranking_report(candidates, rv, config)

    tsv = report_to_tsv(report)
    lines = tsv.strip().split("\n")
    assert lines[0].split("\t") == [
        "user_id", "relevant_count", "harvest_count", "total_count",
        "tr_score", "tr_rank", "topic_focus", "tf_rank", "overall_focus", "of_rank",
    ]
    assert lines[1].split("\t") == [
        "ana maria", "3", "4", "5", "15.0000", "1", "75.0000", "1", "60.0000", "1",
    ]

    parsed = json.loads(report_to_json(report))
    assert parsed == [{
        "user_id": "ana maria", "relevant_count": 3, "harvest_count": 4,
        "total_count": 5, "tr_score": 15.0, "tr_rank": 1, "topic_focus": 75.0,
        "tf_rank": 1, "overall_focus": 60.0, "of_rank": 1,
    }]

    paths = write_report(report, tmp_path)
    assert [p.name for p in paths] == ["report_tr.tsv", "report_tr.json"]
    assert paths[0].read_text(encoding="utf-8") == tsv


def test_scaling_counts_preserves_all_orderings():
    """Multiplying (relevant, harvest, total) by a constant leaves every
    ranking identical, including the exact scores of TF and OF."""
    rng = np.random.default_rng(20160903)
    for _ in range(5):
        stats, graph = random_instance(rng)
        scaled = {
            uid: UserStats(uid, 7 * u.relevant_count, 7 * u.harvest_count,
                           7 * u.total_count)
            for uid, u in stats.items()
        }
        config = RankConfig(k=len(stats))
        base = candidate_filter(stats, config, ())
        big = candidate_filter(scaled, config, ())
        assert [u.v for u in base] == [u.v for u in big]
        rv_base = twitterrank(build_transition(base, graph), base, config)
        rv_big = twitterrank(build_transition(big, graph), big, config)
        assert rv_base.scores == rv_big.scores
        for metric in ("tr", "tf", "of"):
            rep_base = ranking_report(base, rv_base, config, metric=metric)
            rep_big = ranking_report(big, rv_big, config, metric=metric)
            assert [r.user_id for r in rep_base.rows] == [r.user_id for r in rep_big.rows]
