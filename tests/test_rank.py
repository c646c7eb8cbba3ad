import inspect
import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sensor_rank import rank
from sensor_rank.corpus import FollowerGraph, Label
from sensor_rank.rank import (
    REPORT_METRICS,
    RankConfig,
    RankVector,
    UserStats,
    build_transition,
    candidate_filter,
    compute_user_stats,
    connected_components,
    overall_focus,
    merge_user_tallies,
    ranking_report,
    report_to_json,
    report_to_tsv,
    topic_focus,
    twitterrank,
    user_tally,
    write_report,
)

from oracles import (
    TweetRecord,
    from_records,
    graph_pairs,
    oracle_linear_solve,
    oracle_ranking_report,
    oracle_transition,
    records_of,
)

R, N, Z = Label.RELEVANT, Label.NEWS, Label.NOISE


def record(i, user, total=None):
    return TweetRecord(
        id=f"t{i}",
        user=user,
        text="x",
        created_at="2016-09-01T00:00:00Z",
        user_total_tweets=total,
    )


def classified(pairs):
    """The corpus of (record, label) pairs, each record carrying its label."""
    return from_records(replace(rec, label=label) for rec, label in pairs)


def table(*rows):
    """UserStats from (user_id, relevant, harvest, total[, v]) rows in id order."""
    users, *columns = zip(*(row + (0.0,) * (5 - len(row)) for row in rows))
    return UserStats(users, *columns[:3], v=columns[3])


def user(stats, uid):
    """One row of a UserStats table, under the per-user field names."""
    i = stats.users.index(uid)
    return SimpleNamespace(
        relevant_count=int(stats.relevant[i]), harvest_count=int(stats.harvest[i]),
        total_count=int(stats.total[i]), total_count_defaulted=bool(stats.defaulted[i]),
    )


def random_instance(rng, n_max=12):
    """A random candidate set with stats and graph, small enough for the
    dense oracle."""
    n = int(rng.integers(2, n_max + 1))
    users = [f"u{i:02d}" for i in range(n)]
    rows = []
    for uid in users:
        r = int(rng.integers(3, 21))
        t_k = r + int(rng.integers(0, 10))
        t = t_k + int(rng.integers(0, 200))
        rows.append((uid, r, t_k, t))
    edges = set()
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.3:
                edges.add((users[i], users[j]))
    return table(*rows), FollowerGraph.from_pairs(edges)


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
    table(("u", 0, 0, 0))
    table(("u", 2, 5, 9))
    with pytest.raises(ValueError, match="counts"):
        table(("u", 3, 2, 9))
    with pytest.raises(ValueError, match="counts"):
        table(("u", 1, 4, 3))
    with pytest.raises(ValueError, match="counts"):
        table(("u", -1, 0, 0))


def test_user_stats_names_the_first_bad_user():
    with pytest.raises(ValueError, match=r"^user b: counts .* got \(3, 2, 9\)$"):
        table(("a", 1, 1, 1), ("b", 3, 2, 9), ("c", 5, 4, 3))


@pytest.mark.parametrize("users", [("b", "a"), ("a", "a"), ("a", "c", "b")])
def test_user_stats_rejects_unsorted_or_repeated_users(users):
    n = len(users)
    with pytest.raises(ValueError, match="distinct and increasing"):
        UserStats(users, [1] * n, [1] * n, [1] * n)


@pytest.mark.parametrize("column", ["relevant", "harvest", "total", "defaulted", "v"])
def test_user_stats_rejects_a_column_of_the_wrong_length(column):
    columns = {"relevant": [1, 1], "harvest": [1, 1], "total": [1, 1]}
    columns[column] = [1, 1, 1]
    with pytest.raises(ValueError, match=f"column '{column}' has shape \\(3,\\), expected \\(2,\\)"):
        UserStats(("a", "b"), **columns)


def test_user_stats_defaults_v_and_defaulted():
    stats = UserStats(("a", "b"), [1, 2], [3, 4], [5, 6])
    assert stats.v.tolist() == [0.0, 0.0]
    assert stats.defaulted.tolist() == [False, False]
    assert stats.relevant.dtype == np.int64 and len(stats) == 2


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
    stats = compute_user_stats(classified(pairs))
    assert stats.users == ("ana", "bob")
    ana = user(stats, "ana")
    assert (ana.relevant_count, ana.harvest_count, ana.total_count) == (2, 3, 140)
    assert not ana.total_count_defaulted
    bob = user(stats, "bob")
    assert (bob.relevant_count, bob.harvest_count, bob.total_count) == (0, 1, 1)
    assert bob.total_count_defaulted


def test_compute_user_stats_clamps_small_declared_totals():
    pairs = [(record(i, "ana", total=2), R) for i in range(5)]
    stats = compute_user_stats(classified(pairs))
    assert user(stats, "ana").total_count == 5
    assert user(stats, "ana").total_count_defaulted


def test_compute_user_stats_empty():
    with pytest.raises(ValueError, match="no classified"):
        compute_user_stats(classified([]))


def parts_of(corpus, cuts):
    """The corpus cut before each record position in cuts, as one corpus per part."""
    records, bounds = records_of(corpus), [0, *sorted(cuts), len(corpus)]
    return [from_records(records[a:b]) for a, b in zip(bounds, bounds[1:])]


# (user, label, declared total or None) per record; with few users, a declared total
# may be absent, below the user's harvest or above it
@given(rows=st.lists(st.tuples(st.sampled_from(["ana", "bob", "cid", "dé", "Ed"]),
                               st.sampled_from([R, N, Z]), st.none() | st.integers(0, 12)),
                     max_size=40),
       cuts=st.lists(st.integers(0, 40), max_size=4))
@example(rows=[("ana", R, None), ("ana", N, None), ("bob", R, 1), ("bob", Z, 1),
               ("bob", N, None), ("cid", R, 50)], cuts=[1, 3, 3])
def test_merged_part_tallies_are_the_whole_corpus_stats(rows, cuts):
    corpus = classified((record(i, u, total), label) for i, (u, label, total) in enumerate(rows))
    tallies = [user_tally(part) for part in parts_of(corpus, [min(c, len(rows)) for c in cuts])]
    if not rows:
        with pytest.raises(ValueError, match="no classified records"):
            merge_user_tallies(tallies)
        return
    whole, merged = compute_user_stats(corpus), merge_user_tallies(tallies)
    assert merged.users == whole.users
    for name in ("relevant", "harvest", "total", "defaulted", "v"):
        got, want = getattr(merged, name), getattr(whole, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_merged_tallies_name_the_first_unlabelled_record_in_part_order():
    parts = [classified([(record(1, "ana"), R)]),
             classified([(record(2, "bob"), R), (record(3, "ana"), None),
                         (record(4, "bob"), None)]),
             classified([(record(5, "cid"), None)])]
    for n in (2, 3):
        with pytest.raises(ValueError, match="^record t3 has no label"):
            merge_user_tallies([user_tally(part) for part in parts[:n]])
    assert user_tally(parts[2])[4] == "t5"


def test_candidate_filter_threshold_exclusion_and_shares():
    stats = table(
        ("a", 4, 5, 10),
        ("b", 8, 9, 20),
        ("c", 2, 5, 10),
        ("d", 6, 6, 6),
    )
    config = RankConfig(min_relevant=3)
    kept = candidate_filter(stats, config, excluded={"d"})
    assert list(kept.users) == ["a", "b"]
    np.testing.assert_allclose(kept.v, [4 / 12, 8 / 12])
    assert sum(kept.v) == pytest.approx(1.0, abs=1e-12)


def test_candidate_filter_empty():
    stats = table(("a", 1, 2, 3))
    with pytest.raises(ValueError, match="candidates"):
        candidate_filter(stats, RankConfig(min_relevant=3))


def test_build_transition_single_friend_full_weight():
    # equal v makes sim exactly 1, and one friend takes the whole ratio
    a = ("a", 5, 5, 10, 0.5)
    b = ("b", 5, 5, 10, 0.5)
    P = build_transition(table(a, b), FollowerGraph.from_pairs({("a", "b")}))
    assert (P.rows.tolist(), P.cols.tolist(), P.vals.tolist()) == ([0], [1], [1.0])


def test_build_transition_splits_by_relevant_count():
    a = ("a", 4, 8, 10, 0.25)
    b = ("b", 2, 4, 10, 0.25)
    c = ("c", 6, 12, 20, 0.25)
    graph = FollowerGraph.from_pairs({("a", "b"), ("a", "c")})
    P = build_transition(table(a, b, c), graph)
    assert (P.rows.tolist(), P.cols.tolist()) == ([0, 0], [1, 2])
    np.testing.assert_allclose(P.vals, [2 / 8, 6 / 8])


def test_build_transition_similarity_attenuates():
    a = ("a", 3, 3, 3, 0.75)
    b = ("b", 3, 3, 3, 0.25)
    P = build_transition(table(a, b), FollowerGraph.from_pairs({("a", "b")}))
    assert (P.rows.tolist(), P.cols.tolist()) == ([0], [1])
    np.testing.assert_allclose(P.vals, [1.0 * (1 - 0.5)])


def test_build_transition_ignores_outsiders():
    a = ("a", 3, 3, 3, 1.0)
    graph = FollowerGraph.from_pairs({("a", "x"), ("y", "a")})
    P = build_transition(table(a), graph)
    assert len(P.rows) == len(P.cols) == len(P.vals) == 0


def test_build_transition_matches_per_candidate_loop():
    rng = np.random.default_rng(31)
    for _ in range(40):
        stats, graph = random_instance(rng)
        users = list(stats.users)
        # excluded users leave edges with an endpoint outside the candidates
        excluded = rng.choice(users, size=int(rng.integers(0, len(users))), replace=False)
        candidates = candidate_filter(stats, RankConfig(), excluded.tolist())
        got = build_transition(candidates, graph)
        want = oracle_transition(candidates, graph)
        assert got.users == want.users
        assert np.array_equal(got.rows, want.rows)
        assert np.array_equal(got.cols, want.cols)
        assert np.array_equal(got.vals, want.vals)


def test_twitterrank_isolated_candidate_floor():
    a = table(("a", 5, 5, 5, 1.0))
    P = build_transition(a, FollowerGraph.from_pairs([]))
    rv = twitterrank(P, a, RankConfig())
    assert rv.converged
    assert abs(rv.scores[0] - 0.15) <= 1e-12


def test_twitterrank_two_isolated_split_evenly():
    ab = table(("a", 5, 5, 5, 0.5), ("b", 5, 5, 5, 0.5))
    P = build_transition(ab, FollowerGraph.from_pairs([]))
    rv = twitterrank(P, ab, RankConfig())
    assert abs(rv.scores[0] - 0.075) <= 1e-12
    assert abs(rv.scores[1] - 0.075) <= 1e-12
    # one propagation step reaches the fixed point, the next certifies it
    assert rv.iterations <= 2


def test_twitterrank_requires_normalized_shares():
    ab = table(("a", 5, 5, 5, 0.3), ("b", 5, 5, 5, 0.3))
    P = build_transition(ab, FollowerGraph.from_pairs([]))
    with pytest.raises(ValueError, match="sum to 1"):
        twitterrank(P, ab, RankConfig())


def test_twitterrank_rejects_stats_for_other_users():
    ab = table(("a", 5, 5, 5, 0.5), ("b", 5, 5, 5, 0.5))
    P = build_transition(ab, FollowerGraph.from_pairs([]))
    for other in (table(("a", 5, 5, 5, 0.5), ("c", 5, 5, 5, 0.5)), table(("a", 5, 5, 5, 1.0))):
        with pytest.raises(ValueError, match="different users"):
            twitterrank(P, other, RankConfig())


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
        e = np.array(candidates.v.tolist())
        want = oracle_linear_solve(P, e, config.gamma)
        got = rv.scores
        assert np.abs(got - want).max() <= 1e-9


def test_twitterrank_scores_respect_teleport_floor():
    rng = np.random.default_rng(8)
    for _ in range(10):
        stats, graph = random_instance(rng)
        candidates = candidate_filter(stats, RankConfig(), ())
        P = build_transition(candidates, graph)
        rv = twitterrank(P, candidates, RankConfig())
        for score, v in zip(rv.scores, candidates.v):
            assert score >= 0.15 * v - 1e-12


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
    u = table(("u", 20, 28, 140))
    assert topic_focus(u)[0] == pytest.approx(100 * 20 / 28)
    assert overall_focus(u)[0] == pytest.approx(100 * 20 / 140)
    assert topic_focus(table(("v", 7, 7, 7)))[0] == 100.0
    with pytest.raises(ValueError, match="harvest"):
        topic_focus(table(("w", 0, 0, 5)))
    with pytest.raises(ValueError, match="total"):
        overall_focus(table(("w", 0, 0, 0)))


def components_of(graph, users):
    """connected_components over the transition matrix of equal candidates."""
    candidates = candidate_filter(table(*((u, 3, 3, 3) for u in users)), RankConfig())
    return connected_components(build_transition(candidates, graph))


def test_connected_components_basics():
    graph = FollowerGraph.from_pairs({("a", "b"), ("c", "d"), ("d", "c"), ("x", "y")})
    comps, mutual = components_of(graph, ["a", "b", "c", "d", "e"])
    assert comps == [["a", "b"], ["c", "d"], ["e"]]
    assert mutual == [("c", "d")]


def test_connected_components_ignore_noncandidate_bridges():
    # a-x-b would connect a and b, but x is not a candidate
    graph = FollowerGraph.from_pairs({("a", "x"), ("x", "b")})
    comps, mutual = components_of(graph, ["a", "b"])
    assert comps == [["a"], ["b"]]
    assert mutual == []


def long_path_instance(rng, n=500):
    """One path through n users in random order, each edge in a random direction."""
    users = [f"p{i:03d}" for i in rng.permutation(n)]
    edges = {
        (a, b) if rng.random() < 0.5 else (b, a) for a, b in zip(users, users[1:])
    }
    return table(*((u, 3, 3, 3) for u in sorted(users))), FollowerGraph.from_pairs(edges)


def test_connected_components_match_union_find():
    rng = np.random.default_rng(99)
    instances = [random_instance(rng) for _ in range(20)] + [long_path_instance(rng)]
    for stats, graph in instances:
        users = list(stats.users)
        edges = set(graph_pairs(graph))
        comps, mutual = connected_components(
            build_transition(candidate_filter(stats, RankConfig()), graph)
        )
        uf = UnionFind(users)
        for a, b in edges:
            if a in stats.users and b in stats.users:
                uf.union(a, b)
        want = {}
        for u in users:
            want.setdefault(uf.find(u), set()).add(u)
        got = {frozenset(c) for c in comps}
        assert got == {frozenset(s) for s in want.values()}
        assert sorted(len(c) for c in comps) == sorted(len(s) for s in want.values())
        for a, b in mutual:
            assert a < b
            assert (a, b) in edges and (b, a) in edges
        assert mutual == sorted(
            (a, b) for a, b in edges
            if a < b and (b, a) in edges and a in stats.users and b in stats.users
        )
        assert comps == sorted(comps, key=lambda c: (-len(c), c[0]))
        assert all(c == sorted(c) for c in comps)


def test_ranking_report_orders_and_cross_ranks():
    stats = table(
        ("a", 10, 10, 100),
        ("b", 8, 10, 10),
        ("c", 6, 12, 300),
    )
    config = RankConfig(min_relevant=3, k=10)
    candidates = candidate_filter(stats, config, ())
    graph = FollowerGraph.from_pairs({("b", "a"), ("c", "a")})
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
    assert rows["a"].tr_score == pytest.approx(100 * rv.scores[0])


def test_ranking_report_ties_break_by_user_id():
    stats = table(*((uid, 5, 10, 20) for uid in ("k", "m", "p")))
    config = RankConfig(k=3)
    candidates = candidate_filter(stats, config, ())
    P = build_transition(candidates, FollowerGraph.from_pairs([]))
    rv = twitterrank(P, candidates, config)
    report = ranking_report(candidates, rv, config, metric="tf")
    assert [row.user_id for row in report.rows] == ["k", "m", "p"]
    assert [row.tf_rank for row in report.rows] == [1, 2, 3]


def test_ranking_report_k_limits_rows():
    stats = table(*((f"u{i}", 3 + i, 10 + i, 50) for i in range(6)))
    config = RankConfig(k=2)
    candidates = candidate_filter(stats, config, ())
    P = build_transition(candidates, FollowerGraph.from_pairs([]))
    rv = twitterrank(P, candidates, config)
    report = ranking_report(candidates, rv, config, metric="of")
    assert len(report.rows) == 2
    # ranks still span the full candidate pool
    assert report.rows[0].of_rank == 1


def test_ranking_report_validation():
    stats = table(("a", 3, 3, 3))
    candidates = candidate_filter(stats, RankConfig(), ())
    P = build_transition(candidates, FollowerGraph.from_pairs([]))
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
    for metric, values in (
        ("tr", rv.scores),
        ("tf", topic_focus(candidates)),
        ("of", overall_focus(candidates)),
    ):
        report = ranking_report(candidates, rv, config, metric=metric)
        value = dict(zip(candidates.users, values.tolist())).__getitem__
        want = sorted(candidates.users, key=lambda u: (-value(u), u))
        assert [row.user_id for row in report.rows] == want


def test_report_serializations(tmp_path):
    stats = table(("ana maria", 3, 4, 5))
    config = RankConfig(k=1)
    candidates = candidate_filter(stats, config, ())
    P = build_transition(candidates, FollowerGraph.from_pairs([]))
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
        scaled = UserStats(stats.users, 7 * stats.relevant, 7 * stats.harvest,
                           7 * stats.total)
        config = RankConfig(k=len(stats))
        base = candidate_filter(stats, config, ())
        big = candidate_filter(scaled, config, ())
        assert base.v.tolist() == big.v.tolist()
        rv_base = twitterrank(build_transition(base, graph), base, config)
        rv_big = twitterrank(build_transition(big, graph), big, config)
        assert rv_base.scores.tolist() == rv_big.scores.tolist()
        for metric in ("tr", "tf", "of"):
            rep_base = ranking_report(base, rv_base, config, metric=metric)
            rep_big = ranking_report(big, rv_big, config, metric=metric)
            assert [r.user_id for r in rep_base.rows] == [r.user_id for r in rep_big.rows]


def random_table(rng):
    """Candidates with heavily tied counts and scores; their user ids sort
    differently as strings than as numbers."""
    n = int(rng.integers(1, 25))
    users = sorted(f"u{i}" for i in rng.choice(200, size=n, replace=False))
    relevant = rng.integers(1, 4, size=n)
    harvest = relevant + rng.integers(0, 3, size=n)
    total = harvest + rng.integers(0, 3, size=n)
    candidates = UserStats(users, relevant, harvest, total, v=relevant / relevant.sum())
    scores = rng.integers(0, 3, size=n) / 7
    return candidates, RankVector(scores, 1, 0.0, True)


def test_ranking_report_matches_per_user_oracle():
    rng = np.random.default_rng(20161018)
    for _ in range(200):
        candidates, rv = random_table(rng)
        config = RankConfig(k=int(rng.integers(1, 2 * len(candidates) + 1)))
        for metric in REPORT_METRICS:
            got = ranking_report(candidates, rv, config, metric)
            want = oracle_ranking_report(candidates, rv, config, metric)
            assert got.rows == want.rows
            assert len(got.rows) == min(config.k, len(candidates))


def test_traced_rank_counters_stay_readable():
    """perfbench/tracer.py wraps these names and counts len(candidate_filter(...)),
    build_transition(candidates, graph).rows against graph.edges, and
    twitterrank(...).iterations."""
    for name in ("compute_user_stats", "candidate_filter", "build_transition", "twitterrank",
                 "ranking_report"):
        fn = getattr(rank, name)
        assert name in rank.__all__
        assert inspect.isfunction(fn) and fn.__module__ == rank.__name__
    candidates = candidate_filter(table(("a", 3, 3, 3), ("b", 3, 3, 3), ("c", 1, 1, 1)), RankConfig())
    graph = FollowerGraph.from_pairs({("a", "b"), ("a", "c"), ("x", "a")})
    P = build_transition(candidates, graph)
    assert len(candidates) == 2
    assert (len(P.rows), len(graph.edges) - len(P.rows)) == (1, 2)
    assert twitterrank(P, candidates, RankConfig()).iterations >= 1
