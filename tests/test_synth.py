import copy
import hashlib
import json
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from sensor_rank import cli
from sensor_rank.corpus import (
    FollowerGraph, Label, load_follower_graph, write_corpus, write_follower_graph,
)
from sensor_rank.rank import (
    RankConfig,
    UserStats,
    build_transition,
    candidate_filter,
    compute_user_stats,
    overall_focus,
    topic_focus,
)
from sensor_rank.synth import MAX_TWEETS, SynthConfig, generate

from oracles import (
    class_ids, graph_pairs, oracle_linear_solve, oracle_nb_posterior, records_of,
)

R, N, Z = Label.RELEVANT, Label.NEWS, Label.NOISE

SMALL_HISTOGRAM = {"1": 40, "2": 12, "3": 10, "4": 6, "5-9": 6, "10-19": 2, "20+": 1}


def small_config(seed=11, **overrides):
    base = dict(
        seed=seed,
        n_users=150,
        tail_histogram=dict(SMALL_HISTOGRAM),
        planted_influencers=(("sentinela001", 40, 20),),
    )
    base.update(overrides)
    return SynthConfig(**base)


def stats_by_user(corpus, gold):
    return compute_user_stats(replace(corpus, y=class_ids(gold[i] for i in corpus.ids)))


def test_configs_hash_by_value_and_hold_a_read_only_histogram():
    histogram = dict(SMALL_HISTOGRAM)
    config = small_config(tail_histogram=histogram)
    histogram["1"] = 0  # the config holds a copy
    assert config.tail_histogram == SMALL_HISTOGRAM
    with pytest.raises(TypeError):
        config.tail_histogram["1"] = 0
    reordered = small_config(tail_histogram=dict(reversed(SMALL_HISTOGRAM.items())))
    assert config == reordered and hash(config) == hash(reordered)
    assert config == replace(config) and config != small_config(seed=12)
    assert config != small_config(tail_histogram={**SMALL_HISTOGRAM, "1": 41})
    assert len({config, reordered, small_config(seed=12)}) == 2
    assert hash(SynthConfig(seed=1)) == hash(SynthConfig(seed=1))
    for copied in (pickle.loads(pickle.dumps(config)), copy.deepcopy(config)):
        assert copied == config and hash(copied) == hash(config)
        assert type(copied.tail_histogram) is type(config.tail_histogram)


def test_config_validation():
    with pytest.raises(ValueError, match="class_mix"):
        SynthConfig(seed=1, class_mix=(0.5, 0.5, 0.5))
    for mix in [(0.5, 0.6, -0.1), (0.5, math.nan, 0.5), (math.inf, 0.5, -math.inf)]:
        with pytest.raises(ValueError, match=r"class_mix shares must be finite and >= 0"):
            SynthConfig(seed=1, class_mix=mix)
    with pytest.raises(ValueError, match="disjoint"):
        SynthConfig(seed=1, class_vocabularies=(("a",), ("a",), ("b",)))
    with pytest.raises(ValueError, match="bucket"):
        SynthConfig(seed=1, tail_histogram={"7": 3})
    with pytest.raises(ValueError, match="negative"):
        SynthConfig(seed=1, tail_histogram={"1": -2})
    with pytest.raises(ValueError, match="exceed"):
        SynthConfig(seed=1, planted_influencers=(("boss", 30, 10),))
    with pytest.raises(ValueError, match="fan_in"):
        SynthConfig(seed=1, planted_influencers=(("boss", 40, 0),))
    with pytest.raises(ValueError, match="unique"):
        SynthConfig(seed=1, planted_influencers=(("boss", 40, 5), ("boss", 50, 5)))
    with pytest.raises(ValueError, match="noise_rate"):
        SynthConfig(seed=1, noise_rate=1.0)
    with pytest.raises(ValueError, match="edge_density"):
        SynthConfig(seed=1, edge_density=-0.1)
    SynthConfig(seed=1, n_users=MAX_TWEETS)
    with pytest.raises(ValueError, match=f"n_users must be at most {MAX_TWEETS}"):
        SynthConfig(seed=1, n_users=MAX_TWEETS + 1)


def test_config_bounds_the_tweet_budget():
    # each "1" slot asks for one relevant tweet, each "5-9" slot for up to nine
    half = (0.5, 0.25, 0.25)
    SynthConfig(seed=1, class_mix=half, tail_histogram={"1": MAX_TWEETS // 2},
                planted_influencers=())
    with pytest.raises(ValueError, match="tweet budget"):
        SynthConfig(seed=1, class_mix=half, tail_histogram={"1": MAX_TWEETS // 2 + 1},
                    planted_influencers=())
    with pytest.raises(ValueError, match="tweet budget"):
        SynthConfig(seed=1, class_mix=half, tail_histogram={"5-9": MAX_TWEETS // 18 + 1},
                    planted_influencers=())
    with pytest.raises(ValueError, match="tweet budget"):
        SynthConfig(seed=1, planted_influencers=(("boss", 2**62, 10),))


def test_config_from_json(tmp_path):
    path = tmp_path / "synth.json"
    path.write_text(
        '{"seed": 3, "n_users": 100, "tail_histogram": {"1": 10},'
        ' "planted_influencers": [["boss", 44, 9]]}',
        encoding="utf-8",
    )
    config = SynthConfig.from_json(path)
    assert config.seed == 3
    assert config.planted_influencers == (("boss", 44, 9),)

    path.write_text('{"seed": 3, "wat": 1}', encoding="utf-8")
    with pytest.raises(ValueError, match="wat"):
        SynthConfig.from_json(path)
    path.write_text('{"n_users": 5}', encoding="utf-8")
    with pytest.raises(ValueError, match="seed"):
        SynthConfig.from_json(path)


def test_generate_is_deterministic(tmp_path):
    config = small_config()
    corpus1, graph1, gold1 = generate(config)
    corpus2, graph2, gold2 = generate(config)
    assert records_of(corpus1) == records_of(corpus2)
    assert graph1 == graph2
    assert gold1 == gold2

    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_corpus(corpus1, a)
    write_corpus(corpus2, b)
    assert a.read_bytes() == b.read_bytes()
    ga, gb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_follower_graph(graph1, ga)
    write_follower_graph(graph2, gb)
    assert ga.read_bytes() == gb.read_bytes()


# config -> sha256 of (corpus.jsonl, graph.csv) as `synth` writes them
GOLDEN = {
    "default": (
        {"seed": 1},
        "ba93a005083cf1786f5665da9180d65d0ad800679a7a645f2e4e0d970400ef99",
        "f5b56fc70469833eddb09cfe4688aaad3e51e5c723f745e3f4a9ad72affb2bbd",
    ),
    "dense_graph": (
        {"seed": 1, "n_users": 4500, "noise_rate": 0.2, "class_mix": [0.25, 0.4, 0.35],
         "edge_density": 0.07,
         "tail_histogram": {"1": 2000, "2": 300, "3": 1200, "4": 200, "5-9": 100, "20+": 1},
         "planted_influencers": [["sentinela001", 50, 400]]},
        "36620a66d7faacb1b5cde30c79b43e1010cc37bb2bab947d206c4b9f2dcebf15",
        "22d7d8e9b25338cb989d4aa0e853ce8842ae431a526126f778c20be395d88b35",
    ),
    "no_influencers": (
        {"seed": 2, "n_users": 300, "tail_histogram": SMALL_HISTOGRAM,
         "planted_influencers": [], "noise_rate": 0.1},
        "9280a6233c813b19b830c34749e1c9dd2a2a27165a9e6ab8b527611058e1d538",
        "0d6b8f64f4b1869e65596f239d2063f27ea46afbf36560f3de1f7f85d2585a4c",
    ),
    "no_core_edges": (
        {"seed": 4, "n_users": 150, "tail_histogram": SMALL_HISTOGRAM,
         "planted_influencers": [["sentinela001", 40, 20]], "edge_density": 0.0},
        "161de70dfacb7c70703f35c1afad621a502a5548cc980ef3da974c8a3702d87a",
        "5b6fa627ff2b1d7904a612e79b47bbcd00744978bcec61a06af34b7bf3d71027",
    ),
    # the influencer's id is also the third organic user's: ids compare as strings
    "id_collision": (
        {"seed": 5, "n_users": 900, "planted_influencers": [["u00002", 40, 10]],
         "tail_histogram": {"1": 300, "3": 50, "5-9": 20, "20+": 3}},
        "7920fc9b9f6e10988e55e0b696f2646dae4b3223a9c6aac8cb5418935ebc1331",
        "6c50293069122efc08a0fb46a6e64aeefaccdc2ba7d2d5fe6d58bb6afd81219f",
    ),
    "two_influencers": (
        {"seed": 3, "n_users": 400, "tail_histogram": {"1": 200, "3": 40, "4": 10, "20+": 3},
         "planted_influencers": [["a1", 45, 12], ["b2", 60, 15]], "edge_density": 0.05,
         "noise_rate": 0.3},
        "63ee2471a2e193744cb2425fc07909178ea348b8defb8d33d9b89d0563d581cd",
        "e8d767bff94e45f166afb5c73637d2984b54b19e22039024c98f1247af3c847e",
    ),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_generate_writes_pinned_bytes(tmp_path, name):
    config, corpus_sha, graph_sha = GOLDEN[name]
    corpus, graph, _ = generate(SynthConfig(**config))
    write_corpus(corpus, tmp_path / "corpus.jsonl")
    write_follower_graph(graph, tmp_path / "graph.csv")
    digest = {p: hashlib.sha256((tmp_path / p).read_bytes()).hexdigest()
              for p in ("corpus.jsonl", "graph.csv")}
    assert digest == {"corpus.jsonl": corpus_sha, "graph.csv": graph_sha}


@pytest.mark.parametrize("seed", [23, 26, 44, 47])
def test_synth_drops_core_edges_between_one_ids_two_users(tmp_path, seed):
    # at these seeds the core draws an edge between the influencer u00002 and
    # the organic user u00002, one user once ids are compared
    config = {"seed": seed, "n_users": 300, "planted_influencers": [["u00002", 40, 30]],
              "tail_histogram": {"3": 60, "20+": 1}, "edge_density": 0.05}
    (tmp_path / "c.json").write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["synth", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path)]) == 0
    edges = load_follower_graph(tmp_path / "graph.csv").edges
    assert len(edges) and (edges[:, 0] != edges[:, 1]).all()


def test_generate_varies_with_seed():
    corpus1, _, _ = generate(small_config(seed=11))
    corpus2, _, _ = generate(small_config(seed=12))
    assert records_of(corpus1) != records_of(corpus2)


def test_generate_reproduces_activity_histogram():
    config = small_config()
    corpus, _, gold = generate(config)
    stats = stats_by_user(corpus, gold)

    def bucket(r):
        if r >= 20:
            return "20+"
        if r >= 10:
            return "10-19"
        if r >= 5:
            return "5-9"
        return str(r)

    got = {}
    influencers = {uid for uid, _, _ in config.planted_influencers}
    for uid, relevant_count in zip(stats.users, stats.relevant.tolist()):
        if uid in influencers or relevant_count == 0:
            continue
        key = bucket(relevant_count)
        got[key] = got.get(key, 0) + 1
    # the influencer occupies one "20+" slot of the plan
    want = dict(SMALL_HISTOGRAM)
    want["20+"] -= 1
    want = {k: v for k, v in want.items() if v}
    assert got == want


def test_generate_class_mix_and_labels():
    config = small_config()
    corpus, _, gold = generate(config)
    assert set(gold) == {rec.id for rec in records_of(corpus)}
    counts = {R: 0, N: 0, Z: 0}
    for rec in records_of(corpus):
        assert gold[rec.id] is rec.label
        counts[rec.label] += 1
    n = len(records_of(corpus))
    for share, label in zip(config.class_mix, (R, N, Z)):
        assert abs(counts[label] / n - share) < 0.05


def test_generate_relevant_budget_matches_mix():
    config = small_config()
    corpus, _, gold = generate(config)
    n_rel = sum(1 for rec in records_of(corpus) if rec.label is R)
    assert len(records_of(corpus)) == round(n_rel / config.class_mix[0])


def test_generated_text_uses_class_vocabulary():
    config = small_config()
    corpus, _, _ = generate(config)
    vocab_of = {
        label: set(terms)
        for label, terms in zip((R, N, Z), config.class_vocabularies)
    }
    for rec in records_of(corpus)[:500]:
        words = set(rec.text.split())
        assert words <= vocab_of[rec.label]


def test_generate_noise_rate_mixes_foreign_terms():
    config = small_config(noise_rate=0.4)
    corpus, _, _ = generate(config)
    foreign = 0
    checked = 0
    vocab_of = {
        label: set(terms)
        for label, terms in zip((R, N, Z), config.class_vocabularies)
    }
    for rec in records_of(corpus):
        checked += len(rec.text.split())
        foreign += sum(1 for w in rec.text.split() if w not in vocab_of[rec.label])
    assert 0.3 < foreign / checked < 0.5


def test_planted_influencer_dominates():
    config = small_config()
    corpus, graph, gold = generate(config)
    stats = stats_by_user(corpus, gold)
    boss = stats.users.index("sentinela001")
    assert stats.relevant[boss] == 40
    assert stats.harvest[boss] == 40
    assert topic_focus(stats)[boss] == 100.0
    assert overall_focus(stats)[boss] == 100.0
    others = np.delete(stats.relevant, boss)
    assert stats.relevant[boss] > max(others)
    in_degrees = {uid: 0 for uid in stats.users}
    for _, friend in graph_pairs(graph):
        if friend in in_degrees:
            in_degrees[friend] += 1
    fan_in = in_degrees["sentinela001"]
    assert fan_in == max(in_degrees.values())
    assert sorted(in_degrees.values())[-2] < fan_in


def test_candidate_population_is_exact():
    config = small_config()
    corpus, _, gold = generate(config)
    stats = stats_by_user(corpus, gold)
    candidates = candidate_filter(stats, RankConfig(min_relevant=3), ())
    # every bucket slot at r >= 3; the influencer occupies the 20+ slot
    assert len(candidates) == 10 + 6 + 6 + 2 + 1


def test_generate_timestamps_are_valid_and_increasing():
    corpus, _, _ = generate(small_config())
    times = [rec.created_at for rec in records_of(corpus)]
    assert all(t.endswith("Z") for t in times)
    assert times == sorted(times)
    assert len(set(times)) == len(times)


def test_generate_rejects_infeasible_demands():
    with pytest.raises(ValueError, match="n_users"):
        generate(SynthConfig(seed=1, n_users=10, tail_histogram={"1": 50},
                             planted_influencers=()))
    with pytest.raises(ValueError, match="slot"):
        generate(small_config(tail_histogram={"1": 10, "20+": 0}))
    with pytest.raises(ValueError, match="fan_in"):
        generate(small_config(planted_influencers=(("boss", 40, 290),)))


def test_oracle_linear_solve_edgeless():
    ab = UserStats(("a", "b"), [3, 9], [3, 9], [3, 9], v=[0.25, 0.75])
    P = build_transition(ab, FollowerGraph.from_pairs([]))
    x = oracle_linear_solve(P, np.array([0.25, 0.75]), 0.85)
    np.testing.assert_allclose(x, [0.15 * 0.25, 0.15 * 0.75], atol=1e-15)


def test_oracle_linear_solve_size_guard():
    users = sorted(f"u{i}" for i in range(65))
    stats = UserStats(users, [3] * 65, [3] * 65, [3] * 65, v=[1 / 65] * 65)
    P = build_transition(stats, FollowerGraph.from_pairs([]))
    with pytest.raises(ValueError, match="64"):
        oracle_linear_solve(P, np.full(65, 1 / 65), 0.85)
    with pytest.raises(ValueError, match="length"):
        oracle_linear_solve(
            build_transition(
                UserStats(users[:2], [3] * 2, [3] * 2, [3] * 2, v=[1 / 65] * 2),
                FollowerGraph.from_pairs([]),
            ),
            np.array([1.0]),
            0.85,
        )


def test_oracle_nb_uniform_posterior():
    vectors = [{0: 1}, {1: 1}, {2: 1}]
    labels = [R, N, Z]
    probs = oracle_nb_posterior(vectors, labels, 3, 1.0, {})
    np.testing.assert_allclose(list(probs.values()), [1 / 3] * 3, atol=0)


def test_oracle_nb_missing_class_gets_zero():
    probs = oracle_nb_posterior([{0: 1}, {1: 1}], [R, N], 2, 1.0, {0: 1})
    assert probs[Z] == 0.0
    assert probs[R] + probs[N] == pytest.approx(1.0, abs=1e-15)
