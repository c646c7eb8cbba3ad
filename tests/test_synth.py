import numpy as np
import pytest

from sensor_rank.corpus import FollowerGraph, Label, write_corpus, write_follower_graph
from sensor_rank.rank import (
    RankConfig,
    UserStats,
    build_transition,
    candidate_filter,
    compute_user_stats,
    overall_focus,
    topic_focus,
)
from sensor_rank.synth import SynthConfig, generate

from oracles import oracle_linear_solve, oracle_nb_posterior

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
    return compute_user_stats([(rec, gold[rec.id]) for rec in corpus.records])


def test_config_validation():
    with pytest.raises(ValueError, match="class_mix"):
        SynthConfig(seed=1, class_mix=(0.5, 0.5, 0.5))
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
    assert corpus1.records == corpus2.records
    assert graph1.edges == graph2.edges
    assert gold1 == gold2

    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_corpus(corpus1, a)
    write_corpus(corpus2, b)
    assert a.read_bytes() == b.read_bytes()
    ga, gb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_follower_graph(graph1, ga)
    write_follower_graph(graph2, gb)
    assert ga.read_bytes() == gb.read_bytes()


def test_generate_varies_with_seed():
    corpus1, _, _ = generate(small_config(seed=11))
    corpus2, _, _ = generate(small_config(seed=12))
    assert corpus1.records != corpus2.records


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
    for uid, u in stats.items():
        if uid in influencers or u.relevant_count == 0:
            continue
        key = bucket(u.relevant_count)
        got[key] = got.get(key, 0) + 1
    # the influencer occupies one "20+" slot of the plan
    want = dict(SMALL_HISTOGRAM)
    want["20+"] -= 1
    want = {k: v for k, v in want.items() if v}
    assert got == want


def test_generate_class_mix_and_labels():
    config = small_config()
    corpus, _, gold = generate(config)
    assert set(gold) == {rec.id for rec in corpus.records}
    counts = {R: 0, N: 0, Z: 0}
    for rec in corpus.records:
        assert gold[rec.id] is rec.label
        counts[rec.label] += 1
    n = len(corpus.records)
    for share, label in zip(config.class_mix, (R, N, Z)):
        assert abs(counts[label] / n - share) < 0.05


def test_generate_relevant_budget_matches_mix():
    config = small_config()
    corpus, _, gold = generate(config)
    n_rel = sum(1 for rec in corpus.records if rec.label is R)
    assert len(corpus.records) == round(n_rel / config.class_mix[0])


def test_generated_text_uses_class_vocabulary():
    config = small_config()
    corpus, _, _ = generate(config)
    vocab_of = {
        label: set(terms)
        for label, terms in zip((R, N, Z), config.class_vocabularies)
    }
    for rec in corpus.records[:500]:
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
    for rec in corpus.records:
        checked += len(rec.text.split())
        foreign += sum(1 for w in rec.text.split() if w not in vocab_of[rec.label])
    assert 0.3 < foreign / checked < 0.5


def test_planted_influencer_dominates():
    config = small_config()
    corpus, graph, gold = generate(config)
    stats = stats_by_user(corpus, gold)
    boss = stats["sentinela001"]
    assert boss.relevant_count == 40
    assert boss.harvest_count == 40
    assert topic_focus(boss) == 100.0
    assert overall_focus(boss) == 100.0
    others = [u for uid, u in stats.items() if uid != "sentinela001"]
    assert boss.relevant_count > max(u.relevant_count for u in others)
    in_degrees = {uid: 0 for uid in stats}
    for _, friend in graph.edges:
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
    times = [rec.created_at for rec in corpus.records]
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
    a = UserStats("a", 3, 3, 3, v=0.25)
    b = UserStats("b", 9, 9, 9, v=0.75)
    P = build_transition([a, b], FollowerGraph(frozenset()))
    x = oracle_linear_solve(P, np.array([0.25, 0.75]), 0.85)
    np.testing.assert_allclose(x, [0.15 * 0.25, 0.15 * 0.75], atol=1e-15)


def test_oracle_linear_solve_size_guard():
    stats = [UserStats(f"u{i}", 3, 3, 3, v=1 / 65) for i in range(65)]
    P = build_transition(stats, FollowerGraph(frozenset()))
    with pytest.raises(ValueError, match="64"):
        oracle_linear_solve(P, np.full(65, 1 / 65), 0.85)
    with pytest.raises(ValueError, match="length"):
        oracle_linear_solve(
            build_transition(stats[:2], FollowerGraph(frozenset())),
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
