"""End-to-end acceptance suite.

Eleven checks, one printed [PASS]/[FAIL] line each (run with -s to see them
on success; pytest shows the captured lines for failing tests anyway).
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from sensor_rank.classify import (
    LabeledDataset,
    TrainingConfig,
    cross_validate,
    dataset_from_corpus,
    predict_many,
    smote,
    train_mnnb,
)
from sensor_rank.cli import main
from sensor_rank.corpus import FollowerGraph, Label
from sensor_rank.rank import (
    RankConfig,
    UserStats,
    build_transition,
    candidate_filter,
    compute_user_stats,
    ranking_report,
    topic_focus,
    overall_focus,
    twitterrank,
)
from sensor_rank.synth import SynthConfig, generate
from sensor_rank.text import ReplacementTable, Vocabulary, count_ngrams

from oracles import class_ids, count_matrix, oracle_linear_solve, oracle_nb_posterior

GAMMA = 0.85
R, N, Z = Label.RELEVANT, Label.NEWS, Label.NOISE


def report_line(num, label, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {num:02d} {label}{suffix}")
    assert ok, f"{num:02d} {label}{suffix}"


def random_rank_instance(rng):
    n = int(rng.integers(2, 13))
    counts = []
    for i in range(n):
        r = int(rng.integers(3, 21))
        t_k = r + int(rng.integers(0, 10))
        counts.append((r, t_k, t_k + int(rng.integers(0, 150))))
    users = [f"u{i:02d}" for i in range(n)]
    stats = UserStats(users, *zip(*counts))
    edges = {
        (users[i], users[j])
        for i in range(n)
        for j in range(n)
        if i != j and rng.random() < 0.3
    }
    return stats, FollowerGraph.from_pairs(edges)


@pytest.fixture(scope="module")
def power_iteration_suite():
    """100 seeded small instances solved both ways, shared by three checks."""
    config = RankConfig(tol=1e-12)
    runs = []
    start = time.perf_counter()
    rng = np.random.default_rng(20160901)
    for _ in range(100):
        stats, graph = random_rank_instance(rng)
        candidates = candidate_filter(stats, config, ())
        P = build_transition(candidates, graph)
        rv = twitterrank(P, candidates, config)
        e = np.array(candidates.v.tolist())
        want = oracle_linear_solve(P, e, config.gamma)
        runs.append((candidates, P, rv, e, want))
    elapsed = time.perf_counter() - start
    return runs, elapsed


def test_01_power_iteration_matches_dense_solver(power_iteration_suite):
    runs, elapsed = power_iteration_suite
    worst = 0.0
    for candidates, P, rv, _, want in runs:
        got = rv.scores
        worst = max(worst, float(np.abs(got - want).max()))
    ok = worst <= 1e-9 and elapsed < 5.0
    report_line(1, "iterative ranking matches the dense solver on 100 instances",
                ok, f"max err {worst:.2e}, {elapsed:.2f}s")


def test_02_residuals_contract_geometrically(power_iteration_suite):
    runs, _ = power_iteration_suite
    violations = 0
    checked = 0
    for _, _, rv, _, _ in runs:
        for prev, cur in zip(rv.residuals, rv.residuals[1:]):
            checked += 1
            if cur > GAMMA * prev + 1e-12:
                violations += 1
    ok = violations == 0 and checked > 0
    report_line(2, "every residual step shrinks by at least the damping factor",
                ok, f"{checked} steps, {violations} violations")


def test_03_scores_never_fall_below_teleport_floor(power_iteration_suite):
    runs, _ = power_iteration_suite
    violations = 0
    for candidates, P, rv, e, _ in runs:
        for score, v in zip(rv.scores, candidates.v):
            if score < (1 - GAMMA) * v - 1e-12:
                violations += 1
    lone = UserStats(("a",), [5], [5], [5], v=[1.0])
    P = build_transition(lone, FollowerGraph.from_pairs([]))
    rv = twitterrank(P, lone, RankConfig())
    isolated_ok = abs(rv.scores[0] - 0.15) <= 1e-12
    ok = violations == 0 and isolated_ok
    report_line(3, "scores keep the teleport floor; isolated candidate scores 0.15",
                ok, f"{violations} floor violations")


def test_04_focus_metric_fixtures():
    # rows: heavy, lone, dilute
    fixtures = UserStats(("u1", "u2", "u3"), [20, 7, 4], [28, 7, 4], [140, 7, 19])
    tf, of = topic_focus(fixtures), overall_focus(fixtures)
    checks = [
        abs(tf[0] - 71.43) <= 0.01,
        abs(of[0] - 14.29) <= 0.01,
        tf[1] == 100.0,
        abs(of[2] - 21.05) <= 0.01,
    ]
    report_line(4, "focus percentages reproduce the reference fixtures",
                all(checks), f"{sum(checks)}/4 fixtures")


def test_05_smote_doubles_minority_and_respects_segments():
    rng = np.random.default_rng(1214)
    n, dim, k = 1214, 40, 5
    minority = []
    for _ in range(n):
        tids = rng.choice(dim, size=int(rng.integers(1, 5)), replace=False)
        minority.append({int(t): float(rng.integers(1, 6)) for t in tids})
    synthetic = smote(count_matrix(minority, dim), 100, k, seed=77)
    total = len(minority) + len(synthetic)

    dense = np.zeros((n, dim))
    for i, vec in enumerate(minority):
        for t, c in vec.items():
            dense[i, t] = c
    d2 = ((dense[:, None, :] - dense[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    sample = np.random.default_rng(5).choice(len(synthetic), size=1000, replace=False)
    violations = 0
    for idx in sample:
        i = int(idx) % n
        y = np.zeros(dim)
        for t, c in zip(*synthetic.row(int(idx))):
            y[t] = c
        kth = np.sort(d2[i])[k - 1]
        admissible = np.nonzero(d2[i] <= kth + 1e-9)[0]
        ok = False
        for j in admissible:
            lo = np.minimum(dense[i], dense[j]) - 1e-9
            hi = np.maximum(dense[i], dense[j]) + 1e-9
            if not ((y >= lo) & (y <= hi)).all():
                continue
            diff = dense[j] - dense[i]
            moving = np.abs(diff) > 0
            if not moving.any():
                ok = np.allclose(y, dense[i])
                if ok:
                    break
                continue
            lam = (y[moving] - dense[i][moving]) / diff[moving]
            if np.allclose(lam, lam[0], atol=1e-9) and -1e-12 <= lam[0] < 1.0:
                ok = True
                break
        if not ok:
            violations += 1
    ok = total == 2428 and violations == 0
    report_line(5, "minority over-sampling doubles 1214 vectors and stays on segments",
                ok, f"total {total}, {violations} violations in 1000 samples")


def test_06_nb_posteriors_match_rational_arithmetic():
    vectors = [{0: 2, 1: 1}, {0: 1, 2: 1}, {1: 2, 3: 1}, {2: 1, 3: 2}]
    labels = [R, R, N, Z]
    vocab = Vocabulary({f"w{i}": i for i in range(4)}, 1)
    data = LabeledDataset(count_matrix(vectors, 4), class_ids(labels), vocab)
    model = train_mnnb(data, alpha=1.0)
    worst = 0.0
    queries = ({0: 1}, {1: 1, 2: 1}, {0: 2, 3: 1}, {}, {0: 1, 1: 1, 2: 1, 3: 1})
    for query, probs in zip(queries, predict_many(model, count_matrix(queries, 4))):
        exact = oracle_nb_posterior(vectors, labels, 4, 1.0, query)
        for j, label in enumerate((R, N, Z)):
            worst = max(worst, abs(probs[j] - exact[label]))
    ok = worst <= 1e-12
    report_line(6, "classifier posteriors match exact rational arithmetic",
                ok, f"max err {worst:.2e}")


def test_07_candidate_population_and_exclusions():
    config = SynthConfig(seed=20160901)
    corpus, _, gold = generate(config)
    stats = compute_user_stats(replace(corpus, y=class_ids(gold[i] for i in corpus.ids)))
    rcfg = RankConfig(min_relevant=3)
    candidates = candidate_filter(stats, rcfg, ())
    n_before = len(candidates)
    pool = sorted(u for u in candidates.users if u != "sentinela001")
    rng = np.random.default_rng(139)
    excluded = set(rng.choice(pool, size=139, replace=False).tolist())
    n_after = len(candidate_filter(stats, rcfg, excluded))
    ok = n_before == 310 and n_after == 171
    report_line(7, "default population yields 310 candidates, 171 after 139 exclusions",
                ok, f"{n_before} -> {n_after}")


def test_08_planted_influencer_recovered_across_seeds():
    table = ReplacementTable.default()
    rcfg = RankConfig()
    failures = []
    slowest = 0.0
    for seed in range(1, 11):
        t0 = time.perf_counter()
        corpus, graph, _ = generate(SynthConfig(seed=seed))
        data = dataset_from_corpus(corpus, table, n_max=1)
        model = train_mnnb(data)
        _, counts = count_ngrams(corpus.texts, table, vocab=data.vocab)
        predicted = predict_many(model, counts).argmax(axis=1)
        stats = compute_user_stats(replace(corpus, y=predicted))
        candidates = candidate_filter(stats, rcfg, ())
        P = build_transition(candidates, graph)
        rv = twitterrank(P, candidates, rcfg)
        rows = {
            row.user_id: row
            for row in ranking_report(candidates, rv, rcfg, "tr").rows
        }
        elapsed = time.perf_counter() - t0
        slowest = max(slowest, elapsed)
        boss = rows.get("sentinela001")
        if boss is None or boss.tr_rank != 1 or boss.tf_rank > 3 or boss.of_rank > 3:
            failures.append(seed)
        if elapsed >= 120.0:
            failures.append(f"seed {seed} took {elapsed:.0f}s")
    ok = not failures
    report_line(8, "planted influencer ranks first across 10 seeded pipelines",
                ok, f"slowest {slowest:.1f}s" + (f", failures {failures}" if failures else ""))


def test_09_cross_validation_floors_on_separable_corpus():
    config = SynthConfig(
        seed=99,
        n_users=60,
        tail_histogram={"1": 20, "2": 6, "3": 4, "4": 2, "5-9": 2, "10-19": 1, "20+": 0},
        planted_influencers=(),
        class_mix=(0.3, 0.4, 0.3),
        noise_rate=0.15,
    )
    corpus, _, _ = generate(config)
    table = ReplacementTable.default()

    mnnb = cross_validate(
        dataset_from_corpus(corpus, table, n_max=1),
        TrainingConfig(classifier="mnnb", smote_percent=0, folds=10),
        seed=7,
    )
    rf = cross_validate(
        dataset_from_corpus(corpus, table, n_max=3),
        TrainingConfig(classifier="rf", n_trees=100, smote_percent=100, smote_k=5, folds=10),
        seed=7,
    )
    ok = mnnb.accuracy >= 0.90 and rf.accuracy >= 0.85
    report_line(9, "ten-fold accuracy clears 0.90 (word counts) and 0.85 (forest)",
                ok, f"mnnb {mnnb.accuracy:.4f}, rf {rf.accuracy:.4f}")


def test_10_cli_pipeline_is_byte_deterministic(tmp_path):
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(json.dumps({
        "seed": 11,
        "n_users": 150,
        "tail_histogram": {"1": 40, "2": 12, "3": 10, "4": 6, "5-9": 6,
                           "10-19": 2, "20+": 1},
        "planted_influencers": [["sentinela001", 40, 20]],
    }), encoding="utf-8")

    def run_chain(root):
        data = root / "data"
        assert main(["synth", "--config", str(synth_cfg), "--out", str(data)]) == 0
        model = root / "model.json"
        assert main(["train", "--corpus", str(data / "corpus.jsonl"),
                     "--model", str(model), "--classifier", "mnnb",
                     "--ngrams", "1", "--smote-percent", "0", "--seed", "3"]) == 0
        cls = root / "cls"
        assert main(["classify", "--corpus", str(data / "corpus.jsonl"),
                     "--model", str(model), "--out", str(cls)]) == 0
        rank = root / "rank"
        assert main(["rank", "--corpus", str(cls / "classified.jsonl"),
                     "--graph", str(data / "graph.csv"), "--out", str(rank)]) == 0
        ev = root / "eval"
        assert main(["eval", "--corpus", str(data / "corpus.jsonl"),
                     "--out", str(ev), "--folds", "2", "--classifier", "mnnb",
                     "--ngrams", "1", "--smote-percent", "0", "--seed", "3"]) == 0

    run1, run2 = tmp_path / "run1", tmp_path / "run2"
    run1.mkdir()
    run2.mkdir()
    run_chain(run1)
    run_chain(run2)

    files1 = sorted(p.relative_to(run1) for p in run1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(run2) for p in run2.rglob("*") if p.is_file())
    mismatches = [
        str(rel) for rel in files1
        if (run1 / rel).read_bytes() != (run2 / rel).read_bytes()
    ]
    ok = files1 == files2 and len(files1) >= 12 and not mismatches
    report_line(10, "two identical CLI runs produce byte-identical files",
                ok, f"{len(files1)} files" + (f", diffs {mismatches}" if mismatches else ""))


def test_11_rankings_invariant_under_count_scaling():
    rng = np.random.default_rng(7777)
    mismatched = 0
    for _ in range(20):
        stats, graph = random_rank_instance(rng)
        scaled = UserStats(stats.users, 7 * stats.relevant, 7 * stats.harvest,
                           7 * stats.total)
        config = RankConfig(k=len(stats))
        base = candidate_filter(stats, config, ())
        big = candidate_filter(scaled, config, ())
        rv_base = twitterrank(build_transition(base, graph), base, config)
        rv_big = twitterrank(build_transition(big, graph), big, config)
        for metric in ("tr", "tf", "of"):
            order_base = [
                row.user_id
                for row in ranking_report(base, rv_base, config, metric).rows
            ]
            order_big = [
                row.user_id
                for row in ranking_report(big, rv_big, config, metric).rows
            ]
            if order_base != order_big:
                mismatched += 1
    ok = mismatched == 0
    report_line(11, "scaling all counts sevenfold never reorders a ranking",
                ok, f"{mismatched} mismatches over 60 orderings")
