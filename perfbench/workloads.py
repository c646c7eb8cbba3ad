"""The benchmark's workloads: generator configs, learner flags and why each exists.

Every workload runs the same command chain a CLI user runs,
`train` -> `classify` -> `rank`, on its own synthetic input, so every
end-to-end metric exists on every workload. The inputs differ in the
property that decides which layer dominates. `keywords` and `eval` get no
workload: `eval` is repeated `train`, and `keywords` is `build_vocabulary`
plus `tfidf_rank`, both covered by layer metrics.

Two workloads, not more: on a shared 2-vCPU machine a run needs about 40 s
of chains to give a steady median, and comparing two commits takes ten runs
per workload on each side. So each workload carries two loads. readme_mnnb
runs the README chain on a corpus whose candidates form a dense follower
graph, so text dominates train and classify while graph handling dominates
rank. rf_trigram runs the README-default learner, where the forest
dominates train and SMOTE is a smaller share. Sizes are chosen so one chain
takes 6-9 s there.
"""

from __future__ import annotations

from dataclasses import dataclass

# The planted influencer every ranking workload must put at tr_rank 1.
SENTINEL = "sentinela001"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: dict  # SynthConfig fields without the seed
    train_flags: tuple[str, ...]
    noise: bool = False  # apply the surface-noise pass to the generated texts


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="readme_mnnb",
            why=(
                "README chain (mnnb, unigrams, no SMOTE) on a noisy 31k-tweet corpus with "
                "1.5k candidates and ~160k follow edges: text I/O dominates train/classify, graphs rank"
            ),
            synth={
                "n_users": 4500,
                "noise_rate": 0.2,
                "class_mix": [0.25, 0.4, 0.35],
                "edge_density": 0.07,
                "tail_histogram": {"1": 2000, "2": 300, "3": 1200, "4": 200, "5-9": 100, "20+": 1},
                "planted_influencers": [[SENTINEL, 50, 400]],
            },
            train_flags=("--classifier", "mnnb", "--ngrams", "1", "--smote-percent", "0"),
            noise=True,
        ),
        Workload(
            name="rf_trigram",
            why=(
                "README-default learner (rf, 3-grams, SMOTE 100) with 4 trees on 2k tweets: tree "
                "growth over the dense design matrix dominates train and peak RSS"
            ),
            synth={
                "n_users": 500,
                "noise_rate": 0.2,
                "class_mix": [0.4, 0.35, 0.25],
                "tail_histogram": {
                    "1": 300, "2": 75, "3": 50, "4": 15, "5-9": 10, "10-19": 0, "20+": 1,
                },
                "planted_influencers": [[SENTINEL, 50, 30]],
            },
            train_flags=(
                "--classifier", "rf", "--ngrams", "3", "--smote-percent", "100", "--trees", "4",
            ),
        ),
    )
}
