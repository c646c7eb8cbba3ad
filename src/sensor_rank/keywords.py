"""Harvest keyword bootstrap: expert seed terms plus TF-IDF expansion."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .corpus import Corpus
from .text import ReplacementTable, _canonical_token, count_ngrams, tfidf_rank

__all__ = [
    "SEED_KEYWORDS",
    "EXPANSION_KEYWORDS",
    "DEFAULT_KEYWORDS",
    "KeywordsConfig",
    "expansion_candidates",
]

#: Hand-picked high-recall seed terms for the mosquito-borne disease topic.
SEED_KEYWORDS: tuple[str, ...] = (
    "dengue",
    "combateadengue",
    "focodengue",
    "todoscontradengue",
    "aedeseagypti",
    "zika",
    "chikungunya",
    "virus",
)

#: Terms promoted from a TF-IDF ranking of an initial seed-keyword harvest.
EXPANSION_KEYWORDS: tuple[str, ...] = (
    "microcefalia",
    "transmitido",
    "epidemia",
    "transmissao",
    "doenca",
    "eagypti",
    "doencas",
    "gestantes",
    "infeccao",
    "mosquitos",
)

#: The operational harvesting set: seeds plus their expansion, in that order.
DEFAULT_KEYWORDS: tuple[str, ...] = SEED_KEYWORDS + EXPANSION_KEYWORDS


@dataclass(frozen=True)
class KeywordsConfig:
    """Settings of the keyword expansion: k is how many terms join the seeds."""

    k: int = 10

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")


def expansion_candidates(
    seed: Iterable[str],
    corpus: Corpus,
    stopwords: Iterable[str] = (),
    table: ReplacementTable | None = None,
    config: KeywordsConfig = KeywordsConfig(),
) -> list[tuple[str, float]]:
    """The corpus's top config.k unigrams by TF-IDF, with their scores, seeds excluded.

    The corpus is expected to be a harvest made with the seed terms. Seeds and
    stopwords, canonicalized like tokens, never enter; terms come in
    descending score order.
    """
    blocked = {_canonical_token(str(s)) for s in seed}
    vocab, counts = count_ngrams(corpus.texts, table, n_max=1)
    ranked = tfidf_rank(counts, vocab, stopwords)
    return [pair for pair in ranked if pair[0] not in blocked][:config.k]
