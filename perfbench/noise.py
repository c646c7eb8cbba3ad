"""Seeded surface noise for synthetic tweets.

The generator writes pure-ASCII text over a few dozen class words, which
makes the tokenizer's work unrealistically easy. This pass rewrites each
tweet's text the way a real harvest looks to `normalize`: accented
spellings, links, emoticons, digit runs, laughter, chat slang, `RT`
prefixes, @mentions and #hashtags drawn from a Zipf-distributed pool of
about 30k names. Labels and every other field stay as generated.

All random draws are made in whole-corpus arrays; only the final string
assembly loops over tweets.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

POOL_SIZE = 30_000
ZIPF_EXPONENT = 1.1

ACCENTED = {
    "agua": "água", "saude": "saúde", "ministerio": "ministério",
    "municipio": "município", "balanco": "balanço", "musica": "música",
    "serio": "sério", "secretaria": "secretária",
}
EMOTICONS = (":)", ":(", ";)", ":D", ":-p", "<3", ":/", "=)")
LAUGHTER = ("kkkk", "kkkkkkk", "hahaha", "hahahaha", "rsrs", "rsrsrs")
# keys of the default replacement table, all of which normalize to nothing
SLANG = ("vc", "tb", "pq", "hj", "mt", "mto", "blz", "obg", "vlw", "td", "tbm", "mds")
# the generator's class words and the tokens normalize emits itself; no pool
# name may collide with them
RESERVED = frozenset(
    "febre sintomas mosquito foco quintal agua manchas coceira hospital posto "
    "vizinho larvas ministerio saude casos confirmados boletim secretaria governo "
    "municipio campanha imprensa alerta balanco mano festa musica jogo piada meme "
    "galera zoeira treta rolando serio demais url image number funny rt".split()
) | frozenset(SLANG)
_SYLLABLES = tuple(c + v for c in "bcdfgjlmnprstvz" for v in "aeiou")
_B62 = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

# Per-tweet probabilities of each insertion kind, and mean counts for tags.
P_RT, P_URL, P_PIC, P_EMOTICON, P_DIGITS, P_LAUGH, P_SLANG = (
    0.15, 0.25, 0.10, 0.20, 0.15, 0.15, 0.30,
)
MEAN_MENTIONS, MEAN_HASHTAGS = 0.6, 0.5
P_ACCENT = 0.5


def name_pool() -> list[str]:
    """POOL_SIZE distinct three-syllable names, none equal to a reserved token.

    The order is a fixed shuffle, so the most frequent Zipf ranks do not all
    share a suffix.
    """
    n = len(_SYLLABLES)
    pool: list[str] = []
    i = 0
    while len(pool) < POOL_SIZE:
        name = _SYLLABLES[i % n] + _SYLLABLES[(i // n) % n] + _SYLLABLES[(i // (n * n)) % n]
        if name not in RESERVED:
            pool.append(name)
        i += 1
    return [pool[i] for i in np.random.default_rng(0).permutation(POOL_SIZE)]


def _b62(values: np.ndarray, width: int = 10) -> list[str]:
    out = []
    for v in values.tolist():
        chars = []
        for _ in range(width):
            v, r = divmod(v, 62)
            chars.append(_B62[r])
        out.append("".join(chars))
    return out


def rewrite_texts(texts: list[str], seed: int) -> list[str]:
    """Return the noisy version of each text; the same seed gives the same output."""
    rng = np.random.default_rng([seed, 0x6E6F697365])
    n = len(texts)
    words = [t.split() for t in texts]
    n_words = np.array([len(w) for w in words])

    pool = np.array(name_pool(), dtype=object)
    weights = 1.0 / np.arange(1, POOL_SIZE + 1) ** ZIPF_EXPONENT
    cdf = np.cumsum(weights / weights.sum())

    def tags(mean: float, prefix: str) -> tuple[np.ndarray, np.ndarray]:
        counts = rng.poisson(mean, size=n)
        picks = np.searchsorted(cdf, rng.random(int(counts.sum())), side="right")
        return counts, np.char.add(prefix, pool[np.minimum(picks, POOL_SIZE - 1)].astype(str))

    def singles(p: float, choices: list[str] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        hit = (rng.random(n) < p).astype(int)
        return hit, np.asarray(choices, dtype=object)[rng.integers(0, len(choices), size=int(hit.sum()))]

    kinds = [
        tags(MEAN_MENTIONS, "@"),
        tags(MEAN_HASHTAGS, "#"),
        singles(P_EMOTICON, EMOTICONS),
        singles(P_LAUGH, LAUGHTER),
        singles(P_SLANG, SLANG),
    ]
    url_hit = (rng.random(n) < P_URL).astype(int)
    kinds.append((url_hit, np.char.add("https://t.co/", _b62(rng.integers(0, 62**10, size=int(url_hit.sum()))))))
    pic_hit = (rng.random(n) < P_PIC).astype(int)
    kinds.append((pic_hit, np.char.add("pic.twitter.com/", _b62(rng.integers(0, 62**10, size=int(pic_hit.sum()))))))
    digit_hit = (rng.random(n) < P_DIGITS).astype(int)
    kinds.append((digit_hit, rng.integers(1, 10_000, size=int(digit_hit.sum())).astype(str)))

    # flatten every insertion into (tweet, position, token), sorted by tweet then position
    owners = np.concatenate([np.repeat(np.arange(n), counts) for counts, _ in kinds])
    tokens = np.concatenate([np.asarray(toks, dtype=object) for _, toks in kinds])
    positions = np.floor(rng.random(len(owners)) * (n_words[owners] + 1)).astype(int)
    order = np.lexsort((positions, owners))
    owners, tokens, positions = owners[order], tokens[order], positions[order]
    bounds = np.searchsorted(owners, np.arange(n + 1))

    rt = rng.random(n) < P_RT
    rt_names = pool[np.minimum(np.searchsorted(cdf, rng.random(n), side="right"), POOL_SIZE - 1)]
    accent_draw = rng.random(int(n_words.sum())) < P_ACCENT

    out: list[str] = []
    cursor = 0
    for i in range(n):
        ws = words[i]
        for j, w in enumerate(ws):
            if accent_draw[cursor + j] and w in ACCENTED:
                ws[j] = ACCENTED[w]
        cursor += len(ws)
        lo, hi = bounds[i], bounds[i + 1]
        # insert from the back so earlier positions stay valid
        for k in range(hi - 1, lo - 1, -1):
            ws.insert(positions[k], tokens[k])
        if rt[i]:
            ws.insert(0, f"RT @{rt_names[i]}:")
        out.append(" ".join(ws))
    return out


def rewrite_corpus(path: Path, seed: int) -> None:
    """Rewrite the `text` field of every record of a JSONL corpus in place."""
    lines = path.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines if line.strip()]
    texts = rewrite_texts([r["text"] for r in records], seed)
    with open(path, "w", encoding="utf-8") as fh:
        for record, text in zip(records, texts):
            record["text"] = text
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
