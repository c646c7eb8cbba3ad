"""Text normalization, n-gram vocabularies, sparse count matrices, and TF-IDF ranking."""

from __future__ import annotations

import array
import csv
import hashlib
import itertools
import math
import re
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "DROP",
    "ReplacementTable",
    "Vocabulary",
    "CountMatrix",
    "normalize",
    "ngrams",
    "count_ngrams",
    "tfidf_rank",
    "load_stopwords",
    "fold_accents",
]

#: Literal replacement value that deletes a token.
DROP = "<DROP>"

# Tokens are maximal ASCII alphanumeric runs of the lowercased, accent-folded text.
_TOKEN_RE = re.compile(r"[a-z0-9]+")
_VALID_TOKEN_RE = re.compile(r"^[a-z0-9]+$")

# Image links are recognized before generic URLs so they map to their own class.
_IMAGE_RE = re.compile(
    r"(?:https?://)?pic\.twitter\.com/\S+"
    r"|https?://\S+?\.(?:jpg|jpeg|png|gif)(?:\?\S*)?(?=\s|$)"
)
_URL_RE = re.compile(r"(?:https?://|www\.)\S+")

# ASCII emoticons: eyes, optional nose, one or more mouth characters. Unicode
# emoji need no rule of their own; they fall at token boundaries and vanish.
_EMOTICON_RE = re.compile(r"(?<![a-z0-9])(?:[:;=8][-'^o]?[()\[\]dpo3*\\/]+|<3+)(?![a-z0-9])")

# Laughter onomatopoeia mapped to the conventional token "funny".
_LAUGHTER_RE = re.compile(r"^(?:k{3,}|(?:ha){2,}|(?:rs){2,})$")

# Regional chat abbreviations removed outright by the default table.
_DEFAULT_LINGO = {
    "vc": DROP, "vcs": DROP, "q": DROP, "pq": DROP, "tb": DROP, "tbm": DROP,
    "td": DROP, "hj": DROP, "mt": DROP, "mto": DROP, "blz": DROP, "kd": DROP,
    "obg": DROP, "vlw": DROP, "flw": DROP, "rt": DROP, "mds": DROP, "sdds": DROP,
    "pfv": DROP, "pls": DROP,
}


# Rows counted per numpy pass in count_ngrams. Its temporary arrays and
# strings follow this, not the corpus; 1,024 counts as fast as 4,096 and
# leaves a smaller heap behind for the training that follows.
_NGRAM_BLOCK = 1024


class _CombiningMarks(dict):
    """`str.translate` table that deletes combining marks.

    Filled one code point at a time as text meets it: a full table would ask
    unicodedata about every code point at import.
    """

    def __missing__(self, cp: int) -> int | None:
        kept = None if unicodedata.combining(chr(cp)) else cp
        self[cp] = kept
        return kept


_COMBINING_MARKS = _CombiningMarks()


def fold_accents(s: str) -> str:
    """Strip combining marks after NFD decomposition ("doença" -> "doenca")."""
    s = unicodedata.normalize("NFD", s)
    return s if s.isascii() else s.translate(_COMBINING_MARKS)


def _canonical_token(tok: str) -> str:
    return fold_accents(tok.strip().lower())


@dataclass(frozen=True)
class ReplacementTable:
    """Exact token-to-token replacements applied after the built-in pattern classes.

    Keys and values are canonicalized (lowercase, accent-folded) and chains
    (a->b, b->c) are resolved at construction so that applying the table is
    idempotent. The value ``<DROP>`` deletes a token.
    """

    exact_map: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        canon: dict[str, str] = {}
        for key, value in self.exact_map.items():
            k = _canonical_token(key)
            v = value.strip() if value.strip() == DROP else _canonical_token(value)
            if not _VALID_TOKEN_RE.match(k):
                raise ValueError(f"replacement key is not a valid token: {key!r}")
            if v != DROP and not _VALID_TOKEN_RE.match(v):
                raise ValueError(f"replacement value is not a valid token: {value!r}")
            canon[k] = v
        object.__setattr__(self, "exact_map", _resolve_chains(canon))

    @classmethod
    def default(cls) -> "ReplacementTable":
        return cls(dict(_DEFAULT_LINGO))

    @classmethod
    def from_csv(cls, path: str | Path) -> "ReplacementTable":
        """Load a `from,to` CSV; the literal value <DROP> deletes the token."""
        entries: dict[str, str] = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                row = next(csv.reader([line]))
                if len(row) != 2:
                    raise ValueError(f"{path}: line {lineno}: expected 'from,to', got {line!r}")
                entries[row[0]] = row[1]
        return cls(entries)

    def table_hash(self) -> str:
        """Stable content hash used to pin preprocessing to a trained model."""
        payload = "\n".join(f"{k},{v}" for k, v in sorted(self.exact_map.items()))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _resolve_chains(mapping: dict[str, str]) -> dict[str, str]:
    resolved: dict[str, str] = {}
    for key in mapping:
        seen = {key}
        value = mapping[key]
        while value != DROP and value in mapping and mapping[value] != value:
            if value in seen:
                raise ValueError(f"replacement cycle involving {key!r}")
            seen.add(value)
            value = mapping[value]
        resolved[key] = value
    return resolved


class _Tokenizer(dict):
    """`normalize` for one replacement table, with per-call token ids.

    Maps each raw token (an alphanumeric run of the cleaned text) to the id
    of the token it becomes, or -1 when the table drops it, so the digit,
    laughter and table rules run once per distinct raw token. `tokens`
    spells the ids, in first-appearance order.
    """

    def __init__(self, table: ReplacementTable):
        super().__init__()
        self.exact_map = table.exact_map
        self.tokens: list[str] = []
        self._token_ids: dict[str, int] = {}

    def __missing__(self, raw: str) -> int:
        tok = "number" if raw.isdigit() else "funny" if _LAUGHTER_RE.match(raw) else raw
        tok = self.exact_map.get(tok, tok)
        tid = -1 if tok == DROP else self._token_ids.setdefault(tok, len(self.tokens))
        if tid == len(self.tokens):
            self.tokens.append(tok)
        self[raw] = tid
        return tid

    def raw_tokens(self, text: str) -> list[str]:
        """Alphanumeric runs of the case- and accent-folded text, links and emoticons replaced."""
        s = fold_accents(text.lower())
        # each pass runs only on text holding a substring every match contains
        if "http" in s or "pic.twitter.com/" in s:
            s = _IMAGE_RE.sub(" image ", s)
        if "http" in s or "www." in s:
            s = _URL_RE.sub(" url ", s)
        return _TOKEN_RE.findall(_EMOTICON_RE.sub(" ", s))

    def __call__(self, text: str) -> list[str]:
        tokens = self.tokens
        return [tokens[t] for t in map(self.__getitem__, self.raw_tokens(text)) if t >= 0]


def normalize(text: str, table: ReplacementTable | None = None) -> list[str]:
    """Turn raw post text into an ordered list of lowercase tokens.

    Lowercases, folds accents, maps URLs/image links to the tokens "url" and
    "image", drops emoticons, splits on non-alphanumeric boundaries, then maps
    pure digit runs to "number", laughter patterns to "funny", and applies the
    table's exact replacements. Any input yields a (possibly empty) sequence.
    """
    if table is None:
        table = ReplacementTable.default()
    return _Tokenizer(table)(text)


def ngrams(tokens: list[str], n_max: int) -> list[str]:
    """All contiguous k-grams for k=1..n_max, underscore-joined, ordered by (position, k)."""
    if not 1 <= n_max <= 3:
        raise ValueError(f"n_max must be in 1..3, got {n_max}")
    out: list[str] = []
    n = len(tokens)
    for i in range(n):
        for k in range(1, n_max + 1):
            if i + k <= n:
                out.append("_".join(tokens[i : i + k]))
    return out


@dataclass
class Vocabulary:
    """N-gram vocabulary with dense ids in first-appearance order.

    Immutable by convention once built; safe to share across workers.
    """

    term_to_id: dict[str, int]
    n_max: int

    def __len__(self) -> int:
        return len(self.term_to_id)

    def terms_in_id_order(self) -> list[str]:
        return sorted(self.term_to_id, key=self.term_to_id.__getitem__)


@dataclass(frozen=True, eq=False)
class CountMatrix:
    """Sparse rows of term counts in CSR form.

    Row i holds `indices[indptr[i]:indptr[i+1]]` with values at the same
    positions of `data`. Entries keep the order they were given in, which for
    tokenized text is first appearance within the post; arithmetic that sums
    along a row relies on that order for bit-stable results.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    n_cols: int

    @classmethod
    def from_rows(cls, rows: Iterable[Mapping[int, float]], n_cols: int) -> "CountMatrix":
        """Build from per-row {column: value} mappings, keeping their item order."""
        rows = list(rows)
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(row) for row in rows], out=indptr[1:])
        nnz = int(indptr[-1])
        indices = np.fromiter((c for row in rows for c in row), dtype=np.int64, count=nnz)
        data = np.fromiter((v for row in rows for v in row.values()), dtype=float, count=nnz)
        if nnz and not (0 <= indices.min() and indices.max() < n_cols):
            raise ValueError(f"column index out of range for {n_cols} columns")
        return cls(indptr, indices, data, n_cols)

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(column ids, values) of row i."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def rows(self, idx: Sequence[int]) -> "CountMatrix":
        """The given rows, in the given order."""
        idx = np.asarray(idx, dtype=np.int64)
        lengths = self.indptr[idx + 1] - self.indptr[idx]
        indptr = np.zeros(len(idx) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        # position of every kept entry in the source arrays
        take = np.repeat(self.indptr[idx] - indptr[:-1], lengths) + np.arange(indptr[-1])
        return CountMatrix(indptr, self.indices[take], self.data[take], self.n_cols)

    def concat(self, other: "CountMatrix") -> "CountMatrix":
        """This matrix's rows followed by other's."""
        if other.n_cols != self.n_cols:
            raise ValueError(f"cannot stack {other.n_cols} columns under {self.n_cols}")
        return CountMatrix(
            np.concatenate([self.indptr, other.indptr[1:] + self.indptr[-1]]),
            np.concatenate([self.indices, other.indices]),
            np.concatenate([self.data, other.data]),
            self.n_cols,
        )

    def toarray(self) -> np.ndarray:
        """Dense float64 copy, shape (rows, n_cols)."""
        dense = np.zeros((len(self), self.n_cols))
        dense[np.repeat(np.arange(len(self)), np.diff(self.indptr)), self.indices] = self.data
        return dense


def count_ngrams(
    texts: Iterable[str],
    table: ReplacementTable | None = None,
    n_max: int = 1,
    vocab: Vocabulary | None = None,
) -> tuple[Vocabulary, CountMatrix]:
    """Normalize each text once and count its 1..n_max-grams into one row.

    Without a vocabulary, terms get ids in first-appearance order and the new
    vocabulary is returned. With one, its n_max applies, unknown terms are
    ignored, and it is returned unchanged. Each row lists its terms in order
    of first appearance within the text.
    """
    if table is None:
        table = ReplacementTable.default()
    grow = vocab is None
    if grow:
        vocab = Vocabulary({}, n_max)
    if not 1 <= vocab.n_max <= 3:
        raise ValueError(f"n_max must be in 1..3, got {vocab.n_max}")
    tokenizer = _Tokenizer(table)
    # Row lengths, term ids and counts each grow in one buffer that the
    # result then shares. Per-block arrays concatenated at the end would leave
    # their freed memory resident in the process heap (about 25 MB at the
    # default scale with 3-grams) through the training that follows.
    buffers = (array.array("q"), array.array("q"), array.array("d"))
    texts = iter(texts)
    while block := list(itertools.islice(texts, _NGRAM_BLOCK)):
        for buffer, part in zip(buffers, _count_block(block, tokenizer, vocab, grow)):
            buffer.frombytes(part.tobytes())
    lengths, indices, data = (
        np.frombuffer(buffer, dtype=dtype)
        for buffer, dtype in zip(buffers, (np.int64, np.int64, np.float64))
    )
    if grow and not len(lengths):
        raise ValueError("cannot build a vocabulary from an empty corpus")
    indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return vocab, CountMatrix(indptr, indices, data, len(vocab))


def _count_block(
    texts: list[str], tokenizer: _Tokenizer, vocab: Vocabulary, grow: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """count_ngrams over one block of rows: (row lengths, term ids, counts)."""
    n_max, term_to_id = vocab.n_max, vocab.term_to_id
    # token ids go straight into a flat buffer, so each text's raw token
    # strings are freed before the next text is read
    ids = array.array("q")
    raw_lengths = []
    for text in texts:
        raw = tokenizer.raw_tokens(text)
        ids.extend(map(tokenizer.__getitem__, raw))
        raw_lengths.append(len(raw))
    ids = np.frombuffer(ids, dtype=np.int64)
    kept = ids >= 0
    tok = ids[kept]
    row = np.repeat(np.arange(len(texts)), raw_lengths)[kept]
    # tokens from each position to the end of its row, itself included
    left = np.cumsum(np.bincount(row, minlength=len(texts)))[row] - np.arange(len(tok))

    # grams[p, k-1]: block-wide id of the k-gram starting at position p, or -1;
    # raveled, the grams come in (position, k) order
    n_tokens = len(tokenizer.tokens)
    grams = np.full((len(tok), n_max), -1, dtype=np.int64)
    grams[:, 0] = gram = tok
    offset = n_tokens
    for k in range(2, n_max + 1):
        at = np.flatnonzero(left >= k)
        # a k-gram is its (k-1)-gram followed by one token; both ids are
        # below max(len(tok), n_tokens), so the key cannot overflow
        uniq, compact = np.unique(gram[at] * n_tokens + tok[at + k - 1], return_inverse=True)
        grams[at, k - 1] = compact + offset
        offset += len(uniq)
        gram = np.zeros(len(tok), dtype=np.int64)
        gram[at] = compact
    grams = grams.ravel()
    slot = np.flatnonzero(grams >= 0)

    # spell each distinct gram once, in first-appearance order
    _, first, inverse = np.unique(grams[slot], return_index=True, return_inverse=True)
    order = np.argsort(first)
    start, k_minus_1 = np.divmod(slot[first[order]], n_max)
    words = list(map(tokenizer.tokens.__getitem__, tok.tolist()))
    spelled = [
        "_".join(words[p:q]) for p, q in zip(start.tolist(), (start + k_minus_1 + 1).tolist())
    ]
    term_of = np.empty(len(order), dtype=np.int64)
    if grow:
        term_of[order] = [term_to_id.setdefault(g, len(term_to_id)) for g in spelled]
    else:
        term_of[order] = [term_to_id.get(g, -1) for g in spelled]

    # count each row's terms, listed by first appearance
    term = term_of[inverse]
    hit = np.flatnonzero(term >= 0)
    n_terms = max(len(term_to_id), 1)
    cell, first, counts = np.unique(
        row[slot[hit] // n_max] * n_terms + term[hit], return_index=True, return_counts=True
    )
    order = np.argsort(first)
    cell = cell[order]
    lengths = np.bincount(cell // n_terms, minlength=len(texts))
    return lengths, cell % n_terms, counts[order].astype(float)


def tfidf_rank(
    counts: CountMatrix, vocab: Vocabulary, stopwords: Iterable[str] = ()
) -> list[tuple[str, float]]:
    """Rank vocabulary terms by corpus-level TF-IDF, descending.

    score(t) = tf_corpus(t) * ln(doc_count / doc_freq(t)), with one document
    per row of counts. Stopword terms and terms absent from every row are
    excluded. Ties break lexicographically so the ordering is total.
    """
    if counts.n_cols != len(vocab):
        raise ValueError(
            f"count matrix has {counts.n_cols} columns, vocabulary has {len(vocab)} terms"
        )
    doc_count = len(counts)
    doc_freq = np.bincount(counts.indices, minlength=counts.n_cols).tolist()
    term_freq = np.bincount(counts.indices, counts.data, minlength=counts.n_cols).tolist()
    stop = {_canonical_token(s) for s in stopwords}
    scored = []
    for term, tid in vocab.term_to_id.items():
        if term in stop or not doc_freq[tid]:
            continue
        # Python ints keep the scores bit-identical to integer tallies
        score = int(term_freq[tid]) * math.log(doc_count / doc_freq[tid])
        scored.append((term, score))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored


def load_stopwords(path: str | Path) -> frozenset[str]:
    """One term per line, UTF-8; terms are canonicalized like tokens."""
    with open(path, encoding="utf-8") as fh:
        return frozenset(_canonical_token(line) for line in fh if line.strip())
