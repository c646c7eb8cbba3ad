"""Tweet corpus and follower-graph data model with line-oriented file I/O."""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from pathlib import Path
from typing import Iterable

import numpy as np

from .text import ReplacementTable, _Tokenizer

__all__ = [
    "Label",
    "LABEL_ORDER",
    "class_ids",
    "require_all_classes",
    "TweetRecord",
    "Corpus",
    "FollowerGraph",
    "load_corpus",
    "write_corpus",
    "keyword_filter",
    "load_follower_graph",
    "write_follower_graph",
    "load_exclusions",
]


class Label(str, Enum):
    """Three-way tweet class: firsthand reports, press coverage, everything else."""

    RELEVANT = "Relevant"
    NEWS = "News"
    NOISE = "Noise"


#: Fixed label ordering used for class axes in vectors, matrices and reports.
LABEL_ORDER: tuple[Label, Label, Label] = (Label.RELEVANT, Label.NEWS, Label.NOISE)

_LABEL_BY_VALUE = {label.value: label for label in Label}
_CLASS_ID = {label: i for i, label in enumerate(LABEL_ORDER)}


def class_ids(labels: Iterable[Label]) -> np.ndarray:
    """Each label's position in LABEL_ORDER, as an int64 array."""
    return np.fromiter((_CLASS_ID[label] for label in labels), dtype=np.int64)


def require_all_classes(y: np.ndarray) -> None:
    """Reject training class ids that leave out a class of LABEL_ORDER."""
    counts = np.bincount(y, minlength=len(LABEL_ORDER))
    missing = [label.value for label, n in zip(LABEL_ORDER, counts) if n == 0]
    if missing:
        raise ValueError(f"training data is missing class(es): {', '.join(missing)}")


@dataclass(frozen=True)
class TweetRecord:
    """One post: identity, author, text, timestamp, optional label, author volume."""

    id: str
    user: str
    text: str
    created_at: str
    label: Label | None = None
    user_total_tweets: int | None = None

    def __post_init__(self) -> None:
        if not self.id.strip():
            raise ValueError("record id must be non-empty")
        if not self.user.strip():
            raise ValueError(f"record {self.id}: user must be non-empty")
        _validate_timestamp(self.id, self.created_at)
        total = self.user_total_tweets
        if total is not None and (type(total) is not int or total < 0):
            raise ValueError(
                f"record {self.id}: user_total_tweets must be an integer >= 0, got {total!r}"
            )


def _validate_timestamp(record_id: str, value: str) -> None:
    try:
        datetime.fromisoformat(value.replace("Z", "+00:00"))
    except (ValueError, AttributeError):
        raise ValueError(f"record {record_id}: created_at is not ISO 8601: {value!r}") from None


@dataclass(frozen=True)
class Corpus:
    """An ordered collection of records, optionally tagged with its harvest keywords."""

    records: tuple[TweetRecord, ...]
    keyword_set: frozenset[str] | None = None

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for record in self.records:
            if record.id in seen:
                raise ValueError(f"duplicate record id: {record.id}")
            seen.add(record.id)

    def __len__(self) -> int:
        return len(self.records)

    def labeled(self) -> "Corpus":
        """Sub-corpus of records carrying a label, original order preserved."""
        return Corpus(tuple(r for r in self.records if r.label is not None), self.keyword_set)

    def users(self) -> list[str]:
        """Distinct authors in first-appearance order."""
        out: list[str] = []
        seen: set[str] = set()
        for record in self.records:
            if record.user not in seen:
                seen.add(record.user)
                out.append(record.user)
        return out


@dataclass(frozen=True)
class FollowerGraph:
    """Directed follow edges; an edge (follower, friend) means follower follows friend."""

    edges: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        for follower, friend in self.edges:
            if not follower or not friend:
                raise ValueError("graph edge endpoints must be non-empty")
            if follower == friend:
                raise ValueError(f"self-follow edge not allowed: {follower!r}")


# required field -> the JSON types it accepts; integer ids and users become strings
_REQUIRED_FIELDS = {"id": (str, int), "user": (str, int), "text": (str,), "created_at": (str,)}
_TYPE_NAMES = {str: "a string", int: "an integer"}
_OPTIONAL_FIELDS = ("label", "user_total_tweets")


def load_corpus(path: str | Path) -> Corpus:
    """Read a JSONL corpus; any malformed line fails with its line number."""
    records: list[TweetRecord] = []
    seen_ids: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise ValueError(f"{path}: line {lineno}: invalid JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise ValueError(f"{path}: line {lineno}: expected a JSON object")
            for key, types in _REQUIRED_FIELDS.items():
                if key not in obj:
                    raise ValueError(f"{path}: line {lineno}: missing field {key!r}")
                if type(obj[key]) not in types:
                    kind = " or ".join(_TYPE_NAMES[t] for t in types)
                    raise ValueError(
                        f"{path}: line {lineno}: field {key!r} must be {kind}, got {obj[key]!r}"
                    )
            unknown = set(obj) - set(_REQUIRED_FIELDS) - set(_OPTIONAL_FIELDS)
            if unknown:
                raise ValueError(
                    f"{path}: line {lineno}: unknown field(s) {sorted(unknown)}"
                )
            label = None
            if obj.get("label") is not None:
                if obj["label"] not in _LABEL_BY_VALUE:
                    raise ValueError(
                        f"{path}: line {lineno}: unknown label {obj['label']!r}"
                    )
                label = _LABEL_BY_VALUE[obj["label"]]
            try:
                record = TweetRecord(
                    id=str(obj["id"]),
                    user=str(obj["user"]),
                    text=obj["text"],
                    created_at=obj["created_at"],
                    label=label,
                    user_total_tweets=obj.get("user_total_tweets"),
                )
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            if record.id in seen_ids:
                raise ValueError(f"{path}: line {lineno}: duplicate record id {record.id!r}")
            seen_ids.add(record.id)
            records.append(record)
    return Corpus(tuple(records))


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write records as JSONL in corpus order.

    Only record fields are persisted; a keyword_set tag does not survive the
    round trip. Optional fields are omitted when absent so files stay minimal.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for record in corpus.records:
            obj: dict[str, object] = {
                "id": record.id,
                "user": record.user,
                "text": record.text,
                "created_at": record.created_at,
            }
            if record.label is not None:
                obj["label"] = record.label.value
            if record.user_total_tweets is not None:
                obj["user_total_tweets"] = record.user_total_tweets
            fh.write(json.dumps(obj, ensure_ascii=False, sort_keys=False) + "\n")


def keyword_filter(
    corpus: Corpus, keywords: Iterable[str], table: ReplacementTable | None = None
) -> Corpus:
    """Keep records whose normalized token set intersects the keyword set.

    Keywords are matched as whole normalized tokens; multi-word keywords match
    when their token sequence appears contiguously.
    """
    if table is None:
        table = ReplacementTable.default()
    keywords = [str(k) for k in keywords]
    if not keywords:
        raise ValueError("need at least one keyword")
    tokenize = _Tokenizer(table)
    single: set[str] = set()
    phrases: list[tuple[str, ...]] = []
    for kw in keywords:
        toks = tuple(tokenize(kw))
        if not toks:
            raise ValueError(f"keyword normalizes to nothing: {kw!r}")
        if len(toks) == 1:
            single.add(toks[0])
        else:
            phrases.append(toks)
    kept: list[TweetRecord] = []
    for record in corpus.records:
        toks = tokenize(record.text)
        tokset = set(toks)
        hit = bool(tokset & single)
        if not hit:
            for phrase in phrases:
                k = len(phrase)
                if any(tuple(toks[i : i + k]) == phrase for i in range(len(toks) - k + 1)):
                    hit = True
                    break
        if hit:
            kept.append(record)
    return Corpus(tuple(kept), frozenset(keywords))


def load_follower_graph(path: str | Path) -> FollowerGraph:
    """Read `follower_id,friend_id` CSV; duplicate edges collapse silently."""
    edges: set[tuple[str, str]] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
                raise ValueError(
                    f"{path}: line {lineno}: expected 'follower_id,friend_id', got {line!r}"
                )
            follower, friend = parts[0].strip(), parts[1].strip()
            if follower == friend:
                raise ValueError(f"{path}: line {lineno}: self-follow edge {follower!r}")
            edges.add((follower, friend))
    return FollowerGraph(frozenset(edges))


def write_follower_graph(graph: FollowerGraph, path: str | Path) -> None:
    """Write edges as `follower_id,friend_id`, sorted, one per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for follower, friend in sorted(graph.edges):
            fh.write(f"{follower},{friend}\n")


def load_exclusions(path: str | Path) -> frozenset[str]:
    """One user name per line; blank lines ignored."""
    with open(path, encoding="utf-8") as fh:
        return frozenset(line.strip() for line in fh if line.strip())
