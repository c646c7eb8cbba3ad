"""Tweet corpus and follower-graph data model with line-oriented file I/O."""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import Iterable

import numpy as np

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
    """An ordered collection of records."""

    records: tuple[TweetRecord, ...]

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
        return Corpus(tuple(r for r in self.records if r.label is not None))


@dataclass(frozen=True, eq=False)
class FollowerGraph:
    """Directed follow edges; an edge (follower, friend) means follower follows friend.

    names holds the distinct user ids in sorted order. edges is a unique
    (m, 2) int64 array of (follower, friend) positions in names, sorted by
    follower then friend, so its rows come in the order of the sorted string
    pairs. Build it with from_pairs.
    """

    names: tuple[str, ...]
    edges: np.ndarray

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, str]]) -> "FollowerGraph":
        """Intern (follower, friend) pairs; duplicate pairs collapse.

        Rejects a self-follow and any id the graph CSV cannot hold: empty,
        with leading or trailing whitespace, or containing a comma, a line
        break or U+FEFF (the byte-order mark).
        """
        flat = list(chain.from_iterable(pairs))
        names = sorted(set(flat))
        for name in names:
            if not name or name != name.strip() or any(c in name for c in ",\r\n\ufeff"):
                raise ValueError(f"graph user id cannot be written as CSV: {name!r}")
        index = dict(zip(names, range(len(names))))
        ids = np.array([index[name] for name in flat], dtype=np.int64).reshape(-1, 2)
        loops = ids[:, 0] == ids[:, 1]
        if loops.any():
            raise ValueError(f"self-follow edge not allowed: {names[ids[loops.argmax(), 0]]!r}")
        codes = np.sort(ids[:, 0] * len(names) + ids[:, 1])
        codes = codes[np.diff(codes, prepend=-1) != 0]
        edges = np.stack(np.divmod(codes, len(names)), axis=1)
        edges.flags.writeable = False
        return cls(tuple(names), edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FollowerGraph):
            return NotImplemented
        return self.names == other.names and np.array_equal(self.edges, other.edges)

    def pairs(self) -> list[tuple[str, str]]:
        """The edges as sorted (follower, friend) string pairs."""
        return list(map(tuple, np.array(self.names, dtype=object)[self.edges].tolist()))


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

    Optional fields are omitted when absent so files stay minimal.
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


def load_follower_graph(path: str | Path) -> FollowerGraph:
    """Read `follower_id,friend_id` CSV; duplicate edges collapse silently.

    A leading byte-order mark is skipped. A line that is not two ids, repeats
    one id, or holds U+FEFF fails with its line number.
    """
    pairs: list[tuple[str, str]] = []
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            follower, friend = parts[0].strip(), parts[-1].strip()
            if len(parts) != 2 or not follower or not friend:
                raise ValueError(
                    f"{path}: line {lineno}: expected 'follower_id,friend_id', got {line!r}"
                )
            if follower == friend:
                raise ValueError(f"{path}: line {lineno}: self-follow edge {follower!r}")
            if "\ufeff" in line:
                raise ValueError(f"{path}: line {lineno}: user id contains U+FEFF: {line!r}")
            pairs.append((follower, friend))
    return FollowerGraph.from_pairs(pairs)


def write_follower_graph(graph: FollowerGraph, path: str | Path) -> None:
    """Write edges as `follower_id,friend_id`, sorted, one per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for follower, friend in graph.pairs():
            fh.write(f"{follower},{friend}\n")


def load_exclusions(path: str | Path) -> frozenset[str]:
    """One user name per line; blank lines and a leading byte-order mark ignored."""
    with open(path, encoding="utf-8-sig") as fh:
        return frozenset(line.strip() for line in fh if line.strip())
