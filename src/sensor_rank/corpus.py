"""Tweet corpus and follower-graph data model with line-oriented file I/O."""

from __future__ import annotations

import json
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from itertools import chain, compress, islice, repeat
from operator import itemgetter
from pathlib import Path
from types import NoneType
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

__all__ = [
    "Label",
    "LABEL_ORDER",
    "require_all_classes",
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

# A label's class id, its position in LABEL_ORDER, and -1 for no label. Label
# is a str enum, so the map answers a label's value too.
_CLASS_ID = {None: -1, **{label: i for i, label in enumerate(LABEL_ORDER)}}


def require_all_classes(y: np.ndarray) -> None:
    """Reject training class ids that leave out a class of LABEL_ORDER."""
    counts = np.bincount(y, minlength=len(LABEL_ORDER))
    missing = [label.value for label, n in zip(LABEL_ORDER, counts) if n == 0]
    if missing:
        raise ValueError(f"training data is missing class(es): {', '.join(missing)}")


@contextmanager
def open_utf8(path: str | Path, encoding: str = "utf-8") -> Iterator[TextIO]:
    """open(path) for reading text; bytes that are not UTF-8 fail with a ValueError
    naming path and the first bad line, its lines ended as text mode ends them."""
    try:
        with open(path, encoding=encoding) as fh:
            yield fh
    except UnicodeDecodeError:
        for lineno, line in enumerate(Path(path).read_bytes().splitlines(), 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: not valid UTF-8: {exc}") from None
        raise


def read_json(path: str | Path) -> object:
    """The one JSON document in a UTF-8 file; malformed or too deeply nested
    JSON is a ValueError naming the file."""
    with open_utf8(path) as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError:
            raise  # open_utf8 names the line
        except ValueError as exc:  # malformed, or an integer too long to convert
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def has_shape(value: object, shape) -> bool:
    """Whether a decoded JSON value has a shape: int (an integer, not a bool), np.int64
    (an int that fits in int64), float (a number, not a bool, that is finite as a
    float, so an integer beyond the float range is not one), str, [shape] for a list
    of them, {str: shape} for an object of them, or a tuple of shapes for a list of
    that length."""
    if shape is np.int64:
        return type(value) is int and -(2**63) <= value < 2**63
    if shape is float:
        try:
            return type(value) in (int, float) and math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            return False
    if shape is int or shape is str:
        return type(value) is shape
    if isinstance(shape, dict):
        return type(value) is dict and all(has_shape(v, shape[str]) for v in value.values())
    if type(value) is not list:
        return False
    if isinstance(shape, tuple):
        return len(value) == len(shape) and all(map(has_shape, value, shape))
    return all(has_shape(v, shape[0]) for v in value)


def read_config(path: str | Path, shapes: dict, null_unsets: bool = False) -> dict:
    """A JSON config file, checked against shapes (key -> (JSON shape, its wording in
    errors)): an object with no other keys, each value of its key's shape. With
    null_unsets, null is also allowed and leaves its key out of the result."""
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = set(raw) - set(shapes)
    if unknown:
        raise ValueError(f"{path}: unknown config key(s) {sorted(unknown)}")
    for key, value in raw.items():
        shape, kind = shapes[key]
        if not (has_shape(value, shape) or null_unsets and value is None):
            raise ValueError(f"{path}: config key {key!r} must be {kind}, got {value!r}")
    return {key: value for key, value in raw.items() if value is not None}


@dataclass(frozen=True, eq=False)
class Corpus:
    """An ordered collection of records, held as columns: the strings ids, users,
    texts and created_at, and two int64 arrays with -1 for an absent value: y, the
    label's position in LABEL_ORDER, and user_total_tweets. load_corpus and
    synth.generate build one."""

    ids: tuple[str, ...]
    users: tuple[str, ...]
    texts: tuple[str, ...]
    created_at: tuple[str, ...]
    y: np.ndarray
    user_total_tweets: np.ndarray

    def _rows(self) -> Iterator[tuple[str, str, str, str, int, int]]:
        columns = (self.ids, self.users, self.texts, self.created_at)
        return zip(*columns, self.y.tolist(), self.user_total_tweets.tolist())

    def __len__(self) -> int:
        return len(self.ids)

    def labeled(self) -> "Corpus":
        """Sub-corpus of records carrying a label, original order preserved."""
        keep = (self.y >= 0).tolist()
        return self if all(keep) else _pack(compress(self._rows(), keep))


def _pack(rows: Iterable[tuple]) -> Corpus:
    """(id, user, text, created_at, class id, total) rows as a Corpus."""
    return _from_columns(list(zip(*rows)) or [()] * 6)


def _from_columns(columns: list) -> Corpus:
    """The six columns (ids, users, texts, created_at, class ids, totals) as a Corpus."""
    return Corpus(*map(tuple, columns[:4]), *(np.array(c, dtype=np.int64) for c in columns[4:]))


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
        return cls._from_flat(list(chain.from_iterable(pairs)))

    @classmethod
    def _from_flat(cls, flat: Sequence[str], ids: np.ndarray | None = None) -> "FollowerGraph":
        """from_pairs of the pairs (flat[0], flat[1]), (flat[2], flat[3]), ...; or,
        given an (m, 2) array ids of positions in flat, of the pairs (flat[i], flat[j])
        for its rows (i, j), where flat may repeat an id or hold unused ones."""
        if ids is not None:
            used = np.bincount(ids.ravel(), minlength=len(flat)) > 0
            flat = list(compress(flat, used.tolist()))
            ids = (np.cumsum(used) - 1)[ids]
        names = sorted(set(flat))
        for name in names:
            if not name or name != name.strip() or any(c in name for c in ",\r\n\ufeff"):
                raise ValueError(f"graph user id cannot be written as CSV: {name!r}")
        index = dict(zip(names, range(len(names))))
        positions = np.fromiter(map(index.__getitem__, flat), np.int64, len(flat))
        ids = positions.reshape(-1, 2) if ids is None else positions[ids]
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


# required field -> the JSON types it accepts; integer ids and users become strings
_REQUIRED_FIELDS = {"id": (str, int), "user": (str, int), "text": (str,), "created_at": (str,)}
_TYPE_NAMES = {str: "a string", int: "an integer"}
_FIELDS = frozenset(_REQUIRED_FIELDS) | {"label", "user_total_tweets"}
# a lone UTF-16 surrogate: only a \u escape in the file can produce one
_SURROGATE = re.compile(r"[\ud800-\udfff]")


def _row(obj: object, escaped: bool) -> tuple[str, str, str, str, int, int]:
    """A decoded corpus line, checked, as its column values; escaped: the line has a \\u."""
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    for key, types in _REQUIRED_FIELDS.items():
        if key not in obj:
            raise ValueError(f"missing field {key!r}")
        if type(obj[key]) not in types:
            kind = " or ".join(_TYPE_NAMES[t] for t in types)
            raise ValueError(f"field {key!r} must be {kind}, got {obj[key]!r}")
    if len(obj) > len(_REQUIRED_FIELDS) and not _FIELDS.issuperset(obj):
        raise ValueError(f"unknown field(s) {sorted(set(obj) - _FIELDS)}")
    label = obj.get("label")
    class_id = _CLASS_ID.get(label, -1) if type(label) is str else -1
    if label is not None and class_id < 0:
        raise ValueError(f"unknown label {label!r}")
    record_id, user = str(obj["id"]), str(obj["user"])
    text, created_at, total = obj["text"], obj["created_at"], obj.get("user_total_tweets")
    if not record_id.strip():
        raise ValueError("record id must be non-empty")
    if not user.strip():
        raise ValueError(f"record {record_id}: user must be non-empty")
    try:
        datetime.fromisoformat(created_at.replace("Z", "+00:00"))
    except ValueError:
        raise ValueError(
            f"record {record_id}: created_at is not ISO 8601: {created_at!r}"
        ) from None
    if total is not None and (type(total) is not int or not 0 <= total < 2**63):
        raise ValueError(
            f"record {record_id}: user_total_tweets must be an int64 >= 0, got {total!r}"
        )
    for key, value in (("id", record_id), ("user", user), ("text", text)) if escaped else ():
        if lone := _SURROGATE.search(value):
            raise ValueError(f"field {key!r} holds a lone surrogate {lone.group()!r}")
    return record_id, user, text, created_at, class_id, -1 if total is None else total


def load_corpus(path: str | Path) -> Corpus:
    """Read a JSONL corpus into columns; any malformed line fails with its line number.

    Lines are decoded and checked _BLOCK at a time. Only a file that fails a
    block check is read again one line at a time, which words its first error
    or reads a valid file in another form (blank lines, whitespace around an object).
    """
    columns = _read_blocks(path)
    return _load_corpus_by_line(path) if columns is None else _from_columns(columns)


# lines load_corpus decodes with one json.loads
_BLOCK = 1024
_REQUIRED_VALUES = itemgetter(*_REQUIRED_FIELDS)


def _read_blocks(path: str | Path) -> list[list] | None:
    """The corpus columns of a file whose every line is one record object, ids
    unique, or None when some line is not or breaks a rule of _row."""
    columns: list[list] = [[], [], [], [], [], []]
    try:
        with open(path, encoding="utf-8") as fh:
            while block := list(islice(fh, _BLOCK)):
                # No JSON string holds a raw line break. So when each line starts
                # with "{" and the array holds one flat object per line, each
                # object is one line's, with at most whitespace after it.
                if not all(map(str.startswith, block, repeat("{"))):
                    return None
                text = ",".join(block)
                objs = json.loads(f"[{text}]")
                block_columns = len(objs) == len(block) and _block_columns(objs, "\\u" in text)
                if not block_columns:
                    return None
                for column, values in zip(columns, block_columns):
                    column += values
    except (ValueError, RecursionError):  # not JSON, an integer too long, or not UTF-8
        return None
    return columns if len(set(columns[0])) == len(columns[0]) else None


def _types(values: Iterable) -> set[type]:
    return set(map(type, values))


def _block_columns(objs: list, escaped: bool) -> tuple[list, ...] | None:
    """The six columns of decoded records when each one passes _row's checks (but
    for unique ids), else None; escaped: the records' lines hold a \\u."""
    if _types(objs) != {dict} or not _FIELDS.issuperset(chain.from_iterable(objs)):
        return None
    try:
        ids, users, texts, created_at = zip(*map(_REQUIRED_VALUES, objs))
    except KeyError:
        return None
    labels = list(map(dict.get, objs, repeat("label")))
    totals = list(map(dict.get, objs, repeat("user_total_tweets")))
    if not (_types(ids) | _types(users) <= {str, int} and _types(texts + created_at) == {str}
            and _types(labels) <= {str, NoneType} and _types(totals) <= {int, NoneType}):
        return None
    ids, users = list(map(str, ids)), list(map(str, users))
    y = list(map(_CLASS_ID.get, labels))
    counts = set(totals) - {None}
    if (None in y or not all(map(str.strip, ids)) or not all(map(str.strip, users))
            or counts and not 0 <= min(counts) <= max(counts) < 2**63
            or escaped and _SURROGATE.search("".join(chain(ids, users, texts)))):
        return None
    try:
        for stamp in set(created_at):
            datetime.fromisoformat(stamp.replace("Z", "+00:00"))
    except ValueError:
        return None
    return ids, users, texts, created_at, y, [-1 if n is None else n for n in totals]


def _load_corpus_by_line(path: str | Path) -> Corpus:
    """load_corpus decoding and checking one line at a time; the first malformed
    line fails with its line number."""
    rows: dict[str, tuple] = {}
    decode = json.JSONDecoder().raw_decode
    with open_utf8(path) as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                obj, end = decode(line)
                if line[end:] not in ("\n", ""):
                    raise ValueError("more than one value")
            except (ValueError, RecursionError):
                # blank lines, surrounding whitespace, and JSON errors worded by json.loads
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    raise ValueError(f"{path}: line {lineno}: invalid JSON: {exc}") from None
            try:
                row = _row(obj, "\\u" in line)
                if row[0] in rows:
                    raise ValueError(f"duplicate record id {row[0]!r}")
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            rows[row[0]] = row
    return _pack(rows.values())


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write records as JSONL in corpus order: each line is json.dumps(obj,
    ensure_ascii=False) of the record's fields in order, absent optional ones left out."""
    quote = json.encoder.encode_basestring
    # indexed by class id; -1, no label, picks the empty last entry
    labels = [f', "label": "{label.value}"' for label in LABEL_ORDER] + [""]
    with open(path, "w", encoding="utf-8") as fh:
        for i, u, t, c, y, n in corpus._rows():
            total = "" if n < 0 else f', "user_total_tweets": {n}'
            fh.write(f'{{"id": {quote(i)}, "user": {quote(u)}, "text": {quote(t)}, '
                     f'"created_at": {quote(c)}{labels[y]}{total}}}\n')


def load_follower_graph(path: str | Path) -> FollowerGraph:
    """Read `follower_id,friend_id` CSV; duplicate edges collapse silently.

    A leading byte-order mark is skipped. A line that is not two ids, repeats
    one id, or holds U+FEFF fails with its line number. The text is split in
    one pass when every line is exactly `id,id`; only a file that is not is
    read again one line at a time, which words its first error or reads a
    valid file in another form (blank lines, ids padded with whitespace).
    """
    flat = _edge_ids(path)
    if flat is not None:
        try:
            return FollowerGraph._from_flat(flat)
        except ValueError:  # an empty, padded or U+FEFF-holding id, or a self-follow
            pass
    return _load_follower_graph_by_line(path)


_TWO_COMMAS = re.compile(",[^\n]*,")


def _edge_ids(path: str | Path) -> list[str] | None:
    """The ids of a graph file in file order when each of its lines holds one
    comma, else None."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        return None
    if text and not text.endswith("\n"):
        text += "\n"
    # as many commas as lines, and never two on one line
    if text.count(",") != text.count("\n") or _TWO_COMMAS.search(text):
        return None
    flat = text.replace("\n", ",").split(",")
    flat.pop()  # the empty string after the last line end
    return flat


def _load_follower_graph_by_line(path: str | Path) -> FollowerGraph:
    """load_follower_graph reading one line at a time; the first bad line fails
    with its line number."""
    pairs: list[tuple[str, str]] = []
    with open_utf8(path, "utf-8-sig") as fh:
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
    follower = np.array([name + "," for name in graph.names], dtype=object)
    friend = np.array([name + "\n" for name in graph.names], dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join((follower[graph.edges[:, 0]] + friend[graph.edges[:, 1]]).tolist()))


def load_exclusions(path: str | Path) -> frozenset[str]:
    """One user name per line; blank lines and a leading byte-order mark ignored."""
    with open_utf8(path, "utf-8-sig") as fh:
        return frozenset(line.strip() for line in fh if line.strip())
