"""Tweet corpus and follower-graph data model with line-oriented file I/O."""

from __future__ import annotations

import io
import json
import logging
import math
import os
import pickle
import re
import signal
import stat
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from itertools import chain, compress, islice, repeat
from json.encoder import encode_basestring
from pathlib import Path
from types import NoneType
from typing import Callable, Iterable, Iterator, Sequence, TextIO

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

log = logging.getLogger(__name__)


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


def read_text(path: str | Path, encoding: str = "utf-8-sig") -> str:
    """The text of a UTF-8 file, decoded once by open_utf8; by default a leading
    byte-order mark is skipped."""
    with open_utf8(path, encoding) as fh:
        return fh.read()


def stripped_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each non-blank line of text, its lines
    ended by \\n as read_text ends them."""
    for lineno, line in enumerate(text.split("\n"), 1):
        if line := line.strip():
            yield lineno, line


def read_json(path: str | Path) -> object:
    """The one JSON document in a UTF-8 file; malformed or too deeply nested
    JSON is a ValueError naming the file."""
    text = read_text(path, "utf-8")  # a byte-order mark is invalid JSON
    try:
        return json.loads(text)
    except ValueError as exc:  # malformed, or an integer too long to convert
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def dumps_json(obj: object) -> str:
    """Compact JSON of dicts, lists, strings, integers and finite reals, each real
    to 4 decimals: json.dumps cannot fix the digits of the report files."""
    kind = type(obj)
    if kind is int:
        return str(obj)
    if kind is float:
        if not math.isfinite(obj):
            raise ValueError(f"cannot serialize non-finite real {obj!r}")
        return f"{obj:.4f}"
    if kind is str:
        return encode_basestring(obj)
    if kind is list:
        return "[" + ",".join(map(dumps_json, obj)) + "]"
    if kind is dict:
        return "{" + ",".join(encode_basestring(key) + ":" + dumps_json(value)
                              for key, value in obj.items()) + "}"
    raise TypeError(f"cannot serialize {kind.__name__}")


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
        keep = self.y >= 0
        if keep.all():
            return self
        mask, strings = keep.tolist(), (self.ids, self.users, self.texts, self.created_at)
        return Corpus(*(tuple(compress(c, mask)) for c in strings),
                      self.y[keep], self.user_total_tweets[keep])


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


def load_corpus(path: str | Path) -> Corpus:
    """Read a JSONL corpus into columns; any malformed line fails with its line number.

    Lines are decoded _BLOCK at a time as one JSON array and checked as columns.
    Only a block that fails is read again one line at a time, which words the
    error of its first bad line.
    """
    with open_utf8(path) as fh:
        return _read_records(path, fh)


def _read_records(path: str | Path, lines: Iterable[str]) -> Corpus:
    """load_corpus of the corpus at path whose text lines are lines."""
    columns: list[list] = [[], [], [], [], [], []]
    seen: set[str] = set()
    start = 1  # the number of the block's first line
    lines = iter(lines)
    while block := list(islice(lines, _BLOCK)):
        block_columns = _read_block(block, seen) or _read_lines(path, block, start, seen)
        for column, values in zip(columns, block_columns):
            column += values
        start += len(block)
    return Corpus(*map(tuple, columns[:4]), *(np.array(c, dtype=np.int64) for c in columns[4:]))


# lines load_corpus decodes with one json.loads
_BLOCK = 1024


def _read_block(block: list[str], seen: set[str]) -> tuple[list, ...] | None:
    """The columns of a block of corpus lines decoded as one JSON array, their ids
    added to seen; None when some line is not a record or repeats an id."""
    # No JSON string holds a raw line break. So when each line starts with "{"
    # and the array holds one flat object per line, each object is one line's,
    # with at most whitespace after it.
    if not all(map(str.startswith, block, repeat("{"))):
        return None
    try:
        text = ",".join(block)
        objs = json.loads(f"[{text}]")
        if len(objs) != len(block):
            return None
        columns = _block_columns(objs, "\\u" in text)
    except (ValueError, RecursionError):  # not JSON, an integer too long, or a bad record
        return None
    ids = set(columns[0])
    if len(ids) < len(objs) or not seen.isdisjoint(ids):
        return None
    seen.update(ids)
    return columns


def _read_lines(
    path: str | Path, block: list[str], start: int, seen: set[str]
) -> tuple[list, ...]:
    """_read_block one line at a time, its first line numbered start: the first bad
    line fails with its number."""
    objs = []
    for lineno, line in enumerate(block, start):
        if not line.strip():
            continue
        try:
            objs.append(json.loads(line))
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: line {lineno}: invalid JSON: {exc}") from None
        try:
            record_id = _block_columns(objs[-1:], "\\u" in line)[0][0]
            if record_id in seen:
                raise ValueError(f"duplicate record id {record_id!r}")
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        seen.add(record_id)
    return _block_columns(objs, "\\u" in "".join(block))


def _block_columns(objs: list, escaped: bool) -> tuple[list, ...]:
    """The six columns of decoded corpus records, ids not checked for repeats;
    escaped: the records' lines hold a \\u. The rules are checked in turn, each
    over every record; the first rule some record breaks is a ValueError worded
    from the first record, so its text names the fault of a one-record list."""
    if not set(map(type, objs)) <= {dict}:
        raise ValueError("expected a JSON object")
    required = []
    for key, types in _REQUIRED_FIELDS.items():
        try:
            values = list(map(dict.__getitem__, objs, repeat(key)))
        except KeyError:
            raise ValueError(f"missing field {key!r}") from None
        if not set(map(type, values)).issubset(types):
            kind = " or ".join(_TYPE_NAMES[t] for t in types)
            raise ValueError(f"field {key!r} must be {kind}, got {values[0]!r}")
        required.append(values)
    if not _FIELDS.issuperset(chain.from_iterable(objs)):
        raise ValueError(f"unknown field(s) {sorted(set(objs[0]) - _FIELDS)}")
    labels = list(map(dict.get, objs, repeat("label")))
    y = list(map(_CLASS_ID.get, labels)) if set(map(type, labels)) <= {str, NoneType} else [None]
    if None in y:
        raise ValueError(f"unknown label {labels[0]!r}")
    ids, users = list(map(str, required[0])), list(map(str, required[1]))
    texts, created_at = required[2:]
    if not all(map(str.strip, ids)):
        raise ValueError("record id must be non-empty")
    if not all(map(str.strip, users)):
        raise ValueError(f"record {ids[0]}: user must be non-empty")
    try:
        for stamp in set(created_at):
            datetime.fromisoformat(stamp.replace("Z", "+00:00"))
    except ValueError:
        raise ValueError(
            f"record {ids[0]}: created_at is not ISO 8601: {created_at[0]!r}"
        ) from None
    totals = list(map(dict.get, objs, repeat("user_total_tweets")))
    counts = set(totals) - {None} if set(map(type, totals)) <= {int, NoneType} else {-1}
    if counts and not 0 <= min(counts) <= max(counts) < 2**63:
        raise ValueError(
            f"record {ids[0]}: user_total_tweets must be an int64 >= 0, got {totals[0]!r}"
        )
    if escaped and _SURROGATE.search("".join(chain(ids, users, texts))):
        for row in zip(ids, users, texts):
            for key, value in zip(("id", "user", "text"), row):
                if lone := _SURROGATE.search(value):
                    raise ValueError(f"field {key!r} holds a lone surrogate {lone.group()!r}")
    return ids, users, texts, created_at, y, [-1 if n is None else n for n in totals]


# most bytes of corpus file in a part of map_corpus
_PART_BYTES = 1 << 20


def map_corpus(path: str | Path, work: Callable[[Corpus], object]) -> list:
    """[work(part) for each part of the corpus at path], in file order.

    The file is cut at line ends into one part per core this process may run on,
    at most one per _PART_BYTES. _in_processes reads each part in its own process,
    as strict UTF-8 with text mode's line ends, and checks it as load_corpus checks
    a file; work gets the part's records as a Corpus. A part sends back only work's
    result and its ids' hashes, never its records. With one part, or when a part is
    not a corpus or two parts share an id hash, the result is
    [work(load_corpus(path))], so an error names the same line for any part count.
    """
    cuts = _cuts(path)

    def read(i: int) -> tuple[np.ndarray, object] | None:
        with open(path, "rb") as fh:
            fh.seek(cuts[i])
            data = fh.read(cuts[i + 1] - cuts[i])
        try:
            part = _read_records(path, io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        except ValueError:  # load_corpus below words it
            return None
        # a forked process hashes strings as this one does
        return np.fromiter(map(hash, part.ids), np.int64, len(part)), work(part)

    parts = [None]  # one part: load_corpus reads it below
    if len(cuts) > 2:
        parts = _in_processes(read, len(cuts) - 1, "corpus-reading", "part")
    hashes = None if None in parts else np.sort(np.concatenate([ids for ids, _ in parts]))
    # not np.unique, which imports numpy.ma: about 12 ms, and more at exit
    if hashes is None or (hashes[1:] == hashes[:-1]).any():
        corpus = load_corpus(path)
        parts = [(corpus.ids, work(corpus))]
    log.info("map_corpus: %d parts on %d processes; records per part: %s",
             len(parts), _jobs(len(parts)), " ".join(str(len(ids)) for ids, _ in parts))
    return [result for _, result in parts]


def _cuts(path: str | Path) -> list[int]:
    """The offsets of map_corpus's parts of the file at path: 0, the start of each
    later part, which follows a line feed, and the file's size. A file that is not
    a regular file, such as a named pipe, is one part and is not opened here: it
    may be readable only once."""
    info = os.stat(path)
    size = info.st_size if stat.S_ISREG(info.st_mode) else 0
    n = _jobs(-(-size // _PART_BYTES))
    cuts = {0, size}
    if n > 1:
        with open(path, "rb") as fh:
            for k in range(1, n):
                fh.seek(k * size // n)
                fh.readline()
                cuts.add(fh.tell())
    return sorted(cuts)


def _jobs(n: int) -> int:
    """The processes that make n items: one per core this process may run on (so
    `taskset` limits them), at most one per item; 1 without os.fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), n)


def _in_processes(work: Callable[[int], object], n: int, role: str, item: str) -> list:
    """[work(0), ..., work(n - 1)] over _jobs(n) processes: process j makes items
    j, j + jobs and so on; this process is process 0 and the others are forked.

    A child sends its items, or its exception, back through a pipe as one pickle
    and leaves through os._exit, so no atexit handler runs and no inherited stdio
    buffer is flushed. Its exception is raised again here, and a child that ends
    without its items becomes a ValueError naming how it ended: "a {role} process
    ... before sending its {item}s". If this process fails first, it kills and
    reaps every child still running.
    """
    jobs = _jobs(n)
    children = {}  # pid -> the read end of its pipe, until the child is reaped
    try:
        for j in range(1, jobs):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                code = 1
                try:
                    try:
                        result = (True, [work(i) for i in range(j, n, jobs)])
                    except Exception as exc:  # handed to the parent, which raises it again
                        result = (False, exc)
                    with os.fdopen(write, "wb") as pipe:
                        pickle.dump(result, pipe, protocol=pickle.HIGHEST_PROTOCOL)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)
            children[pid] = os.fdopen(read, "rb")
        shares = [[work(i) for i in range(0, n, jobs)]]
        for pid, pipe in list(children.items()):
            data = pipe.read()
            pipe.close()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if code != 0:  # a child that exits 0 has written its whole result
                how = (f"exited with status {code}" if code > 0
                       else f"was killed by {signal.Signals(-code).name}")
                raise ValueError(f"a {role} process {how} before sending its {item}s")
            ok, share = pickle.loads(data)
            if not ok:
                raise share
            shares.append(share)
        return [shares[i % jobs][i // jobs] for i in range(n)]
    finally:
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def record_lines(corpus: Corpus) -> Iterator[str]:
    """Each record as a JSONL line, in corpus order: json.dumps(obj, ensure_ascii=False)
    of the record's fields in order, absent optional ones left out, then a line end."""
    quote = encode_basestring
    # indexed by class id; -1, no label, picks the empty last entry
    labels = [f', "label": "{label.value}"' for label in LABEL_ORDER] + [""]
    for i, u, t, c, y, n in corpus._rows():
        total = "" if n < 0 else f', "user_total_tweets": {n}'
        yield (f'{{"id": {quote(i)}, "user": {quote(u)}, "text": {quote(t)}, '
               f'"created_at": {quote(c)}{labels[y]}{total}}}\n')


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write records as JSONL in corpus order, one record_lines line each."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(record_lines(corpus))


def load_follower_graph(path: str | Path) -> FollowerGraph:
    """Read `follower_id,friend_id` CSV; duplicate edges collapse silently.

    The file is decoded once, a leading byte-order mark skipped. When every
    line is exactly `id,id`, the text is split in one call. Otherwise the same
    text is walked line by line, which reads a valid file in another form
    (blank lines, ids padded with whitespace) or fails at the first line that
    is not two ids, repeats one id, or holds U+FEFF, with its line number.
    """
    text = read_text(path)
    if text and not text.endswith("\n"):
        text += "\n"
    # as many commas as lines, and never two on one line
    if text.count(",") == text.count("\n") and not _TWO_COMMAS.search(text):
        flat = text.replace("\n", ",").split(",")
        flat.pop()  # the empty string after the last line end
        try:
            return FollowerGraph._from_flat(flat)
        except ValueError:  # an empty, padded or U+FEFF-holding id, or a self-follow
            pass  # the walk below reads padded ids and names the line of any other
    flat = []
    for lineno, line in stripped_lines(text):
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
        flat += follower, friend
    return FollowerGraph._from_flat(flat)


_TWO_COMMAS = re.compile(",[^\n]*,")


def write_follower_graph(graph: FollowerGraph, path: str | Path) -> None:
    """Write edges as `follower_id,friend_id`, sorted, one per line."""
    follower = np.array([name + "," for name in graph.names], dtype=object)
    friend = np.array([name + "\n" for name in graph.names], dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join((follower[graph.edges[:, 0]] + friend[graph.edges[:, 1]]).tolist()))


def load_exclusions(path: str | Path) -> frozenset[str]:
    """One user name per line; blank lines and a leading byte-order mark ignored."""
    return frozenset(line for _, line in stripped_lines(read_text(path)))
