import inspect
import json
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sensor_rank import classify, corpus as corpus_module, rank
from sensor_rank.corpus import (
    LABEL_ORDER,
    FollowerGraph,
    Label,
    load_corpus,
    load_exclusions,
    load_follower_graph,
    write_corpus,
    write_follower_graph,
)

from oracles import TweetRecord, from_records, graph_pairs, oracle_load_corpus, records_of


def record(i, user="u1", text="zika chegou", label=None, total=None):
    return TweetRecord(
        id=f"t{i}",
        user=user,
        text=text,
        created_at="2016-09-01T12:00:00Z",
        label=label,
        user_total_tweets=total,
    )


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


def test_record_validation(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [{"id": "", "user": "u", "text": "x", "created_at": "2016-09-01T00:00:00Z"}])
    with pytest.raises(ValueError, match="line 1: record id"):
        load_corpus(path)
    write_jsonl(path, [{"id": "t", "user": " ", "text": "x", "created_at": "2016-09-01T00:00:00Z"}])
    with pytest.raises(ValueError, match="line 1: record t: user"):
        load_corpus(path)
    write_jsonl(path, [{"id": "t", "user": "u", "text": "x", "created_at": "yesterday"}])
    with pytest.raises(ValueError, match="line 1: record t: created_at"):
        load_corpus(path)
    write_jsonl(path, [{"id": "t", "user": "u", "text": "x", "created_at": "2016-09-01T00:00:00Z",
                        "user_total_tweets": -1}])
    with pytest.raises(ValueError, match="line 1: record t: user_total_tweets"):
        load_corpus(path)


def test_corpus_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_corpus(from_records((record(1),)), path)
    path.write_text(path.read_text(encoding="utf-8") * 2, encoding="utf-8")
    with pytest.raises(ValueError, match="line 2: duplicate record id"):
        load_corpus(path)


def test_corpus_labeled_and_users():
    c = from_records(
        (record(1, user="b"), record(2, user="a", label=Label.NEWS), record(3, user="a"))
    )
    assert [r.id for r in records_of(c.labeled())] == ["t2"]


def test_load_corpus_roundtrip(tmp_path):
    path = tmp_path / "corpus.jsonl"
    rows = [
        {"id": "t1", "user": "ana", "text": "zika é grave", "created_at": "2016-09-01T00:00:00Z",
         "label": "Relevant", "user_total_tweets": 140},
        {"id": "t2", "user": "bob", "text": "bom dia", "created_at": "2016-09-02T08:30:00Z"},
    ]
    write_jsonl(path, rows)
    corpus = load_corpus(path)
    assert len(records_of(corpus)) == 2
    assert records_of(corpus)[0].label is Label.RELEVANT
    assert records_of(corpus)[0].user_total_tweets == 140
    assert records_of(corpus)[1].label is None

    out = tmp_path / "copy.jsonl"
    write_corpus(corpus, out)
    again = load_corpus(out)
    assert records_of(again) == records_of(corpus)


def test_load_corpus_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"

    path.write_text('{"id": "t1"}\nnot json\n', encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        load_corpus(path)

    write_jsonl(path, [
        {"id": "t1", "user": "a", "text": "x", "created_at": "2016-09-01T00:00:00Z"},
        {"id": "t2", "user": "a", "text": "x", "created_at": "2016-09-01T00:00:00Z",
         "label": "Spam"},
    ])
    with pytest.raises(ValueError, match="line 2"):
        load_corpus(path)

    # an unhashable label and an integer too long to convert are line errors too
    write_jsonl(path, [
        {"id": "t1", "user": "a", "text": "x", "created_at": "2016-09-01T00:00:00Z",
         "label": ["News"]},
    ])
    with pytest.raises(ValueError, match=r"line 1: unknown label \['News'\]"):
        load_corpus(path)
    path.write_text('{"id": 1' + "0" * 5000 + "}\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1: invalid JSON: "):
        load_corpus(path)

    write_jsonl(path, [
        {"id": "t1", "user": "a", "text": "x", "created_at": "2016-09-01T00:00:00Z",
         "extra": 1},
    ])
    with pytest.raises(ValueError, match="unknown field"):
        load_corpus(path)

    write_jsonl(path, [
        {"id": "t1", "user": "a", "text": "x", "created_at": "2016-09-01T00:00:00Z"},
        {"id": "t1", "user": "a", "text": "x", "created_at": "2016-09-01T00:00:00Z"},
    ])
    with pytest.raises(ValueError, match="line 2"):
        load_corpus(path)

    # field types: text and created_at are strings; id and user may be integers
    good = {"id": "t1", "user": "a", "text": "x", "created_at": "2016-09-01T00:00:00Z"}
    for key, value in [
        ("text", None), ("user", ["x"]), ("id", True), ("user", False), ("id", 1.5),
        ("created_at", 20160901), ("text", 5),
    ]:
        write_jsonl(path, [good, {**good, "id": "t2", key: value}])
        with pytest.raises(ValueError, match=f"line 2: field '{key}' must be "):
            load_corpus(path)
    write_jsonl(path, [{**good, "id": 7, "user": 42}])
    assert [(r.id, r.user) for r in records_of(load_corpus(path))] == [("7", "42")]


def test_load_corpus_skips_blank_lines(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        '\n{"id": "t1", "user": "a", "text": "x", "created_at": "2016-09-01T00:00:00Z"}\n\n',
        encoding="utf-8",
    )
    assert len(records_of(load_corpus(path))) == 1


def test_load_corpus_builds_columns(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [
        {"id": "t1", "user": "ana", "text": "zika", "created_at": "2016-09-01T00:00:00Z",
         "label": "News", "user_total_tweets": 9},
        {"id": 2, "user": "bob", "text": "bom dia", "created_at": "2016-09-02T08:30:00Z",
         "label": None, "user_total_tweets": None},
    ])
    corpus = load_corpus(path)
    assert corpus.ids == ("t1", "2")
    assert corpus.users == ("ana", "bob")
    assert corpus.texts == ("zika", "bom dia")
    assert corpus.created_at == ("2016-09-01T00:00:00Z", "2016-09-02T08:30:00Z")
    assert corpus.y.dtype == corpus.user_total_tweets.dtype == np.int64
    assert corpus.y.tolist() == [1, -1]
    assert corpus.user_total_tweets.tolist() == [9, -1]
    assert records_of(from_records(records_of(corpus))) == records_of(corpus)


def test_load_corpus_rejects_lone_surrogates(tmp_path):
    path = tmp_path / "corpus.jsonl"
    good = {"id": "t1", "user": "a", "text": "x", "created_at": "2016-09-01T00:00:00Z"}
    for key in ("id", "user", "text"):
        write_jsonl(path, [good, {**good, "id": "t2", key: "ok\udc80"}])
        with pytest.raises(ValueError, match=f"line 2: field '{key}' holds a lone surrogate"):
            load_corpus(path)
    # an escaped surrogate pair is one astral character, which loads
    write_jsonl(path, [{**good, "text": "zika \U0001f99f"}])
    assert load_corpus(path).texts == ("zika \U0001f99f",)


def test_corpus_rejects_totals_beyond_int64(tmp_path):
    path = tmp_path / "corpus.jsonl"
    line = {"id": "t1", "user": "u1", "text": "x", "created_at": "2016-09-01T12:00:00Z"}
    write_jsonl(path, [{**line, "user_total_tweets": 2**63}])
    with pytest.raises(ValueError, match="line 1: record t1: user_total_tweets"):
        load_corpus(path)
    write_jsonl(path, [{**line, "user_total_tweets": 2**63 - 1}])
    assert load_corpus(path).user_total_tweets.tolist() == [2**63 - 1]


def test_traced_layer_names_stay_public_functions(tmp_path, monkeypatch):
    """perfbench/tracer.py wraps these names at every import site, this module's own
    too, and counts len(load_corpus(path)) and the edges of load_follower_graph(path):
    one load calls each public name once, whether it reads in bulk or line by line."""
    for module, name in [
        (corpus_module, "load_corpus"), (corpus_module, "write_corpus"),
        (corpus_module, "load_follower_graph"),
        (rank, "compute_user_stats"), (classify, "dataset_from_corpus"),
    ]:
        fn = getattr(module, name)
        assert name in module.__all__
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in corpus_module.__all__:
        if inspect.isfunction(fn := getattr(corpus_module, name)):
            monkeypatch.setattr(corpus_module, name, counted(name, fn))
    path, graph = tmp_path / "corpus.jsonl", tmp_path / "graph.csv"
    write_corpus(from_records([record(i) for i in range(3)]), path)
    lines = path.read_text(encoding="utf-8")
    for corpus_text, graph_text in [(lines, "a,b\nb,c\n"), ("\n" + lines, "a,b\n\n b,c\n")]:
        path.write_text(corpus_text, encoding="utf-8")
        graph.write_text(graph_text, encoding="utf-8")
        calls.clear()
        assert len(corpus_module.load_corpus(path)) == 3
        assert len(corpus_module.load_follower_graph(graph).edges) == 2
        assert calls == {"load_corpus": 1, "load_follower_graph": 1}


# Corpus lines for the loader property: mostly valid lines, some with flaws.
_good_values = {
    "id": st.one_of(st.integers(1, 20).map("t{}".format), st.integers(1, 20)),  # may repeat
    "user": st.sampled_from(["ana", "bob", 42]),
    "text": st.one_of(
        st.sampled_from(["zika", "", 'aspas " \\ barra', " \x00", "\U0001f99f"]),
        st.text(max_size=5),
    ),
    "created_at": st.sampled_from(
        ["2016-09-01T00:00:00Z", "2016-09-01", "2016-09-01T12:00:00+03:00"]
    ),
    "label": st.sampled_from(["Relevant", "News", "Noise", None]),
    "user_total_tweets": st.sampled_from([0, 140, 2**63 - 1, None]),
}
_bad_values = {
    "id": st.sampled_from(["", " ", "t\ud800", None, True, 1.5, [], {}]),
    "user": st.sampled_from(["", "\t", "b\udfffb", None, False, 2.5, ["x"]]),
    "text": st.sampled_from(["x\ud83d", "\udc00", None, 5, True, []]),
    "created_at": st.sampled_from(
        ["yesterday", "2016-13-01T00:00:00Z", "2016-09-01T00:00:00ZZ", "", None, 20160901]
    ),
    "label": st.sampled_from(["Spam", "relevant", ["News"], 1, True, {}]),
    "user_total_tweets": st.sampled_from([-1, 2**63, "5", False, 2.5, []]),
}
_REQUIRED = ("id", "user", "text", "created_at")


@st.composite
def _object_line(draw, flawed):
    obj = {key: draw(_good_values[key]) for key in _REQUIRED}
    for key in ("label", "user_total_tweets"):
        if draw(st.booleans()):
            obj[key] = draw(_good_values[key])
    if flawed:  # one to three flaws, so that the order of the checks shows
        flaws = st.sampled_from([*sorted(_bad_values), "missing", "unknown field"])
        for flaw in draw(st.lists(flaws, min_size=1, max_size=3, unique=True)):
            if flaw == "missing":
                obj.pop(draw(st.sampled_from(_REQUIRED)), None)
            elif flaw == "unknown field":
                obj["extra"] = 1
            else:
                obj[flaw] = draw(_bad_values[flaw])
    pad = st.sampled_from([""] * 6 + [" ", "\t", "\x0b"])  # json.loads refuses \x0b
    return draw(pad) + json.dumps(obj, ensure_ascii=draw(st.booleans())) + draw(pad)


_junk_corpus_line = st.sampled_from([
    "", "  ", "\t", "\x0b", "{", "not json", '{"id": 1}{"id": 2}', "[1, 2]", '"t1"', "null",
    "\ufeff{}", "{}", '{"id": "t1",}',
])
_corpus_line = st.sampled_from(
    [_object_line(flawed=False)] * 5 + [_object_line(flawed=True)] * 2 + [_junk_corpus_line]
).flatmap(lambda line: line)


# lines end in \n or \r\n; the last one may have no line end
corpus_text = st.tuples(
    st.lists(st.tuples(_corpus_line, st.sampled_from(["\n", "\n", "\r\n"])), max_size=6),
    st.sampled_from(["", "", "", "{", "not json"]),
).map(lambda t: "".join(line + end for line, end in t[0]) + t[1])


def _line(i, **fields):
    return json.dumps({"id": f"t{i}", "user": "ana", "text": "zika",
                       "created_at": "2016-09-01T00:00:00Z", **fields})


@settings(max_examples=400, deadline=None)
@given(corpus_text, st.sampled_from([corpus_module._BLOCK, 2]))
# load_corpus decodes a block of lines as one JSON array; in each example below that
# array is not one record object per line, or some block holds blank lines, padded
# objects or a fault that only a later block shows
@example(text='{"id": "t1", "user": "ana",\n "text": "zika", "created_at": "2016-09-01"}\n',
         block=2)
@example(text=f'{_line(1)}, {_line(2)[:-1]}\n"label": "News"}}\n', block=2)
@example(text=f'{_line(1)}, {_line(2)}\n{_line(3)[:-1]}, "label": [1\n{{"x": 2}}]}}\n',
         block=corpus_module._BLOCK)
@example(text=f"{_line(1)}, {_line(2)}\n", block=2)
@example(text=f"[{_line(1)},\n{_line(2)}]\n", block=2)
@example(text=f'{_line(1)[:-1]}, "user_total_tweets": 1{"0" * 4999}}}\n', block=2)
@example(text=f"{_line(1)}\n\n{_line(2)}\n", block=2)
@example(text=f"{_line(1)} \t\n{_line(2)}\n", block=2)
@example(text=f"{_line(1)}\n{_line(2)}\n{_line(1)}\n", block=2)  # a duplicate in the next block
@example(text=f"\n {_line(1)}\n\t{_line(2)} \n\n{_line(3)}\n", block=2)
@example(text=f'{_line(1)}\n{_line(2)}\n{_line(3)}\n{_line(4, label="Spam")}\n', block=2)
def test_load_corpus_matches_per_line_oracle(tmp_path_factory, text, block):
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    try:
        want = oracle_load_corpus(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as got, mock.patch.object(corpus_module, "_BLOCK", block):
            load_corpus(path)
        assert str(got.value) == str(exc)
        return
    with mock.patch.object(corpus_module, "_BLOCK", block):
        corpus = load_corpus(path)
    assert {
        "ids": list(corpus.ids), "users": list(corpus.users), "texts": list(corpus.texts),
        "created_at": list(corpus.created_at), "y": corpus.y.tolist(),
        "user_total_tweets": corpus.user_total_tweets.tolist(),
    } == want


def _object(i):
    return {"id": f"t{i}", "user": "ana", "text": "zika", "created_at": "2016-09-01T00:00:00Z"}


def test_only_the_failing_block_is_read_line_by_line(tmp_path, monkeypatch):
    read_lines, starts = corpus_module._read_lines, []

    def counted(path, block, start, seen):
        starts.append(start)
        return read_lines(path, block, start, seen)

    monkeypatch.setattr(corpus_module, "_read_lines", counted)
    monkeypatch.setattr(corpus_module, "_BLOCK", 2)
    path = tmp_path / "corpus.jsonl"
    records = [_object(i) for i in range(1, 8)]
    records[5]["created_at"] = "yesterday"
    write_jsonl(path, records)
    with pytest.raises(ValueError, match=r"line 6: record t6: created_at is not ISO 8601"):
        load_corpus(path)
    assert starts == [5]


def test_bytes_that_are_not_utf8_fail_before_an_earlier_record_fault(tmp_path):
    # the file is decoded as it is read, before any line of its block is checked
    records = [_object(i) for i in range(1, 4)]
    records[0]["created_at"] = "yesterday"
    lines = [json.dumps(record).encode() for record in records]
    lines[2] = lines[2].replace(b"zika", b"zika\xff")
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(ValueError, match=r"corpus\.jsonl: line 3: not valid UTF-8"):
        load_corpus(path)


_written_text = st.text(
    st.one_of(
        st.characters(codec="utf-8"),
        st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\u2029", "\U0001f99f"]),
    ),
    max_size=12,
)
_written_record = st.builds(
    lambda n, user, text, label, total: TweetRecord(
        id=str(n), user=user, text=text, created_at="2016-09-01T00:00:00Z",
        label=label, user_total_tweets=total,
    ),
    st.integers(0, 10**12),
    _written_text.filter(str.strip),
    _written_text,
    st.sampled_from([None, *LABEL_ORDER]),
    st.none() | st.integers(0, 2**63 - 1),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_written_record, max_size=6, unique_by=lambda r: r.id))
def test_write_corpus_lines_equal_json_dumps(tmp_path_factory, records):
    corpus = from_records(records)
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    write_corpus(corpus, path)
    want = []
    for r in records:
        obj = {"id": r.id, "user": r.user, "text": r.text, "created_at": r.created_at}
        if r.label is not None:
            obj["label"] = r.label.value
        if r.user_total_tweets is not None:
            obj["user_total_tweets"] = r.user_total_tweets
        want.append(json.dumps(obj, ensure_ascii=False) + "\n")
    assert path.read_bytes() == "".join(want).encode("utf-8")
    assert records_of(load_corpus(path)) == records_of(corpus)


def test_follower_graph_rejects_self_follow():
    with pytest.raises(ValueError, match="self"):
        FollowerGraph.from_pairs({("a", "a")})


@pytest.mark.parametrize("pair", [
    ("", "b"), ("a", ""), ("a,b", "c"), ("a", "b\nc"), ("a\r", "b"), (" a", "b"),
    ("a", "b\t"), ("\ufeffa", "b"), ("a", "b\ufeffc"),
])
def test_follower_graph_rejects_ids_csv_cannot_hold(pair):
    with pytest.raises(ValueError, match="CSV"):
        FollowerGraph.from_pairs([("x", "y"), pair])


def test_follower_graph_interns_sorted_unique_edges():
    g = FollowerGraph.from_pairs([("c", "a"), ("a", "c"), ("b", "a"), ("c", "a")])
    assert g.names == ("a", "b", "c")
    assert g.edges.tolist() == [[0, 2], [1, 0], [2, 0]]
    assert graph_pairs(g) == [("a", "c"), ("b", "a"), ("c", "a")]
    assert len(FollowerGraph.from_pairs([]).edges) == 0


def test_follower_graph_file_roundtrip(tmp_path):
    path = tmp_path / "graph.csv"
    path.write_text("b,a\na,b\n\nb,a\n", encoding="utf-8")
    g = load_follower_graph(path)
    assert graph_pairs(g) == [("a", "b"), ("b", "a")]

    out = tmp_path / "copy.csv"
    write_follower_graph(g, out)
    assert out.read_text(encoding="utf-8") == "a,b\nb,a\n"
    assert load_follower_graph(out) == g


def test_load_follower_graph_bad_line(tmp_path):
    path = tmp_path / "graph.csv"
    path.write_text("a,b\njust-one\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        load_follower_graph(path)
    path.write_text("a,a\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        load_follower_graph(path)
    path.write_text("a,b\n\ufeffc,d\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        load_follower_graph(path)


@pytest.mark.parametrize("data, error", [
    (b"a,b\n\nb,c\n", None), (b"a,b\n b,c \n", None),
    (b"a,b\njust-one\n", "line 2: expected 'follower_id,friend_id'"),
    (b"a,b\nc,c\n", "line 2: self-follow edge 'c'"),
    (b"a,b\nc,d\xff\n", "line 2: not valid UTF-8"),
])
def test_graph_file_the_split_cannot_read_is_opened_once(tmp_path, monkeypatch, data, error):
    """Blank lines, padded ids and bad lines are walked in the text decoded for the
    one-call split: the file is opened once (a non-UTF-8 file's bytes are read
    again only to number its bad line)."""
    opened = []

    def counted(*args, **kwargs):
        opened.append(args)
        return open(*args, **kwargs)

    monkeypatch.setattr(corpus_module, "open", counted, raising=False)
    path = tmp_path / "graph.csv"
    path.write_bytes(data)
    if error is None:
        assert graph_pairs(load_follower_graph(path)) == [("a", "b"), ("b", "c")]
    else:
        with pytest.raises(ValueError, match=f"graph.csv: {error}"):
            load_follower_graph(path)
    assert len(opened) == 1


def test_load_follower_graph_skips_byte_order_mark(tmp_path):
    path = tmp_path / "graph.csv"
    path.write_text("a,b\nb,c\n", encoding="utf-8-sig")
    assert graph_pairs(load_follower_graph(path)) == [("a", "b"), ("b", "c")]


def stripped_line_pairs(text):
    """The graph a CSV text holds, read by hand: (pairs, None) or (None, first bad line)."""
    text = text.removeprefix("\ufeff")
    pairs = set()
    for lineno, line in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1):
        if not line.strip():
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2 or "" in parts or parts[0] == parts[1] or "\ufeff" in line:
            return None, lineno
        pairs.add(tuple(parts))
    return pairs, None


_pad = st.sampled_from(["", " ", "  "])
_name = st.sampled_from(["a", "b", "c", "u1", "u22"])
_edge = st.tuples(_pad, _name, _pad, _name, _pad)


def _edge_line(t):
    return f"{t[0]}{t[1]},{t[2]}{t[3]}{t[4]}"


_junk_line = st.lists(st.sampled_from(["a", "u1", ",", " ", "\ufeff"]), max_size=6).map("".join)
# mostly two distinct users, so that many texts load
_graph_line = st.one_of(
    *[_edge.filter(lambda t: t[1] != t[3]).map(_edge_line)] * 3, _edge.map(_edge_line), _junk_line
)
# graph CSV text: an optional byte-order mark, then lines ending in \n, \r, \r\n or nothing
graph_text = st.tuples(
    st.sampled_from(["", "\ufeff"]),
    st.lists(st.tuples(_graph_line, st.sampled_from(["\n", "\n", "\n", "\r", "\r\n", ""])),
             max_size=8),
).map(lambda t: t[0] + "".join(line + end for line, end in t[1]))


@settings(max_examples=300, deadline=None)
@given(graph_text)
@example(text=" a,b\nb,c\n")
@example(text="a,b\n\nb,c\n")
@example(text="a,b,c\nd\n")  # as many commas as lines, two on one line
@example(text="a,b\nc\nd\n")  # lines without a comma whose ids would pair up
@example(text="a,b\nc,c\n")
@example(text="a,b\n\ufeffb,c\nc,a\n")
def test_load_follower_graph_matches_line_oracle_and_roundtrips(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("graph") / "graph.csv"
    path.write_bytes(text.encode("utf-8"))
    pairs, bad_line = stripped_line_pairs(text)
    if bad_line is not None:
        with pytest.raises(ValueError, match=f"line {bad_line}: "):
            load_follower_graph(path)
        return
    g = load_follower_graph(path)
    assert set(graph_pairs(g)) == pairs
    write_follower_graph(g, path)
    assert load_follower_graph(path) == g


def test_load_exclusions(tmp_path):
    path = tmp_path / "excl.txt"
    path.write_text("bot1\n\n  bot2\nbot1\n", encoding="utf-8")
    assert load_exclusions(path) == frozenset({"bot1", "bot2"})
    path.write_text("bot1\nbot2\n", encoding="utf-8-sig")
    assert load_exclusions(path) == frozenset({"bot1", "bot2"})
