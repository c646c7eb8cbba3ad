import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensor_rank.corpus import (
    Corpus,
    FollowerGraph,
    Label,
    TweetRecord,
    load_corpus,
    load_exclusions,
    load_follower_graph,
    write_corpus,
    write_follower_graph,
)


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


def test_record_validation():
    with pytest.raises(ValueError, match="id"):
        TweetRecord(id="", user="u", text="x", created_at="2016-09-01T00:00:00Z")
    with pytest.raises(ValueError, match="user"):
        TweetRecord(id="t", user=" ", text="x", created_at="2016-09-01T00:00:00Z")
    with pytest.raises(ValueError, match="created_at"):
        TweetRecord(id="t", user="u", text="x", created_at="yesterday")
    with pytest.raises(ValueError, match="user_total_tweets"):
        TweetRecord(id="t", user="u", text="x", created_at="2016-09-01T00:00:00Z",
                    user_total_tweets=-1)


def test_corpus_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="duplicate"):
        Corpus((record(1), record(1)))


def test_corpus_labeled_and_users():
    c = Corpus((record(1, user="b"), record(2, user="a", label=Label.NEWS), record(3, user="a")))
    assert [r.id for r in c.labeled().records] == ["t2"]


def test_load_corpus_roundtrip(tmp_path):
    path = tmp_path / "corpus.jsonl"
    rows = [
        {"id": "t1", "user": "ana", "text": "zika é grave", "created_at": "2016-09-01T00:00:00Z",
         "label": "Relevant", "user_total_tweets": 140},
        {"id": "t2", "user": "bob", "text": "bom dia", "created_at": "2016-09-02T08:30:00Z"},
    ]
    write_jsonl(path, rows)
    corpus = load_corpus(path)
    assert len(corpus.records) == 2
    assert corpus.records[0].label is Label.RELEVANT
    assert corpus.records[0].user_total_tweets == 140
    assert corpus.records[1].label is None

    out = tmp_path / "copy.jsonl"
    write_corpus(corpus, out)
    again = load_corpus(out)
    assert again.records == corpus.records


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
    assert [(r.id, r.user) for r in load_corpus(path).records] == [("7", "42")]


def test_load_corpus_skips_blank_lines(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        '\n{"id": "t1", "user": "a", "text": "x", "created_at": "2016-09-01T00:00:00Z"}\n\n',
        encoding="utf-8",
    )
    assert len(load_corpus(path).records) == 1


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
    assert g.pairs() == [("a", "c"), ("b", "a"), ("c", "a")]
    assert len(FollowerGraph.from_pairs([]).edges) == 0


def test_follower_graph_file_roundtrip(tmp_path):
    path = tmp_path / "graph.csv"
    path.write_text("b,a\na,b\n\nb,a\n", encoding="utf-8")
    g = load_follower_graph(path)
    assert g.pairs() == [("a", "b"), ("b", "a")]

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


def test_load_follower_graph_skips_byte_order_mark(tmp_path):
    path = tmp_path / "graph.csv"
    path.write_text("a,b\nb,c\n", encoding="utf-8-sig")
    assert load_follower_graph(path).pairs() == [("a", "b"), ("b", "c")]


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
_line = st.one_of(
    *[_edge.filter(lambda t: t[1] != t[3]).map(_edge_line)] * 3, _edge.map(_edge_line), _junk_line
)
# graph CSV text: an optional byte-order mark, then lines ending in \n, \r, \r\n or nothing
graph_text = st.tuples(
    st.sampled_from(["", "\ufeff"]),
    st.lists(st.tuples(_line, st.sampled_from(["\n", "\n", "\n", "\r", "\r\n", ""])), max_size=8),
).map(lambda t: t[0] + "".join(line + end for line, end in t[1]))


@settings(max_examples=300, deadline=None)
@given(graph_text)
def test_load_follower_graph_matches_line_oracle_and_roundtrips(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("graph") / "graph.csv"
    path.write_bytes(text.encode("utf-8"))
    pairs, bad_line = stripped_line_pairs(text)
    if bad_line is not None:
        with pytest.raises(ValueError, match=f"line {bad_line}: "):
            load_follower_graph(path)
        return
    g = load_follower_graph(path)
    assert set(g.pairs()) == pairs
    write_follower_graph(g, path)
    assert load_follower_graph(path) == g


def test_load_exclusions(tmp_path):
    path = tmp_path / "excl.txt"
    path.write_text("bot1\n\n  bot2\nbot1\n", encoding="utf-8")
    assert load_exclusions(path) == frozenset({"bot1", "bot2"})
    path.write_text("bot1\nbot2\n", encoding="utf-8-sig")
    assert load_exclusions(path) == frozenset({"bot1", "bot2"})
