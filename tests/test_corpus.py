import json

import pytest

from sensor_rank.corpus import (
    Corpus,
    FollowerGraph,
    Label,
    TweetRecord,
    keyword_filter,
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
    assert c.users() == ["b", "a"]  # first-appearance order


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


def test_keyword_filter_single_tokens():
    c = Corpus((record(1, text="o zika avança"), record(2, text="bom dia"),
                record(3, text="ZIKA!!")))
    kept = keyword_filter(c, ["zika"])
    assert [r.id for r in kept.records] == ["t1", "t3"]
    assert kept.keyword_set == frozenset(["zika"])


def test_keyword_filter_accent_insensitive():
    c = Corpus((record(1, text="nova DOENÇA na cidade"),))
    kept = keyword_filter(c, ["doenca"])
    assert len(kept.records) == 1


def test_keyword_filter_phrases_must_be_contiguous():
    c = Corpus((record(1, text="aedes aegypti é o vetor"),
                record(2, text="aedes come aegypti")))
    kept = keyword_filter(c, ["aedes aegypti"])
    assert [r.id for r in kept.records] == ["t1"]


def test_keyword_filter_normalizes_keywords():
    c = Corpus((record(1, text="microcefalia em alta"),))
    kept = keyword_filter(c, ["MICROCEFALIA"])
    assert len(kept.records) == 1
    with pytest.raises(ValueError, match="keyword"):
        keyword_filter(c, [":)"])


def test_keyword_filter_empty_keywords():
    with pytest.raises(ValueError, match="keyword"):
        keyword_filter(Corpus((record(1),)), [])


def test_follower_graph_rejects_self_follow():
    with pytest.raises(ValueError, match="self"):
        FollowerGraph(frozenset({("a", "a")}))


def test_follower_graph_file_roundtrip(tmp_path):
    path = tmp_path / "graph.csv"
    path.write_text("b,a\na,b\n\nb,a\n", encoding="utf-8")
    g = load_follower_graph(path)
    assert g.edges == frozenset({("b", "a"), ("a", "b")})

    out = tmp_path / "copy.csv"
    write_follower_graph(g, out)
    assert out.read_text(encoding="utf-8") == "a,b\nb,a\n"
    assert load_follower_graph(out).edges == g.edges


def test_load_follower_graph_bad_line(tmp_path):
    path = tmp_path / "graph.csv"
    path.write_text("a,b\njust-one\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        load_follower_graph(path)
    path.write_text("a,a\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        load_follower_graph(path)


def test_load_exclusions(tmp_path):
    path = tmp_path / "excl.txt"
    path.write_text("bot1\n\n  bot2\nbot1\n", encoding="utf-8")
    assert load_exclusions(path) == frozenset({"bot1", "bot2"})
