import re
import unicodedata
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    count_matrix, ngrams, normalize, oracle_count_ngrams, oracle_fold_accents, toarray,
)
from sensor_rank import text as text_module
from sensor_rank.text import (
    DROP,
    ReplacementTable,
    Vocabulary,
    count_ngrams,
    fold_accents,
    load_stopwords,
    tfidf_rank,
)


def row_dict(matrix, i):
    return dict(zip(*(a.tolist() for a in matrix.row(i))))


def test_fold_accents():
    assert fold_accents("doença transmissão é") == "doenca transmissao e"


def test_normalize_lowercases_and_splits():
    assert normalize("Hoje TEM Festa") == ["hoje", "tem", "festa"]


def test_normalize_maps_urls_and_images():
    assert normalize("veja http://example.com/x?a=1 agora") == ["veja", "url", "agora"]
    assert normalize("foto pic.twitter.com/abc123") == ["foto", "image"]
    assert normalize("https://site.com/img.png fim") == ["image", "fim"]
    assert normalize("www.portal.com.br/noticia") == ["url"]


def test_normalize_digits_and_laughter():
    assert normalize("casos 123 confirmados") == ["casos", "number", "confirmados"]
    assert normalize("kkkkk demais") == ["funny", "demais"]
    assert normalize("hahaha rsrsrs") == ["funny", "funny"]
    # short strings that only brush the patterns stay put
    assert normalize("kk ha rs") == ["kk", "ha", "rs"]


def test_normalize_drops_emoticons():
    assert normalize("que dia :) :-( ;D <3") == ["que", "dia"]
    # an emoticon glued to a word is not an emoticon
    assert normalize("x:d") == ["x", "d"]


def test_normalize_applies_default_lingo_table():
    assert normalize("vc viu isso hj") == ["viu", "isso"]


def test_normalize_custom_table_and_drop():
    table = ReplacementTable({"febre": "sintoma", "spam": DROP})
    assert normalize("Febre e spam", table) == ["sintoma", "e"]


def test_replacement_chain_resolution():
    table = ReplacementTable({"a": "b", "b": "c"})
    assert table.exact_map["a"] == "c"
    assert normalize("a b c", table) == ["c", "c", "c"]


def test_replacement_chain_to_drop():
    table = ReplacementTable({"a": "b", "b": DROP})
    assert table.exact_map["a"] == DROP
    assert normalize("a x", table) == ["x"]


def test_replacement_cycle_rejected():
    with pytest.raises(ValueError, match="cycle"):
        ReplacementTable({"a": "b", "b": "a"})


def test_replacement_invalid_tokens_rejected():
    with pytest.raises(ValueError, match="key"):
        ReplacementTable({"two words": "x"})
    with pytest.raises(ValueError, match="value"):
        ReplacementTable({"x": "two words"})


def test_replacement_table_from_csv(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("febre,sintoma\nspam,<DROP>\n\n", encoding="utf-8")
    table = ReplacementTable.from_csv(path)
    assert table.exact_map == {"febre": "sintoma", "spam": DROP}


def test_replacement_table_from_csv_skips_byte_order_mark(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("vc,voce\nspam,<DROP>\n", encoding="utf-8-sig")
    table = ReplacementTable.from_csv(path)
    assert table.exact_map == {"vc": "voce", "spam": DROP}


def test_replacement_table_from_csv_bad_line(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("only-one-field\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        ReplacementTable.from_csv(path)


def test_table_hash_tracks_content():
    a = ReplacementTable({"a": "b"})
    b = ReplacementTable({"a": "b"})
    c = ReplacementTable({"a": "c"})
    assert a.table_hash() == b.table_hash()
    assert a.table_hash() != c.table_hash()


def test_normalize_idempotent_on_fuzzed_inputs():
    """Re-normalizing normalize's own output must change nothing."""
    rng = np.random.default_rng(20160901)
    pieces = [
        "Zika", "doença", "até", "kkkk", "hahaha", "rsrs", "42", "2016",
        "http://t.co/abc", "pic.twitter.com/xyz", ":)", ";-(", "<3", "x:D",
        "vc", "tb", "hj", "férias", "ação", "coração", "!!!", "#tag", "@user",
        "são", "já", "né", "kk", "ha", "número", ",", "…", "😀",
    ]
    for _ in range(300):
        k = rng.integers(0, 12)
        text = " ".join(pieces[i] for i in rng.integers(0, len(pieces), size=k))
        once = normalize(text)
        twice = normalize(" ".join(once))
        assert twice == once, text


def test_ngrams_order_and_joining():
    toks = ["a", "b", "c"]
    assert ngrams(toks, 1) == ["a", "b", "c"]
    assert ngrams(toks, 2) == ["a", "a_b", "b", "b_c", "c"]
    assert ngrams(toks, 3) == ["a", "a_b", "a_b_c", "b", "b_c", "c"]
    assert ngrams([], 3) == []


def test_ngrams_bounds():
    with pytest.raises(ValueError):
        ngrams(["a"], 0)
    with pytest.raises(ValueError):
        ngrams(["a"], 4)


def test_build_vocabulary_ids_and_frequencies():
    vocab, counts = count_ngrams(["febre febre alta", "febre baixa"], n_max=1)
    assert vocab.terms_in_id_order() == ["febre", "alta", "baixa"]
    assert len(counts) == 2
    f = vocab.term_to_id["febre"]
    assert np.bincount(counts.indices)[f] == 2
    assert np.bincount(counts.indices, counts.data)[f] == 3


def test_build_vocabulary_empty_corpus():
    with pytest.raises(ValueError, match="empty"):
        count_ngrams([], n_max=1)


def test_vectorize_counts_and_ignores_unknown():
    vocab, _ = count_ngrams(["a b a", "b c"], n_max=1)
    _, counts = count_ngrams(["a a zz c"], vocab=vocab)
    assert row_dict(counts, 0) == {vocab.term_to_id["a"]: 2, vocab.term_to_id["c"]: 1}


def test_vectorize_respects_vocab_ngram_order():
    vocab, _ = count_ngrams(["a b"], n_max=2)
    _, counts = count_ngrams(["a b"], vocab=vocab)
    assert row_dict(counts, 0) == {
        vocab.term_to_id["a"]: 1,
        vocab.term_to_id["a_b"]: 1,
        vocab.term_to_id["b"]: 1,
    }


def test_one_pass_matches_per_record_counting():
    texts = ["Zika zika e dengue", "kkkk 123 dengue http://x.co/a", "", "dengue zika zika zika"]
    vocab, counts = count_ngrams(texts, n_max=2)
    _, again = count_ngrams(texts + ["palavra nova"], vocab=vocab)
    assert len(vocab) == counts.n_cols == again.n_cols
    for i, text in enumerate(texts):
        # first-appearance order, as Counter gives it, with unknown terms dropped
        expected = {vocab.term_to_id[g]: c for g, c in Counter(ngrams(normalize(text), 2)).items()}
        assert list(row_dict(counts, i).items()) == list(expected.items())
        assert list(row_dict(again, i).items()) == list(expected.items())
    assert row_dict(again, len(texts)) == {}


def test_fold_accents_matches_reference_on_every_code_point(monkeypatch):
    # a fresh table, so filling it for every code point leaves the module's own small
    monkeypatch.setattr(text_module, "_COMBINING_MARKS", text_module._CombiningMarks())
    points = [cp for cp in range(0x110000) if not 0xD800 <= cp <= 0xDFFF]
    for lo in range(0, len(points), 4096):
        chunk = "".join(map(chr, points[lo : lo + 4096]))
        assert fold_accents(chunk) == oracle_fold_accents(chunk), hex(points[lo])


def test_whitespace_survives_case_and_accent_folding_on_every_code_point():
    # count_ngrams cleans each str.split() chunk on its own. That gives the
    # tokens of the whole text only while str.split() and re's \s agree, and
    # lower() then NFD keep every whitespace character whitespace and make
    # none out of anything else.
    points = "".join(chr(cp) for cp in range(0x110000) if not 0xD800 <= cp <= 0xDFFF)
    spaces = [c for c in points if c.isspace()]
    assert re.findall(r"\s", points) == spaces
    # lower() reads its neighbours only for a final sigma, and NFD reorders
    # only combining marks, so folding the rest at once shows it makes no whitespace
    rest = "".join(points.split())
    assert not re.search(r"\s", unicodedata.normalize("NFD", rest.lower()))
    for c in spaces:
        folded = unicodedata.normalize("NFD", c.lower())
        assert folded.isspace(), hex(ord(c))
        assert not any(map(unicodedata.combining, folded)), hex(ord(c))
        # a chunk's final sigma is decided within the chunk
        assert ("ΑΣ" + c + "Σ").lower().split() == ["ας", "σ"], hex(ord(c))


def test_count_ngrams_rejects_n_max_out_of_range():
    for n_max in (0, 4):
        with pytest.raises(ValueError, match="n_max"):
            count_ngrams(["febre alta"], n_max=n_max)


# Pieces that reach every rule: accents and bare combining marks, links and
# image links (also glued to their neighbours), emoticons, digits, laughter,
# default lingo, the custom table's keys, and non-BMP emoji.
TEXT_PIECES = [
    "Zika", "ZIKA", "doença", "Ação", "e\u0301", "\u0301", "a\u0327\u0301o", "ﬁm", "Straße",
    "http://t.co/abc", "https://x.co/f.JPG", "https://x.co/f.png?s=1", "HTTP://T.CO/Q",
    "pic.twitter.com/xyz", "www.site.com.br/p", "wwwx", "http", ":)", ";-(", "<3", "x:D",
    "8)", ":-p", "42", "2016", "zika2016", "kkkk", "hahaha", "rsrs", "kk", "ha",
    "vc", "tb", "RT", "dengue", "febre", "virus", "alta", "😀", "𝐙𝐢𝐤𝐚", "#tag", "@user",
    ",", "…", "", "\x00", "\x01", "ΟΔΟΣ",
]
SEPARATORS = [
    "", " ", "  ", "\n", ",", ".", "\t", "\xa0", "\x1c", "\x85", "\u2028", "\u3000",
]
post_texts = st.one_of(
    st.lists(st.tuples(st.sampled_from(TEXT_PIECES), st.sampled_from(SEPARATORS)), max_size=14)
    .map(lambda parts: "".join(p + sep for p, sep in parts)),
    st.text(max_size=20),
)
TABLES = [
    ReplacementTable.default(),
    # a chain (zika -> virus -> doenca), drops, and rules feeding the table
    ReplacementTable({"zika": "virus", "virus": "doenca", "dengue": DROP, "number": "num",
                      "funny": DROP, "url": "link", "febre": "alta"}),
]


def assert_same_counts(got, expected):
    (vocab, matrix), (vocab0, matrix0) = got, expected
    assert list(vocab.term_to_id.items()) == list(vocab0.term_to_id.items())
    assert vocab.n_max == vocab0.n_max
    assert matrix.n_cols == matrix0.n_cols
    for name in ("indptr", "indices", "data"):
        a, b = getattr(matrix, name), getattr(matrix0, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@settings(max_examples=300, deadline=None)
@given(
    st.lists(post_texts, min_size=1, max_size=10),
    st.lists(post_texts, max_size=10),
    st.sampled_from(TABLES),
    st.integers(1, 3),
)
def test_count_ngrams_matches_per_text_counter_oracle(texts, others, table, n_max):
    with pytest.MonkeyPatch.context() as mp:
        # rows straddle block boundaries, and chunks recur across blocks
        mp.setattr(text_module, "_NGRAM_BLOCK", 3)
        grown = count_ngrams(texts, table, n_max)
        assert_same_counts(grown, oracle_count_ngrams(texts, table, n_max))
        vocab = grown[0]
        before = dict(vocab.term_to_id)
        fixed = count_ngrams(others, table, vocab=vocab)
        assert fixed[0] is vocab and vocab.term_to_id == before
        copy = Vocabulary(dict(before), vocab.n_max)
        assert_same_counts(fixed, oracle_count_ngrams(others, table, vocab=copy))


sparse_rows = st.integers(1, 12).flatmap(
    lambda n_cols: st.tuples(
        st.just(n_cols),
        st.lists(
            st.dictionaries(
                st.integers(0, n_cols - 1),
                st.floats(-1e6, 1e6, allow_nan=False),
                max_size=n_cols,
            ),
            max_size=8,
        ),
    )
)


@given(sparse_rows)
def test_count_matrix_rows_round_trip_in_order(case):
    n_cols, rows = case
    m = count_matrix(rows, n_cols)
    assert len(m) == len(rows)
    assert [list(row_dict(m, i).items()) for i in range(len(m))] == [list(r.items()) for r in rows]
    picked = list(range(len(rows)))[::-2]
    sub = m.rows(picked)
    assert [row_dict(sub, i) for i in range(len(sub))] == [rows[i] for i in picked]
    both = m.concat(sub)
    assert [row_dict(both, i) for i in range(len(both))] == rows + [rows[i] for i in picked]


@given(sparse_rows)
def test_count_matrix_toarray_matches_dict_densification(case):
    n_cols, rows = case
    dense = np.zeros((len(rows), n_cols))
    for i, row in enumerate(rows):
        for t, c in row.items():
            dense[i, t] = c
    assert np.array_equal(toarray(count_matrix(rows, n_cols)), dense)


def test_count_matrix_rejects_out_of_range_columns():
    with pytest.raises(ValueError, match="column"):
        count_matrix([{3: 1.0}], 3)
    with pytest.raises(ValueError, match="columns"):
        count_matrix([], 2).concat(count_matrix([], 3))


def test_tfidf_rank_hand_computed():
    # "comum" in both docs -> idf 0; "raro" tf=2 in one doc
    vocab, counts = count_ngrams(["comum raro raro", "comum outro"], n_max=1)
    ranked = dict(tfidf_rank(counts, vocab))
    assert ranked["comum"] == 0.0
    np.testing.assert_allclose(ranked["raro"], 2 * np.log(2))
    np.testing.assert_allclose(ranked["outro"], np.log(2))
    order = [t for t, _ in tfidf_rank(counts, vocab)]
    assert order == ["raro", "outro", "comum"]


def test_tfidf_rank_excludes_stopwords():
    vocab, counts = count_ngrams(["comum raro raro", "comum outro"], n_max=1)
    terms = [t for t, _ in tfidf_rank(counts, vocab, stopwords={"raro"})]
    assert "raro" not in terms


def test_tfidf_rank_ties_break_alphabetically():
    vocab, counts = count_ngrams(["bb aa", "cc dd"], n_max=1)
    terms = [t for t, _ in tfidf_rank(counts, vocab)]
    assert terms == sorted(terms)


def test_tfidf_rank_corpus_mismatch():
    vocab, _ = count_ngrams(["a", "b"], n_max=1)
    _, other = count_ngrams(["a"], n_max=1)
    with pytest.raises(ValueError, match="columns"):
        tfidf_rank(other, vocab)


def test_load_stopwords_canonicalizes(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("Não\n  de \n\nAté\n", encoding="utf-8")
    assert load_stopwords(path) == {"nao", "de", "ate"}


def test_load_stopwords_skips_byte_order_mark(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("de\nque\n", encoding="utf-8-sig")
    assert load_stopwords(path) == {"de", "que"}
